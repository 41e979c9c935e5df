//! Command line of the paxml benchmark. See `benchmark/README.md`.

use paxml_benchmark::alloc::CountingAllocator;
use paxml_benchmark::results::{self, FULL_LINE_PREFIX};
use paxml_benchmark::{trace, workloads, Config, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage:
  paxml-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--vmb F] [--trace-out FILE]
  paxml-benchmark all [--seed N] [--seconds S] [--vmb F] --out FILE
  paxml-benchmark compare <a.json> <b.json> [--bench BENCHMARK.json]
workloads: oneshot-sim oneshot-tcp batch-sim prepared-rw";

/// `--flag value` pairs after the sub-command, plus bare words.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                    flags.push((flag.to_string(), value.clone()));
                }
                None => words.push(arg.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().rev().find(|(f, _)| f == flag) {
            Some((_, value)) => {
                value.parse().map_err(|_| format!("bad value for --{flag}: {value}"))
            }
            None => Ok(default),
        }
    }
}

fn print_outcome(config: &Config, traced: bool, outcome: &Outcome) {
    let mode = if traced { "trace" } else { "run" };
    println!(
        "{mode} {} seed={} seconds={} vmb={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        config.vmb
    );
    print!("{}{}", outcome.metrics.table(), outcome.extras.table());
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    println!("{FULL_LINE_PREFIX}{}", outcome.to_json().to_line());
    println!("{}", outcome.contract_line());
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.get("workload", String::new())?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let traced = args.get("trace", 0u8)? == 1;
    let default_out = format!("benchmark/results/trace-{}.json", workload.name());
    let config = Config {
        workload,
        seed: args.get("seed", 42)?,
        seconds: args.get("seconds", 25.0)?,
        vmb: args.get("vmb", 20.0)?,
        trace_out: PathBuf::from(args.get("trace-out", default_out)?),
    };
    let outcome = if traced { trace::run(&config) } else { workloads::run(&config, None) };
    print_outcome(&config, traced, &outcome);
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The driver's form has no sub-command: flags only.
    let result = match raw.first().map(String::as_str) {
        Some("all") => Args::parse(&raw[1..]).and_then(|args| results::run_all(&args.flags)),
        Some("compare") => {
            Args::parse(&raw[1..]).and_then(|args| results::run_compare(&args.words, &args.flags))
        }
        Some(word) if word.starts_with("--") => Args::parse(&raw).and_then(|args| run_one(&args)),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
