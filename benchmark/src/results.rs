//! Result files: `all` writes one (every workload, run and traced, each in
//! its own process so that `peak_rss_mb` is per workload), `compare` holds
//! two against issue 11's regression bounds.

use crate::json::Json;
use crate::{median, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The line a `run`/`trace` process prints before the contract's line: the
/// same outcome with sample counts, extras and problems, for `all` to keep.
pub const FULL_LINE_PREFIX: &str = "#full ";

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
}

/// First line of a command's output, or "unknown" when it cannot run (the
/// driver's checkout, for one, is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout).lines().next().map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Fold the outcomes of several end-to-end runs of one workload into one:
/// each reading's `value` (metrics and extras alike) becomes the median of
/// the runs and `values` keeps every run's, so that `compare` can see the
/// spread.
fn merge_runs(outcomes: &[Json]) -> Json {
    let first = &outcomes[0];
    let sum = |key: &str| outcomes.iter().filter_map(|o| o.get(key)?.as_f64()).sum::<f64>();
    let merge_readings = |list: &str| {
        let names = first.get(list).and_then(Json::as_obj).into_iter().flatten();
        Json::obj(names.map(|(name, reading)| {
            let values: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.get(list)?.get(name)?.get("value")?.as_f64())
                .collect();
            let mut merged = reading.as_obj().cloned().unwrap_or_default();
            merged.insert("value".into(), Json::Num(median(&values)));
            merged.insert("values".into(), Json::Arr(values.into_iter().map(Json::Num).collect()));
            (name.clone(), Json::Obj(merged))
        }))
    };
    let correct = outcomes.iter().all(|o| o.get("correct") == Some(&Json::Bool(true)));
    let mut merged = first.as_obj().cloned().unwrap_or_default();
    merged.insert("metrics".into(), merge_readings("metrics"));
    merged.insert("extras".into(), merge_readings("extras"));
    merged.insert("correct".into(), Json::Bool(correct));
    merged.insert("attempted".into(), Json::Num(sum("attempted")));
    merged.insert("failed".into(), Json::Num(sum("failed")));
    Json::Obj(merged)
}

/// End-to-end runs per workload in a result file. On this host single runs
/// minutes apart differ by more than the bounds; `compare` needs each side's
/// own spread to tell a change from that.
const RUNS: usize = 3;

/// `all`: every workload end to end ([`RUNS`] times) and traced, one child
/// process each. Fails if any child does.
pub fn run_all(flags: &[(String, String)]) -> Result<ExitCode, String> {
    let out = flag(flags, "out").ok_or("all needs --out FILE")?;
    let seed = flag(flags, "seed").unwrap_or("42");
    let seconds = flag(flags, "seconds").unwrap_or("25");
    let vmb = flag(flags, "vmb").unwrap_or("20");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut modes = Vec::new();
        for (mode, trace, repeats) in [("run", "0", RUNS), ("trace", "1", 1)] {
            let mut outcomes = Vec::new();
            for _ in 0..repeats {
                let output = Command::new(&exe)
                    .args(["--workload", workload.name(), "--seed", seed, "--seconds", seconds])
                    .args(["--vmb", vmb, "--trace", trace])
                    .output()
                    .map_err(|e| format!("cannot start {mode} {}: {e}", workload.name()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let full = stdout.lines().find_map(|line| line.strip_prefix(FULL_LINE_PREFIX));
                for line in stdout.lines().filter(|line| !line.starts_with(['#', '{'])) {
                    println!("{line}");
                }
                let outcome = full
                    .ok_or(format!("{mode} {} printed no result", workload.name()))
                    .and_then(Json::parse)?;
                all_correct &=
                    output.status.success() && outcome.get("correct") == Some(&Json::Bool(true));
                outcomes.push(outcome);
            }
            modes.push((mode, merge_runs(&outcomes)));
        }
        workloads.push((workload.name(), Json::obj(modes)));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = Json::obj([
        ("nproc", Json::Num(cores as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git", Json::Str(first_line_of("git", &["describe", "--always", "--dirty"]))),
        ("seed", Json::Str(seed.into())),
        ("seconds", Json::Str(seconds.into())),
        ("vmb", Json::Str(vmb.into())),
        ("runs", Json::Num(RUNS as f64)),
    ]);
    let file = Json::obj([("stamp", stamp), ("workloads", Json::obj(workloads))]);
    std::fs::write(out, file.to_line() + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}; every workload correct: {all_correct}");
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A reading in a result file (`workloads.<w>.<mode>.metrics.<name>`): its
/// value — the median when `all` made several runs — and every run's value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    value: f64,
    values: Vec<f64>,
}

impl Sample {
    fn read(file: &Json, workload: &str, mode: &str, name: &str) -> Option<Sample> {
        let reading = file.get("workloads")?.get(workload)?.get(mode)?.get("metrics")?.get(name)?;
        let value = reading.get("value")?.as_f64().filter(|v| v.is_finite())?;
        let values: Vec<f64> = match reading.get("values") {
            Some(list) => list.as_arr().iter().filter_map(Json::as_f64).collect(),
            None => vec![value],
        };
        Some(Sample { value, values })
    }

    /// Run-to-run spread: (max − min) ÷ median; 0 for a single run.
    fn spread(&self) -> f64 {
        let max = self.values.iter().copied().fold(f64::MIN, f64::max);
        let min = self.values.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / self.value.abs()
    }
}

/// A count made by the program repeats bit for bit on the same inputs, so
/// it has no noise band: any worsening between two runs of one seed is real.
fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

/// Issue 11's regression bounds for the timed end-to-end metrics: how much
/// of the first file's median the second's may be worse by. Everything else
/// (counts, `ok_ops_share`) may not worsen at all. `BENCHMARK.json` carries
/// wider bounds, because the driver holds them against medians over ten
/// different seeds (README, "Two sets of bounds").
const BOUNDS: [(&str, f64); 5] = [
    ("setup_s", 0.15),
    ("throughput_ops_s", 0.10),
    ("op_p50_ms", 0.10),
    ("peak_rss_mb", 0.10),
    ("update_p50_ms", 0.10),
];

fn bound_of(name: &str) -> f64 {
    BOUNDS.iter().find(|(metric, _)| *metric == name).map_or(0.0, |(_, bound)| *bound)
}

/// By how much of `a` did the metric get worse from `a` to `b` (negative:
/// it got better)?
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `choosing-metrics` §6: `b`'s median may be worse than `a`'s by at most
/// the bound; where either side's own runs spread wider than the bound the
/// row is unresolved, unless every run of `b` beats every run of `a`. Exact
/// counts are held to a bound of zero on the same inputs — equal or better
/// is ok — and say nothing across different inputs.
fn judge(
    a: Option<&Sample>,
    b: Option<&Sample>,
    unit: &str,
    better: &str,
    bound: f64,
    same_inputs: bool,
) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    let bound = if is_exact(unit) { 0.0 } else { bound };
    if is_exact(unit) && !same_inputs && a.value != b.value {
        return Verdict::Unresolved;
    }
    if a.spread() > bound || b.spread() > bound {
        let b_always_better =
            a.values.iter().all(|&va| b.values.iter().all(|&vb| worsening(va, vb, better) < 0.0));
        return if b_always_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worsening(a.value, b.value, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `compare a.json b.json`: one row per (workload, end-to-end metric), then
/// the exact per-layer counts that differ. Fails on any `worse`.
pub fn run_compare(files: &[String], flags: &[(String, String)]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("compare needs exactly two result files".into());
    };
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bench = read_json(flag(flags, "bench").unwrap_or("BENCHMARK.json"))?;
    let inputs = |file: &Json| {
        ["seed", "seconds", "vmb"].map(|key| file.get("stamp").and_then(|s| s.get(key)).cloned())
    };
    let same_inputs = inputs(&a) == inputs(&b);
    if !same_inputs {
        println!("note: the two files were made from different seeds, lengths or sizes");
    }
    let field =
        |metric: &Json, key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
    let mut worse = 0;
    println!(
        "{:<12} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        Path::new(a_path).file_name().map_or("a".into(), |f| f.to_string_lossy()),
        Path::new(b_path).file_name().map_or("b".into(), |f| f.to_string_lossy()),
        "change",
        "bound"
    );
    for workload in bench.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = field(workload, "name");
        let lists = [("end_to_end", "run"), ("per_layer", "trace")];
        for (list, mode) in lists {
            for metric in bench.get(list).map_or(&[][..], Json::as_arr) {
                let (name, unit, better) =
                    (field(metric, "name"), field(metric, "unit"), field(metric, "better"));
                let bound = bound_of(&name);
                let sa = Sample::read(&a, &workload, mode, &name);
                let sb = Sample::read(&b, &workload, mode, &name);
                let (va, vb) = (sa.as_ref().map(|s| s.value), sb.as_ref().map(|s| s.value));
                // Per layer, only the exact counts are judged, and only the
                // rows that moved are shown.
                if list == "per_layer" && (!is_exact(&unit) || !same_inputs || va == vb) {
                    continue;
                }
                let verdict = judge(sa.as_ref(), sb.as_ref(), &unit, &better, bound, same_inputs);
                worse += usize::from(verdict == Verdict::Worse);
                let change = match (va, vb) {
                    (Some(va), Some(vb)) => format!("{:+.2}%", (vb - va) / va.abs() * 100.0),
                    _ => "-".into(),
                };
                println!(
                    "{workload:<12} {name:<32} {:>14.4} {:>14.4} {change:>9} {:>6.1}%  {}",
                    va.unwrap_or(f64::NAN),
                    vb.unwrap_or(f64::NAN),
                    bound * 100.0,
                    format!("{verdict:?}").to_lowercase()
                );
            }
        }
    }
    println!("{worse} worse");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(value: f64) -> Sample {
        Sample { value, values: vec![value] }
    }

    #[test]
    fn timed_metrics_are_held_to_their_bound_in_their_direction() {
        let j = |a, b, better| judge(Some(&one(a)), Some(&one(b)), "ms", better, 0.10, true);
        assert_eq!(j(100.0, 109.0, "lower"), Verdict::Ok);
        assert_eq!(j(100.0, 111.0, "lower"), Verdict::Worse);
        assert_eq!(j(100.0, 50.0, "lower"), Verdict::Ok);
        assert_eq!(j(100.0, 89.0, "higher"), Verdict::Worse);
        assert_eq!(j(100.0, 150.0, "higher"), Verdict::Ok);
        assert_eq!(judge(Some(&one(1.0)), None, "ms", "lower", 0.1, true), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let noisy = Sample { value: 100.0, values: vec![90.0, 100.0, 130.0] };
        let slower = Sample { value: 140.0, values: vec![120.0, 140.0, 150.0] };
        let j = |a, b| judge(Some(a), Some(b), "ms", "lower", 0.10, true);
        assert_eq!(j(&noisy, &slower), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the parent.
        let faster = Sample { value: 80.0, values: vec![70.0, 80.0, 89.0] };
        assert_eq!(j(&noisy, &faster), Verdict::Ok);
        let steady = Sample { value: 100.0, values: vec![98.0, 100.0, 103.0] };
        let steady_slower = Sample { value: 120.0, values: vec![118.0, 120.0, 123.0] };
        assert_eq!(j(&steady, &steady_slower), Verdict::Worse);
    }

    #[test]
    fn counts_have_no_noise_band_but_keep_their_direction() {
        let j =
            |a, b, better, same| judge(Some(&one(a)), Some(&one(b)), "bytes", better, 0.06, same);
        assert_eq!(j(48708.0, 48708.0, "lower", true), Verdict::Ok);
        // Eight bytes fewer is a gain, one byte more a regression.
        assert_eq!(j(48708.0, 48700.0, "lower", true), Verdict::Ok);
        assert_eq!(j(48708.0, 48709.0, "lower", true), Verdict::Worse);
        assert_eq!(j(20.0, 19.0, "higher", true), Verdict::Worse);
        assert_eq!(j(20.0, 21.0, "higher", true), Verdict::Ok);
        // Counts from different seeds say nothing.
        assert_eq!(j(48708.0, 50139.0, "lower", false), Verdict::Unresolved);
        assert_eq!(j(48708.0, 48708.0, "lower", false), Verdict::Ok);
    }

    #[test]
    fn the_untimed_metrics_may_not_worsen_at_all() {
        assert_eq!(bound_of("op_p50_ms"), 0.10);
        assert_eq!(bound_of("ok_ops_share"), 0.0);
        let j = |a, b| judge(Some(&one(a)), Some(&one(b)), "ratio", "higher", 0.0, true);
        assert_eq!(j(1.0, 1.0), Verdict::Ok);
        assert_eq!(j(1.0, 0.999), Verdict::Worse);
    }

    #[test]
    fn merged_runs_report_the_median_and_keep_every_value() {
        let run = |ms: f64| {
            Json::parse(&format!(
                r#"{{"correct": true, "attempted": 10, "failed": 0,
                    "metrics": {{"op_p50_ms": {{"value": {ms}, "unit": "ms", "samples": 9}}}}}}"#
            ))
            .unwrap()
        };
        let merged = merge_runs(&[run(30.0), run(10.0), run(20.0)]);
        let sample = Sample { value: 20.0, values: vec![30.0, 10.0, 20.0] };
        let file =
            Json::obj([("workloads", Json::obj([("w", Json::obj([("run", merged.clone())]))]))]);
        assert_eq!(Sample::read(&file, "w", "run", "op_p50_ms"), Some(sample));
        assert_eq!(merged.get("attempted"), Some(&Json::Num(30.0)));
        assert_eq!(merged.get("correct"), Some(&Json::Bool(true)));
    }
}
