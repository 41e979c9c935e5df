//! The paper's tables and figures, and three serving scenarios beyond it.
//!
//! ```text
//! cargo run -p paxml-bench --release --bin experiments -- <command> [--scale S] [--seed N]
//! ```
//!
//! `queries` (Fig. 7), `topologies` (Fig. 8), `exp1` (Fig. 9), `exp2` and
//! `exp3` (Fig. 10 and Fig. 11: parallel and total time of one sweep),
//! `traffic` (§3.4), the scenarios `clients`, `rebalance` and `availability`
//! (see `paxml_bench::scenarios`; they assert their contract as they run),
//! or `all` (the default). `--scale S` multiplies every data size (default
//! 1.0: the paper's 100 MB is 5 virtual MB ≈ 12,500 nodes); `--seed N` seeds
//! the generator (default 42). Every report is an aligned table followed by
//! a CSV block.

use paxml_bench::scenarios::{self, Run};
use paxml_bench::{experiment1, experiment2, format_figure, render_csv, render_table, Point};
use paxml_bench::{paper_query, run, Series};
use paxml_xmark::{clientele_fragmentation, ft1, ft2, PAPER_QUERIES};

const COMMANDS: &str = "queries|topologies|exp1|exp2|exp3|traffic|clients|rebalance|availability";

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let command = args.next_if(|arg| !arg.starts_with("--")).unwrap_or_else(|| "all".to_string());
    let (mut scale, mut seed) = (1.0_f64, 42_u64);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => scale = parse(&flag, &value),
            "--seed" => seed = parse(&flag, &value),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if !(scale.is_finite() && scale > 0.0) {
        usage(&format!("--scale must be a positive number, got {scale}"));
    }

    // Fig. 10 and Fig. 11 are two columns of the same runs: one sweep serves both.
    let mut sweep = None;
    let size_sweep = || experiment2(5.0 * scale, 14.0 * scale, 10, seed);
    let commands = if command == "all" { COMMANDS } else { command.as_str() };
    for command in commands.split('|') {
        match command {
            "queries" => queries(),
            "topologies" => topologies(scale, seed),
            "exp1" => exp1(scale, seed),
            "exp2" => figure(sweep.get_or_insert_with(size_sweep), 10, "parallel evaluation time"),
            "exp3" => figure(sweep.get_or_insert_with(size_sweep), 11, "total computation time"),
            "traffic" => traffic(scale, seed),
            "clients" => clients(scale, seed),
            "rebalance" => rebalance(scale, seed),
            "availability" => availability(scale, seed),
            other => usage(&format!("unknown command {other:?}")),
        }
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: experiments [{COMMANDS}|all] [--scale S] [--seed N]");
    std::process::exit(2);
}

/// Fig. 7: the experiment queries.
fn queries() {
    println!("# Figure 7 — experiment queries");
    for (name, text) in PAPER_QUERIES {
        let compiled = paxml_xpath::compile_text(text).unwrap();
        println!(
            "{name}: {text}\n      selection path: {}   |SVect|={} |QVect|={} qualifiers={} descendant-axis={}",
            compiled.selection_path(),
            compiled.svect_len(),
            compiled.qvect_len(),
            compiled.has_qualifiers(),
            compiled.selection_has_descendant(),
        );
    }
    println!();
}

/// Fig. 8 (plus the running example): the fragment-tree topologies.
fn topologies(scale: f64, seed: u64) {
    println!("# Figure 8 — fragment trees");

    let (_, clientele) = clientele_fragmentation();
    println!("Running example (Fig. 2/6): {} fragments", clientele.fragment_count());
    print_ft(&clientele);

    let (_, ft1_frag) = ft1(5, 5.0 * scale, seed);
    println!("FT1 with 5 fragments ({} vMB total):", 5.0 * scale);
    print_ft(&ft1_frag);

    let (_, ft2_frag) = ft2(5.0 * scale, seed);
    println!("FT2 ({} vMB total):", 5.0 * scale);
    print_ft(&ft2_frag);
    println!();
}

fn print_ft(fragmented: &paxml_fragment::FragmentedTree) {
    let ft = &fragmented.fragment_tree;
    for &id in ft.ids() {
        let fragment = fragmented.fragment(id).unwrap();
        let parent = ft.parent(id).map(|p| p.to_string()).unwrap_or_else(|| "-".to_string());
        let annotation =
            ft.annotation(id).map(|a| a.to_string()).unwrap_or_else(|| "(root)".to_string());
        println!(
            "  {id}: parent={parent:<3} root=<{}> nodes={:<6} annotation={annotation}",
            fragment.root_label,
            fragment.size(),
        );
    }
}

/// Experiment 1 / Fig. 9.
fn exp1(scale: f64, seed: u64) {
    let total_vmb = 5.0 * scale; // the paper's constant 100 MB
    let points = experiment1(total_vmb, 10, seed);
    let caption = format!("evaluation time vs fragmentation ({total_vmb} vMB total)");
    print!("{}", format_figure(&points, "Figure 9", &caption, "fragments"));
}

/// Experiments 2 and 3: Fig. 10 reads the `parallel(ms)` column of the size
/// sweep, Fig. 11 the `total(ms)` column.
fn figure(sweep: &[Point], number: u32, metric: &str) {
    let (figure, caption) = (format!("Figure {number}"), format!("{metric} vs data size"));
    print!("{}", format_figure(sweep, &figure, &caption, "vMB"));
}

/// The §3.4 communication-cost analysis as a table: network bytes of the
/// partial-evaluation algorithms vs. the ship-everything baseline as the
/// data grows. The partial-evaluation rows must stay essentially flat (they
/// grow only with the answer set), the naive row must grow linearly with the
/// document.
fn traffic(scale: f64, seed: u64) {
    let q1 = paper_query("Q1");
    let row = |step: usize| {
        let vmb = scale * step as f64;
        let (tree, fragmented) = ft1(8, vmb, seed);
        let [pax2, pax3, naive] = [Series::Pax2Na, Series::Pax3Na, Series::Naive]
            .map(|series| run(series, &fragmented, 8, q1));
        let mut row = vec![format!("{vmb:.2}"), tree.node_count().to_string()];
        row.extend([&pax2, &pax3, &naive].map(|report| report.network_bytes().to_string()));
        row.push(pax2.answers().len().to_string());
        row
    };
    let title = "Section 3.4 — network traffic vs data size (FT1, 8 fragments, query Q1)";
    let columns = [
        ("vMB", 8),
        ("nodes", 10),
        ("PaX2 bytes", 14),
        ("PaX3 bytes", 14),
        ("Naive bytes", 14),
        ("answers", 10),
    ];
    println!("{}", render_table(title, &columns, 1, &(1..=5).map(row).collect::<Vec<_>>()));
}

/// One cell of a scenario report, by the heading of its column.
fn cell(run: &Run, heading: &str) -> String {
    match heading {
        "series" => run.series.to_string(),
        "clients" | "readers" => run.clients.to_string(),
        "queries/s" | "reads/s" | "ops/s" => format!("{:.0}", run.per_second()),
        "p50(us)" => format!("{:.1}", run.micros(50)),
        "p99(us)" => format!("{:.1}", run.micros(99)),
        "max(us)" => format!("{:.1}", run.micros(100)),
        "moves" => run.rebalance.as_ref().map_or(0, |pass| pass.ops.len()).to_string(),
        "max site bytes" => match &run.rebalance {
            Some(pass) => {
                format!("{} -> {}", pass.max_site_bytes_before, pass.max_site_bytes_after)
            }
            None => "unchanged".to_string(),
        },
        other => unreachable!("no scenario reports a {other:?} column"),
    }
}

/// Print scenario runs under the given `(heading, width)` columns, as table
/// then CSV.
fn report(title: &str, columns: &[(&str, usize)], runs: &[Run]) {
    let header: Vec<&str> = columns.iter().map(|&(heading, _)| heading).collect();
    let rows: Vec<Vec<String>> =
        runs.iter().map(|run| header.iter().map(|heading| cell(run, heading)).collect()).collect();
    println!("{}\n{}", render_table(title, columns, 1, &rows), render_csv(&header, &rows));
}

/// Throughput and latency vs closed-loop client count, three serving modes.
fn clients(scale: f64, seed: u64) {
    let (counts, iters) = ([1, 2, 4, 8], 12);
    let title =
        format!("Clients — {iters} closed-loop requests each, FT2 ({scale} vMB) on 10 sites");
    let columns =
        [("series", 14), ("clients", 8), ("queries/s", 12), ("p50(us)", 12), ("p99(us)", 12)];
    report(&title, &columns, &scenarios::clients(scale, seed, &counts, iters));
}

/// Read latency idle vs during a rebalance pass, and the load the pass shaved
/// off the hot site.
fn rebalance(scale: f64, seed: u64) {
    let (counts, iters) = ([2, 4], 16);
    let title = format!(
        "Rebalance — {iters} closed-loop reads per reader, {counts:?} readers, FT2 ({scale} vMB) \
         on 10 sites, everything on S0 until one rebalance pass runs mid-stream"
    );
    let columns = [
        ("series", 18),
        ("readers", 8),
        ("reads/s", 12),
        ("p50(us)", 12),
        ("p99(us)", 12),
        ("moves", 8),
        ("max site bytes", 22),
    ];
    report(&title, &columns, &scenarios::rebalance(scale, seed, &counts, iters));
}

/// Throughput and latency, calm vs a kill-and-revive schedule.
fn availability(scale: f64, seed: u64) {
    let (vmb, ops) = (0.05 * scale, 48);
    let title = format!(
        "Availability — {ops} closed-loop ops (7 reads : 1 update batch), FT1×6 ({vmb:.3} vMB) on \
         3 sites ×2 replicas, kill S1@[6,14] then S2@[60,68] (round ticks)"
    );
    let columns =
        [("series", 12), ("ops/s", 10), ("p50(us)", 12), ("p99(us)", 12), ("max(us)", 12)];
    report(&title, &columns, &scenarios::availability(vmb, seed, ops));
}
