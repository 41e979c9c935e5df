//! `paxml` — command-line front end for the distributed XPath engine.
//!
//! ```text
//! paxml query <file.xml> <xpath> [options]     evaluate a query (simulated sites)
//! paxml cluster <file.xml> <xpath> [options]   evaluate over real site processes (TCP)
//! paxml fragment <file.xml> [options]          show how a document fragments
//! paxml compare <file.xml> <xpath> [options]   run every algorithm and compare costs
//! paxml stats <file.xml> <xpath> [options]     deploy, run the query, show per-site load
//! paxml site --listen <addr>                   run one site server (used by `cluster`)
//! paxml help                                   this text
//!
//! options:
//!   --cut-label <label>      cut a fragment at every element with this label
//!                            (repeatable; default: the root's children)
//!   --cut-size <nodes>       cut fragments greedily at this node budget
//!   --sites <n>              number of sites (default 4)
//!   --algorithm <name>       pax2 | pax3 | naive | centralized (default pax2)
//!   --annotations            enable the XPath-annotation optimization (§5)
//!   --show-answers <n>       print at most n answers (default 10)
//!   --rebalance              (stats) run one planner pass and show the load again
//! ```
//!
//! `query`, `fragment` and `compare` simulate the distribution in-process
//! (see `paxml::distsim`). `cluster` is the real thing in miniature: it
//! spawns `--sites` copies of this binary as `paxml site` child processes,
//! ships each its fragments over TCP, runs the query through
//! `paxml::wire::TcpCluster`, and tears the processes down afterwards —
//! same algorithms, same answers, same byte charges as the simulation.

use paxml::prelude::*;
use paxml::xpath::semantics;
use std::process::ExitCode;

struct Options {
    cut_labels: Vec<String>,
    cut_size: Option<usize>,
    sites: usize,
    algorithm: String,
    annotations: bool,
    show_answers: usize,
    rebalance: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cut_labels: Vec::new(),
            cut_size: None,
            sites: 4,
            algorithm: "pax2".to_string(),
            annotations: false,
            show_answers: 10,
            rebalance: false,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => {
            print_help();
            ExitCode::SUCCESS
        }
        "query" | "fragment" | "compare" | "cluster" | "stats" => match run(command, &args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(1)
            }
        },
        "site" => match run_site(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(1)
            }
        },
        other => {
            eprintln!("error: unknown command {other:?} (try `paxml help`)");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "paxml — distributed XPath query evaluation with performance guarantees\n\
         \n\
         usage:\n\
         \u{20}  paxml query <file.xml> <xpath> [options]     evaluate a query (simulated sites)\n\
         \u{20}  paxml cluster <file.xml> <xpath> [options]   evaluate over real site processes (TCP)\n\
         \u{20}  paxml fragment <file.xml> [options]          show how a document fragments\n\
         \u{20}  paxml compare <file.xml> <xpath> [options]   run every algorithm and compare costs\n\
         \u{20}  paxml stats <file.xml> <xpath> [options]     deploy, run the query, show per-site load\n\
         \u{20}  paxml site --listen <addr>                   run one site server (used by `cluster`)\n\
         \n\
         options:\n\
         \u{20}  --cut-label <label>   cut a fragment at every element with this label (repeatable)\n\
         \u{20}  --cut-size <nodes>    cut fragments greedily at this node budget\n\
         \u{20}  --sites <n>           number of sites (default 4)\n\
         \u{20}  --algorithm <name>    pax2 | pax3 | naive | centralized (default pax2)\n\
         \u{20}  --annotations         enable the XPath-annotation optimization\n\
         \u{20}  --show-answers <n>    print at most n answers (default 10)\n\
         \u{20}  --rebalance           (stats) run one planner pass and show the load again"
    );
}

fn run(command: &str, rest: &[String]) -> Result<(), String> {
    let file = rest.first().ok_or("missing <file.xml> argument")?;
    let (query_text, option_args) = if command == "fragment" {
        (None, &rest[1..])
    } else {
        let q = rest.get(1).ok_or("missing <xpath> argument")?;
        (Some(q.clone()), &rest[2..])
    };
    let options = parse_options(option_args)?;

    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let tree = parse_xml(&source).map_err(|e| format!("cannot parse {file}: {e}"))?;
    let fragmented = fragment_document(&tree, &options)?;

    match command {
        "fragment" => show_fragmentation(&fragmented),
        "query" => {
            let query_text = query_text.expect("query command always has a query");
            run_query(&tree, &fragmented, &query_text, &options)?;
        }
        "compare" => {
            let query_text = query_text.expect("compare command always has a query");
            compare_algorithms(&tree, &fragmented, &query_text, &options)?;
        }
        "cluster" => {
            let query_text = query_text.expect("cluster command always has a query");
            run_cluster(&fragmented, &query_text, &options)?;
        }
        "stats" => {
            let query_text = query_text.expect("stats command always has a query");
            run_stats(&fragmented, &query_text, &options)?;
        }
        _ => unreachable!("validated by main"),
    }
    Ok(())
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or_else(|| format!("{flag} expects a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--cut-label" => {
                options.cut_labels.push(value(args, i, "--cut-label")?);
                i += 2;
            }
            "--cut-size" => {
                options.cut_size = Some(
                    value(args, i, "--cut-size")?
                        .parse()
                        .map_err(|_| "--cut-size expects a number")?,
                );
                i += 2;
            }
            "--sites" => {
                options.sites = match value(args, i, "--sites")?.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err("--sites expects a positive number".to_string()),
                };
                i += 2;
            }
            "--algorithm" => {
                options.algorithm = value(args, i, "--algorithm")?;
                i += 2;
            }
            "--annotations" => {
                options.annotations = true;
                i += 1;
            }
            "--rebalance" => {
                options.rebalance = true;
                i += 1;
            }
            "--show-answers" => {
                options.show_answers = value(args, i, "--show-answers")?
                    .parse()
                    .map_err(|_| "--show-answers expects a number")?;
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

fn fragment_document(tree: &XmlTree, options: &Options) -> Result<FragmentedTree, String> {
    let fragmented = if !options.cut_labels.is_empty() {
        let labels: Vec<&str> = options.cut_labels.iter().map(String::as_str).collect();
        strategy::cut_at_labels(tree, &labels)
    } else if let Some(budget) = options.cut_size {
        strategy::cut_by_size(tree, budget)
    } else {
        strategy::cut_children_of_root(tree)
    };
    fragmented.map_err(|e| format!("fragmentation failed: {e}"))
}

fn show_fragmentation(fragmented: &FragmentedTree) {
    println!(
        "{} fragments, {} nodes total",
        fragmented.fragment_count(),
        fragmented.total_real_nodes()
    );
    let ft = &fragmented.fragment_tree;
    for &id in ft.ids() {
        let fragment = fragmented.fragment(id).expect("ids come from the fragment tree");
        let indent = "  ".repeat(ft.depth(id));
        let annotation =
            ft.annotation(id).map(|a| a.to_string()).unwrap_or_else(|| "(root)".to_string());
        println!(
            "{indent}{id}: <{}> {} nodes, {} sub-fragments, annotation: {annotation}",
            fragment.root_label,
            fragment.size(),
            ft.children(id).len(),
        );
    }
}

/// Spin up a `PaxServer` session over the fragmented document.
fn server(
    fragmented: &FragmentedTree,
    options: &Options,
    algorithm: Algorithm,
    annotations: bool,
) -> Result<PaxServer, String> {
    PaxServer::builder()
        .algorithm(algorithm)
        .annotations(annotations)
        .placement(Placement::RoundRobin)
        .sites(options.sites)
        .deploy(fragmented)
        .map_err(|e| e.to_string())
}

/// The distributed algorithm `--algorithm` names, or `None` for
/// `centralized`.
fn parse_algorithm(options: &Options) -> Result<Option<Algorithm>, String> {
    match options.algorithm.as_str() {
        "pax2" => Ok(Some(Algorithm::PaX2)),
        "pax3" => Ok(Some(Algorithm::PaX3)),
        "naive" => Ok(Some(Algorithm::NaiveCentralized)),
        "centralized" => Ok(None),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

/// Run the query once on `server` and print its summary and answers.
fn answer(server: &PaxServer, query_text: &str, options: &Options) -> Result<(), String> {
    let report = server.query_once(query_text).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    let answers = report.answers();
    let rows = answers.iter().map(|item| (item.label.as_str(), item.text.clone()));
    print_answers(rows, options.show_answers);
    Ok(())
}

/// Print at most `limit` answers as `<label> text` lines.
fn print_answers<'a>(
    answers: impl ExactSizeIterator<Item = (&'a str, Option<String>)>,
    limit: usize,
) {
    let total = answers.len();
    for (label, text) in answers.take(limit) {
        match text {
            Some(text) => println!("  <{label}> {text}"),
            None => println!("  <{label}>"),
        }
    }
    if total > limit {
        println!("  … and {} more", total - limit);
    }
}

fn run_query(
    tree: &XmlTree,
    fragmented: &FragmentedTree,
    query_text: &str,
    options: &Options,
) -> Result<(), String> {
    let Some(algorithm) = parse_algorithm(options)? else {
        // No distribution at all: evaluate over the original document.
        let result = centralized::evaluate(tree, query_text).map_err(|e| e.to_string())?;
        println!("{} answers ({} elementary operations)", result.answers.len(), result.ops);
        let rows = result
            .answers
            .iter()
            .map(|&node| (tree.label(node).unwrap_or("?"), tree.text_of(node)));
        print_answers(rows, options.show_answers);
        return Ok(());
    };
    answer(&server(fragmented, options, algorithm, options.annotations)?, query_text, options)
}

/// `paxml site --listen <addr>`: one site of a TCP cluster. Announces the
/// bound address on stdout (`LISTENING <addr>` — the OS picks the port for
/// `:0`), then serves fragments until a shutdown message arrives.
fn run_site(rest: &[String]) -> Result<(), String> {
    use std::io::Write;
    let mut listen = String::from("127.0.0.1:0");
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--listen" => {
                listen = rest
                    .get(i + 1)
                    .cloned()
                    .ok_or_else(|| "--listen expects an address".to_string())?;
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let server = paxml::wire::SiteServer::bind(listen.as_str())
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{}{addr}", paxml::wire::process::LISTENING_PREFIX);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// `paxml cluster`: the same evaluation as `query`, but over `--sites`
/// real site processes (spawned from this very binary) behind TCP.
fn run_cluster(
    fragmented: &FragmentedTree,
    query_text: &str,
    options: &Options,
) -> Result<(), String> {
    let Some(algorithm) = parse_algorithm(options)? else {
        return Err("`cluster` distributes the document; use `query` for centralized".to_string());
    };
    let program = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let sites = options.sites;
    println!("spawning {sites} site processes …");
    let cluster =
        paxml::wire::ProcessCluster::spawn(&program, fragmented, sites, Placement::RoundRobin, 1)
            .map_err(|e| e.to_string())?;
    for site in cluster.addresses() {
        println!("  site listening on {site}");
    }
    let server = PaxServer::builder()
        .algorithm(algorithm)
        .annotations(options.annotations)
        .deploy_over(fragmented, cluster.transport.clone())
        .map_err(|e| e.to_string())?;
    answer(&server, query_text, options)?;
    // Dropping the server and the cluster sends each site a clean shutdown
    // message, then reaps the child processes.
    println!("shutting the cluster down …");
    Ok(())
}

/// `paxml stats`: deploy the document, run the query, and print the
/// server's load breakdown — epoch/topology versions plus what each site
/// stores and has served. With `--rebalance`, run one cost-model planner
/// pass over the deployment and show the load again.
fn run_stats(
    fragmented: &FragmentedTree,
    query_text: &str,
    options: &Options,
) -> Result<(), String> {
    let Some(algorithm) = parse_algorithm(options)? else {
        return Err("`stats` meters a distributed deployment; use `query` for centralized".into());
    };
    let server = server(fragmented, options, algorithm, options.annotations)?;
    let prepared = server.prepare(query_text).map_err(|e| e.to_string())?;
    let report = server.execute(&prepared).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    println!();
    print_server_stats(&server);

    if options.rebalance {
        let outcome =
            paxml::rebalance::rebalance(&server, &paxml::rebalance::PlannerOptions::default())
                .map_err(|e| e.to_string())?;
        println!();
        if outcome.ops.is_empty() {
            println!("rebalance: the deployment is already balanced, nothing moved");
        } else {
            println!(
                "rebalance: {} migration(s), max site bytes {} -> {}",
                outcome.ops.len(),
                outcome.max_site_bytes_before,
                outcome.max_site_bytes_after
            );
            for op in &outcome.ops {
                if let paxml::rebalance::RefragOp::Migrate { fragment, from, to } = op {
                    println!("  move {fragment} from {from} to {to}");
                }
            }
            println!();
            print_server_stats(&server);
        }
    }
    Ok(())
}

/// The `server_stats()` table: epoch/topology state, then one row per site.
fn print_server_stats(server: &PaxServer) {
    let stats = server.server_stats();
    println!(
        "epoch {}   placement version {}   live epochs {}   retired {}   session cache {} bytes",
        stats.current_epoch,
        stats.placement_version,
        stats.live_epochs,
        stats.retired_epochs,
        stats.session_cache_bytes
    );
    println!(
        "{:<8} {:>10} {:>16} {:>8} {:>14}",
        "site", "fragments", "resident bytes", "visits", "bytes served"
    );
    for load in &stats.site_loads {
        println!(
            "{:<8} {:>10} {:>16} {:>8} {:>14}",
            load.site.to_string(),
            load.fragment_count(),
            load.resident_bytes(),
            load.visits,
            load.bytes_served
        );
    }
    println!("max site bytes: {}", stats.max_site_bytes());
}

fn compare_algorithms(
    tree: &XmlTree,
    fragmented: &FragmentedTree,
    query_text: &str,
    options: &Options,
) -> Result<(), String> {
    // Sanity reference first (also catches query syntax errors early).
    let reference = centralized::evaluate(tree, query_text).map_err(|e| e.to_string())?;
    let oracle = semantics::oracle_eval(tree, query_text).map_err(|e| e.to_string())?;
    if reference.answers.len() != oracle.len() {
        return Err("internal error: the two centralized evaluators disagree".to_string());
    }

    println!(
        "query: {query_text}\nfragments: {}   sites: {}   reference answers: {}\n",
        fragmented.fragment_count(),
        options.sites,
        reference.answers.len()
    );
    println!(
        "{:<22} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "algorithm", "answers", "visits", "bytes", "total ops", "parallel ops", "fragments"
    );

    let combos: Vec<(&str, Algorithm, bool)> = vec![
        ("PaX3-NA", Algorithm::PaX3, false),
        ("PaX3-XA", Algorithm::PaX3, true),
        ("PaX2-NA", Algorithm::PaX2, false),
        ("PaX2-XA", Algorithm::PaX2, true),
        ("NaiveCentralized", Algorithm::NaiveCentralized, false),
    ];

    for (label, algorithm, annotations) in combos {
        let server = server(fragmented, options, algorithm, annotations)?;
        let report = server.query_once(query_text).map_err(|e| e.to_string())?;
        if report.answers().len() != reference.answers.len() {
            return Err(format!(
                "{label} returned {} answers but the centralized reference returned {}",
                report.answers().len(),
                reference.answers.len()
            ));
        }
        println!(
            "{:<22} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10}",
            label,
            report.answers().len(),
            report.max_visits_per_site(),
            report.network_bytes(),
            report.total_ops(),
            report.parallel_ops(),
            report.queries.first().map(|q| q.fragments_evaluated).unwrap_or(0),
        );
    }
    println!("\nall algorithms returned exactly the centralized answer set");
    Ok(())
}
