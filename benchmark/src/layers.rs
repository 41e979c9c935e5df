//! The layer probes of a traced run: each crate's public functions timed
//! from outside, on the run's own document. Every probe records spans and
//! derives its metrics from them. The probes do not depend on the workload;
//! the numbers that do (counts per op, coverage) come from `trace`.

use crate::alloc::measure_live_bytes;
use crate::rig::{
    deploy_sim, deploy_tcp, expected_on_tree, Doc, Origins, UpdateStream, UPDATE_PERIOD,
};
use crate::spans::Tracer;
use crate::workloads::update_is_clean;
use crate::{median, percentile, pq4, shadow, Metrics, QMIX8, SITES};
use paxml_boolex::{ExprId, FormulaArena};
use paxml_core::{Algorithm, ExecReport, PaxServer};
use paxml_distsim::{encoded_size, Cluster, Placement};
use paxml_fragment::{apply_update, fragment_at, reassemble, FragmentedTree};
use paxml_rebalance::{apply_ops, plan, CostModel, PlannerOptions};
use paxml_wire::msg::{self, WireReply, WireRequest};
use paxml_wire::SiteServer;
use paxml_xml::XmlTree;
use paxml_xpath::{compile_with_cache, normalize, parse, CompileCache};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Repetitions of a probe that takes milliseconds.
const REPS: usize = 5;

fn median_ms(t: &Tracer, name: &str) -> f64 {
    median(&t.millis(name))
}

fn mean_us(t: &Tracer, name: &str) -> f64 {
    t.total_ns(name) as f64 / t.count(name) as f64 / 1e3
}

/// Run every probe. Returns the problems found (a probe whose answers
/// differ from `xpath::centralized` is one).
pub fn probe(t: &mut Tracer, m: &mut Metrics, doc: &Doc, seed: u64) -> Vec<String> {
    let tree = xml(t, m, doc);
    let fragmented = fragment(t, m, doc, &tree, seed);
    boolex(t, m, seed);
    distsim(t, m, &fragmented);
    let expected = expected_on_tree(&tree, &QMIX8);
    let mut problems = Vec::new();
    xpath_and_one_shot(t, m, &tree, &fragmented, &expected, &mut problems);
    prepared_and_batch(t, m, &fragmented, &expected, &mut problems);
    updates_and_rebalance(t, m, &tree, &fragmented, seed, &mut problems);
    wire(t, m, &fragmented, &expected, &mut problems);
    problems
}

fn xml(t: &mut Tracer, m: &mut Metrics, doc: &Doc) -> XmlTree {
    let parse_doc = || paxml_xml::parse(&doc.text).expect("the generated document parses");
    for _ in 0..REPS {
        t.span("xml.parse", |t| {
            t.units(doc.text.len() as u64);
            black_box(parse_doc());
        });
    }
    // One more parse with the allocator counting: what the tree holds on to.
    let (tree, live_bytes) = t.span("xml.parse_counted", |_| measure_live_bytes(parse_doc));
    for _ in 0..REPS {
        t.span("xml.serialize", |t| {
            let text = paxml_xml::to_string(&tree);
            t.units(text.len() as u64);
            black_box(text);
        });
    }
    m.put("xml.parse_mb_s", "MB/s", t.mega_units_per_s("xml.parse"), REPS);
    m.put("xml.serialize_mb_s", "MB/s", t.mega_units_per_s("xml.serialize"), REPS);
    let per_node = live_bytes as f64 / tree.node_count() as f64;
    m.put("xml.heap_bytes_per_node", "bytes/node", per_node, 1);
    tree
}

fn fragment(
    t: &mut Tracer,
    m: &mut Metrics,
    doc: &Doc,
    tree: &XmlTree,
    seed: u64,
) -> FragmentedTree {
    let cuts = doc.locate_cuts(tree);
    let cut = || fragment_at(tree, &cuts).expect("FT2 cut points are valid");
    for _ in 0..REPS {
        t.span("fragment.fragment_at", |_| black_box(cut()));
    }
    let fragmented = cut();
    for _ in 0..REPS {
        t.span("fragment.reassemble", |_| black_box(reassemble(&fragmented).expect("a valid FT")));
    }
    let largest =
        fragmented.fragments.iter().max_by_key(|f| f.tree.node_count()).expect("ten fragments");
    for _ in 0..REPS {
        t.span("fragment.clone_largest", |_| black_box(largest.clone()));
    }
    let mut state = fragmented.clone();
    let mut updates = UpdateStream::new(&fragmented, tree, seed);
    for _ in 0..50 {
        for (f, op) in updates.next_batch() {
            t.span("fragment.apply_update", |_| {
                apply_update(&mut state.fragments[f.index()], &op).expect("a generated op applies")
            });
        }
    }
    m.put("fragment.fragment_at_ms", "ms", median_ms(t, "fragment.fragment_at"), REPS);
    m.put("fragment.reassemble_ms", "ms", median_ms(t, "fragment.reassemble"), REPS);
    m.put("fragment.clone_largest_ms", "ms", median_ms(t, "fragment.clone_largest"), REPS);
    let ops = t.count("fragment.apply_update");
    m.put("fragment.apply_update_us", "us", mean_us(t, "fragment.apply_update"), ops);
    fragmented
}

/// Seeded random formulas through `FormulaArena`: interning, then one
/// memoized assignment of half the variables over everything interned.
fn boolex(t: &mut Tracer, m: &mut Metrics, seed: u64) {
    const FORMULAS: usize = 200_000;
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    };
    let mut arena: FormulaArena<u32> = FormulaArena::new();
    let mut ids: Vec<ExprId> = (0..64).map(|v| arena.var(v)).collect();
    t.span("boolex.intern", |t| {
        t.units(FORMULAS as u64);
        for _ in 0..FORMULAS {
            // Operands from the 256 newest formulas keep the formulas deep.
            let recent = ids.len().saturating_sub(256);
            let (a, b) = (ids[recent + next(ids.len() - recent)], ids[next(ids.len())]);
            ids.push(match next(5) {
                0 => arena.not(a),
                1 | 2 => arena.and(a, b),
                _ => arena.or(a, b),
            });
        }
    });
    t.span("boolex.assign", |t| {
        t.units(arena.len() as u64);
        let lookup = |v: &u32| v.is_multiple_of(2).then_some(v.is_multiple_of(4));
        let mut memo = HashMap::new();
        for &id in &ids {
            black_box(arena.assign(id, &lookup, &mut memo));
        }
    });
    m.put("boolex.intern_ns_per_node", "ns/node", t.ns_per_unit("boolex.intern"), FORMULAS);
    m.put("boolex.assign_ns_per_node", "ns/node", t.ns_per_unit("boolex.assign"), arena.len());
}

fn distsim(t: &mut Tracer, m: &mut Metrics, fragmented: &FragmentedTree) {
    const ROUNDS: usize = 200;
    let cluster = Cluster::new(fragmented, SITES, Placement::RoundRobin);
    for _ in 0..ROUNDS {
        // The cheapest request there is, to all four sites.
        t.span("distsim.round", |_| black_box(cluster.broadcast((), |_site, ()| ())));
    }
    for _ in 0..REPS {
        t.span("distsim.encoded_size", |t| t.units(encoded_size(fragmented)));
    }
    m.put("distsim.round_overhead_us", "us", mean_us(t, "distsim.round"), ROUNDS);
    m.put("distsim.encoded_size_mb_s", "MB/s", t.mega_units_per_s("distsim.encoded_size"), REPS);
}

/// One lap of `queries` through `query_once`, checked against `expected`.
fn one_shot_lap(
    t: &mut Tracer,
    span: &'static str,
    server: &PaxServer,
    queries: &[&str],
    expected: &[Origins],
    problems: &mut Vec<String>,
) -> Vec<ExecReport> {
    let reports: Vec<ExecReport> = t.span(span, |_| {
        queries.iter().map(|q| server.query_once(q).expect("one-shot execution")).collect()
    });
    // `expected` covers `QMIX8`; `queries` is that list or its first four.
    if !crate::rig::lap_is_correct(&reports, &expected[..queries.len()], 0) {
        problems.push(format!("{span}: answers differ from xpath::centralized"));
    }
    reports
}

/// The paper's own experiment, over `PQ4`: compile, the three site passes
/// (through the PaX2 and PaX3 re-enactments), centralized, PaX2, PaX3 and
/// the ship-everything baseline.
fn xpath_and_one_shot(
    t: &mut Tracer,
    m: &mut Metrics,
    tree: &XmlTree,
    fragmented: &FragmentedTree,
    expected: &[Origins],
    problems: &mut Vec<String>,
) {
    for _ in 0..20 {
        t.span("xpath.compile_shared", |_| {
            let mut cache = CompileCache::new();
            for q in QMIX8 {
                let norm = normalize(&parse(q).expect("benchmark queries parse"));
                black_box(compile_with_cache(&norm, &mut cache).expect("and compile"));
            }
        });
    }
    for (k, q) in pq4().iter().enumerate() {
        t.query = Some(k as u32);
        let shadows =
            [("pax2", shadow::pax2(t, fragmented, q)), ("pax3", shadow::pax3(t, fragmented, q))];
        for (name, origins) in shadows {
            if origins != expected[k] {
                problems.push(format!("the {name} re-enactment of query {k} answers wrongly"));
            }
        }
    }
    t.query = None;
    for _ in 0..REPS {
        t.span("xpath.centralized_lap", |_| black_box(expected_on_tree(tree, pq4())));
    }

    let pax2 = deploy_sim(Algorithm::PaX2, fragmented);
    let pax3 = deploy_sim(Algorithm::PaX3, fragmented);
    let naive = PaxServer::builder()
        .algorithm(Algorithm::NaiveCentralized)
        .placement(Placement::RoundRobin)
        .sites(SITES)
        .deploy(fragmented)
        .expect("a valid simulator configuration");
    let (mut busy_ns, mut naive_bytes) = (0u64, 0u64);
    for _ in 0..REPS {
        for r in one_shot_lap(t, "core.pax2_lap", &pax2, pq4(), expected, problems) {
            busy_ns += r.total_computation_time().as_nanos() as u64;
        }
        one_shot_lap(t, "core.pax3_lap", &pax3, pq4(), expected, problems);
        for r in one_shot_lap(t, "core.naive_lap", &naive, pq4(), expected, problems) {
            naive_bytes += r.network_bytes();
        }
    }

    let compiles = t.count("xpath.compile");
    m.put("xpath.compile_us", "us", mean_us(t, "xpath.compile"), compiles);
    m.put("xpath.compile_shared_us", "us", mean_us(t, "xpath.compile_shared") / 8.0, 20);
    for (metric, span) in [
        ("xpath.qualifier_pass_ns_per_node", "xpath.qualifier_pass"),
        ("xpath.selection_pass_ns_per_node", "xpath.selection_pass"),
        ("xpath.combined_pass_ns_per_node", "xpath.combined_pass"),
    ] {
        m.put(metric, "ns/node", t.ns_per_unit(span), t.count(span));
    }
    m.put("core.prune_us", "us", mean_us(t, "core.prune"), t.count("core.prune"));
    m.put("core.unify_us", "us", mean_us(t, "core.unify"), t.count("core.unify"));
    let centralized_ms = median_ms(t, "xpath.centralized_lap");
    m.put("xpath.centralized_lap_ms", "ms", centralized_ms, REPS);
    m.put("core.pax2_lap_ms", "ms", median_ms(t, "core.pax2_lap"), REPS);
    m.put("core.pax3_lap_ms", "ms", median_ms(t, "core.pax3_lap"), REPS);
    m.put("core.naive_lap_ms", "ms", median_ms(t, "core.naive_lap"), REPS);
    m.put("core.naive_net_bytes_per_lap", "bytes", (naive_bytes / REPS as u64) as f64, REPS);
    // The paper's "total computation comparable to centralized": summed
    // site busy time of a PaX2 lap over the centralized lap.
    let busy_ms = busy_ns as f64 / REPS as f64 / 1e6;
    m.put("core.busy_over_centralized", "ratio", busy_ms / centralized_ms, REPS);
}

/// Prepared queries over `QMIX8`: prepare, cold and cached execution, the
/// batch engine against eight one-shot executions of the same queries.
fn prepared_and_batch(
    t: &mut Tracer,
    m: &mut Metrics,
    fragmented: &FragmentedTree,
    expected: &[Origins],
    problems: &mut Vec<String>,
) {
    const WARM_LAPS: usize = 200;
    let server = deploy_sim(Algorithm::PaX2, fragmented);
    let prepare_all = |t: &mut Tracer, span: &'static str| -> Vec<_> {
        QMIX8
            .iter()
            .map(|q| t.span(span, |_| server.prepare(q).expect("benchmark queries prepare")))
            .collect()
    };
    let prepared = prepare_all(t, "core.prepare_cold");
    for _ in 0..20 {
        prepare_all(t, "core.prepare_hit");
    }
    let execute_lap = |t: &mut Tracer, span: &'static str| -> Vec<ExecReport> {
        t.span(span, |_| prepared.iter().map(|p| server.execute(p).expect("execute")).collect())
    };
    let mut hits = 0;
    let mut executes = 0;
    let mut check = |reports: Vec<ExecReport>, problems: &mut Vec<String>| {
        hits += reports.iter().filter(|r| r.from_cache).count();
        executes += reports.len();
        if !crate::rig::lap_is_correct(&reports, expected, 0) {
            problems.push("a prepared execution answers wrongly".into());
        }
    };
    check(execute_lap(t, "core.execute_cold"), problems);
    for _ in 0..WARM_LAPS {
        check(execute_lap(t, "core.execute_warm"), problems);
    }
    for _ in 0..REPS {
        let report = t.span("core.batch", |_| server.execute_batch(&prepared).expect("batch"));
        check(vec![report], problems);
        one_shot_lap(t, "core.one_shot_qmix8", &server, &QMIX8, expected, problems);
    }

    m.put("core.prepare_cold_us", "us", mean_us(t, "core.prepare_cold"), 8);
    m.put("core.prepare_hit_us", "us", mean_us(t, "core.prepare_hit"), 160);
    m.put("core.execute_cold_ms", "ms", median_ms(t, "core.execute_cold"), 1);
    m.put("core.execute_warm_us", "us", mean_us(t, "core.execute_warm") / 8.0, WARM_LAPS);
    m.put("core.cache_hit_share", "ratio", hits as f64 / executes as f64, executes);
    let batch_ms = median_ms(t, "core.batch");
    m.put("core.batch_queries_per_s", "1/s", 8.0 / (batch_ms / 1e3), REPS);
    let ratio = batch_ms / median_ms(t, "core.one_shot_qmix8");
    m.put("core.batch_vs_oneshot_ratio", "ratio", ratio, REPS);
}

/// The update path as `prepared-rw` drives it, at a tenth of the length: an
/// open loop of twenty batches at 5/s beside a closed-loop cached reader,
/// then `vacuum`, then one `rebalance` pass.
fn updates_and_rebalance(
    t: &mut Tracer,
    m: &mut Metrics,
    tree: &XmlTree,
    fragmented: &FragmentedTree,
    seed: u64,
    problems: &mut Vec<String>,
) {
    const BATCHES: u32 = 20;
    let server = deploy_sim(Algorithm::PaX2, fragmented);
    let prepared = server.prepare_set(&QMIX8).expect("QMIX8 prepares").0;
    for p in &prepared {
        server.execute(p).expect("the warming lap succeeds");
    }
    let mut updates = UpdateStream::new(fragmented, tree, seed);
    let stop = AtomicBool::new(false);
    let (mut late_us, mut reports) = (Vec::new(), Vec::new());
    let live_epochs_max = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut live_max = 0;
            let mut sampled = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                for p in &prepared {
                    black_box(server.execute(p).expect("a cached read succeeds"));
                }
                // `server_stats` probes every site; sample it sparingly.
                if sampled.elapsed() > Duration::from_millis(20) {
                    live_max = live_max.max(server.server_stats().live_epochs);
                    sampled = Instant::now();
                }
            }
            live_max
        });
        let start = Instant::now();
        for tick in 0..BATCHES {
            let due = start + UPDATE_PERIOD * tick;
            let batch = updates.next_batch();
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            reports.push(t.span("core.apply_updates", |_| server.apply_updates(&batch)));
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("the reader thread does not panic")
    });
    let reports: Vec<ExecReport> = reports.into_iter().flatten().collect();
    if reports.len() != BATCHES as usize || !reports.iter().all(update_is_clean) {
        problems.push("an update batch failed, was rejected or visited a clean site".into());
    }
    let outcomes = || reports.iter().filter_map(|r| r.update.as_ref());
    let dirty: usize = outcomes().map(|u| u.dirty_fragments.len()).sum();
    let recomputed: usize = outcomes().map(|u| u.recomputed_fragments).sum();
    let reunified: usize = outcomes().map(|u| u.reunified_fragments).sum();
    let bytes: u64 = reports.iter().map(ExecReport::network_bytes).sum();
    let n = reports.len();
    m.put("core.apply_updates_ms", "ms", median_ms(t, "core.apply_updates"), n);
    let p90 = percentile(&t.millis("core.apply_updates"), 90.0);
    m.put("core.apply_updates_p90_ms", "ms", p90, n);
    m.put("core.update_recomputed_fragments", "count", recomputed as f64 / n as f64, n);
    m.put("core.update_reunified_fragments", "count", reunified as f64 / n as f64, n);
    m.put("core.update_bytes_per_dirty_fragment", "bytes", bytes as f64 / dirty as f64, dirty);
    m.put("core.live_epochs_max", "epochs", live_epochs_max as f64, 1);
    m.put("loadgen.update_late_p90_us", "us", percentile(&late_us, 90.0), late_us.len());

    t.span("core.vacuum", |_| server.vacuum().expect("vacuum succeeds"));
    m.put("core.vacuum_ms", "ms", median_ms(t, "core.vacuum"), 1);
    m.put("core.session_cache_bytes", "bytes", server.server_stats().session_cache_bytes as f64, 1);

    let ops = t
        .span("rebalance.plan", |_| plan(&CostModel::observe(&server), &PlannerOptions::default()));
    let moved = t.span("rebalance.refragment", |_| apply_ops(&server, &ops));
    match moved {
        Ok(report) => {
            m.put("rebalance.bytes_moved", "bytes", report.stats.total_bytes() as f64, ops.len())
        }
        Err(error) => problems.push(format!("rebalance failed: {error}")),
    }
    m.put("rebalance.plan_ms", "ms", median_ms(t, "rebalance.plan"), 1);
    m.put("rebalance.refragment_ms", "ms", median_ms(t, "rebalance.refragment"), 1);
}

/// The socket transport: the codec on the largest fragment (the shadows add
/// vector-bearing protocol messages under the same span names), one framed
/// request/reply, connect + deploy, and the per-round gap to the simulator.
fn wire(
    t: &mut Tracer,
    m: &mut Metrics,
    fragmented: &FragmentedTree,
    expected: &[Origins],
    problems: &mut Vec<String>,
) {
    const ROUND_TRIPS: usize = 50;
    let largest =
        fragmented.fragments.iter().max_by_key(|f| f.tree.node_count()).expect("ten fragments");
    for _ in 0..REPS {
        let frame = t.span("wire.encode", |t| {
            let frame = paxml_wire::encode(largest);
            t.units(frame.len() as u64);
            frame
        });
        t.span("wire.decode", |t| {
            t.units(frame.len() as u64);
            black_box(paxml_wire::decode::<paxml_fragment::Fragment>(&frame).expect("decodes"));
        });
    }

    let site = SiteServer::bind("127.0.0.1:0").expect("loopback accepts a listener");
    let addr = site.local_addr().expect("a bound listener has an address");
    let site_thread = std::thread::spawn(move || site.run());
    let mut stream = std::net::TcpStream::connect(addr).expect("the site accepts");
    for _ in 0..ROUND_TRIPS {
        t.span("wire.frame_rtt", |_| {
            msg::send(&mut stream, &WireRequest::ScratchLen).expect("request frame");
            black_box(msg::recv::<WireReply>(&mut stream).expect("reply frame"));
        });
    }
    msg::send(&mut stream, &WireRequest::Shutdown).expect("shutdown frame");
    site_thread.join().expect("the site thread does not panic").expect("and exits cleanly");

    let (server, site_threads) =
        t.span("wire.connect_deploy", |_| deploy_tcp(fragmented).expect("loopback deploys"));
    let mut rounds = 0;
    for _ in 0..3 {
        let lap = one_shot_lap(t, "wire.tcp_lap", &server, pq4(), expected, problems);
        rounds = lap.iter().map(|r| r.rounds() as u64).sum();
    }
    drop(server);
    site_threads.join();

    m.put("wire.encode_mb_s", "MB/s", t.mega_units_per_s("wire.encode"), t.count("wire.encode"));
    m.put("wire.decode_mb_s", "MB/s", t.mega_units_per_s("wire.decode"), t.count("wire.decode"));
    m.put("wire.frame_rtt_us", "us", median(&t.millis("wire.frame_rtt")) * 1e3, ROUND_TRIPS);
    m.put("wire.connect_deploy_ms", "ms", median_ms(t, "wire.connect_deploy"), 1);
    let gap = (median_ms(t, "wire.tcp_lap") - median_ms(t, "core.pax2_lap")) / rounds as f64;
    m.put("wire.gap_ms_per_round", "ms", gap, 3);
}
