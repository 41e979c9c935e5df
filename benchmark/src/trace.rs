//! The traced run: twenty single-threaded laps of the workload with every
//! server call inside a span and, beside it, the benchmark's re-enactment
//! of the same work through the layer functions ([`crate::shadow`]); then
//! the layer probes ([`crate::layers`]). Spans stay in memory until the end,
//! go to `--trace-out`, and every per-layer metric is derived from them.
//! End-to-end numbers never come from this run.

use crate::json::Json;
use crate::rig::{
    expected_on_fragments, expected_on_tree, expected_per_lap, lap_is_correct, Batch, Doc, Origins,
    Rig, UpdateStream,
};
use crate::shadow::{self, Session};
use crate::spans::Tracer;
use crate::workloads::update_is_clean;
use crate::{layers, median, Config, Metrics, Outcome, Workload};
use paxml_core::{Algorithm, ExecReport};
use paxml_fragment::{apply_update, FragmentId, FragmentedTree};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const TRACED_LAPS: u32 = 20;
const UNTRACED_LAPS: u32 = 10;
const WARM_UP_LAPS: u32 = 3;

/// The exact and timed meters of the reports of all traced laps.
#[derive(Default)]
struct Meters {
    rounds: u64,
    messages: u64,
    total_ops: u64,
    parallel_ops: u64,
    busy_ns: u64,
    parallel_ns: u64,
    coordinator_self_ns: u64,
    fragments_evaluated: usize,
    fragments_total: usize,
}

impl Meters {
    fn add(&mut self, report: &ExecReport) {
        self.rounds += report.rounds() as u64;
        self.messages += report.stats.messages;
        self.total_ops += report.total_ops();
        self.parallel_ops += report.parallel_ops();
        self.busy_ns += report.total_computation_time().as_nanos() as u64;
        self.parallel_ns += report.stats.parallel_nanos;
        self.coordinator_self_ns +=
            (report.elapsed.as_nanos() as u64).saturating_sub(report.stats.parallel_nanos);
        self.fragments_evaluated +=
            report.queries.iter().map(|q| q.fragments_evaluated).sum::<usize>();
        self.fragments_total += report.queries.len() * report.fragments_total;
    }
}

/// `prepared-rw`'s re-enactment state: the benchmark's own copy of the
/// fragments and one PaX2 session per query, kept current batch by batch.
struct UpdateShadow {
    state: FragmentedTree,
    sessions: Vec<Session>,
    updates: UpdateStream,
}

impl UpdateShadow {
    fn open(t: &mut Tracer, rig: &Rig, seed: u64) -> UpdateShadow {
        let state = rig.fragmented.clone();
        let sessions = Workload::PreparedRw
            .queries()
            .iter()
            .map(|q| {
                let mut session = Session::open(t, &state, q);
                let relevant: Vec<FragmentId> = session.relevant().collect();
                session.run_fragments(t, &state, relevant);
                session
            })
            .collect();
        let updates = UpdateStream::new(&rig.fragmented, &rig.tree, seed);
        UpdateShadow { state, sessions, updates }
    }

    /// Re-enact one `apply_updates`: copy-on-write clone of each dirty
    /// fragment, the ops, every session's combined pass over the dirty
    /// fragments, `evalFT`, collection. Returns each query's answers.
    fn apply(&mut self, t: &mut Tracer, batch: &Batch) -> Vec<Origins> {
        let dirty: BTreeSet<FragmentId> = batch.iter().map(|(f, _)| *f).collect();
        for &fragment in &dirty {
            t.site = Some(shadow::site_of(fragment));
            let mut copy =
                t.span("fragment.clone", |_| self.state.fragments[fragment.index()].clone());
            for (_, op) in batch.iter().filter(|(f, _)| *f == fragment) {
                t.span("fragment.apply_update", |_| {
                    apply_update(&mut copy, op).expect("the mirror accepted this op")
                });
            }
            self.state.fragments[fragment.index()] = copy;
            t.site = None;
        }
        let mut answers = Vec::new();
        for (k, session) in self.sessions.iter_mut().enumerate() {
            t.query = Some(k as u32);
            session.run_fragments(t, &self.state, dirty.iter().copied());
            answers.push(session.resolve(t, &self.state));
        }
        t.query = None;
        answers
    }
}

/// The blocking-path time a `shadow` span's children add up to: steps the
/// coordinator runs count in full; steps that would run site-side count, per
/// step name (one name is one round), as the slowest site's share.
fn blocking_ns(t: &Tracer, shadow_id: usize) -> u64 {
    let mut coordinator = 0;
    let mut per_round: BTreeMap<&str, BTreeMap<u32, u64>> = BTreeMap::new();
    for span in t.spans.iter().filter(|s| s.parent == Some(shadow_id)) {
        match span.site {
            Some(site) => {
                *per_round.entry(span.name).or_default().entry(site).or_default() += span.ns()
            }
            None => coordinator += span.ns(),
        }
    }
    coordinator + per_round.values().filter_map(|sites| sites.values().max()).sum::<u64>()
}

/// One lap of server calls, each in a `server.call` span (`server.update`
/// for `apply_updates`), each followed by its re-enactment in a `shadow`
/// span. Returns the reports and whether every answer — the server's and
/// the shadow's — was right.
fn traced_lap(
    t: &mut Tracer,
    rig: &Rig,
    workload: Workload,
    expected: &[Origins],
    update_shadow: &mut Option<UpdateShadow>,
) -> (Vec<ExecReport>, bool) {
    let queries = workload.queries();
    let mut reports = Vec::new();
    let mut ok = true;
    match workload {
        Workload::OneshotSim | Workload::OneshotTcp => {
            for server in std::iter::once(&rig.pax2).chain(rig.pax3.as_ref()) {
                for (k, q) in queries.iter().enumerate() {
                    t.query = Some(k as u32);
                    reports.push(t.span("server.call", |_| {
                        server.query_once(q).expect("one-shot execution")
                    }));
                    let origins = t.span("shadow", |t| match server.algorithm() {
                        Algorithm::PaX3 => shadow::pax3(t, &rig.fragmented, q),
                        _ => shadow::pax2(t, &rig.fragmented, q),
                    });
                    ok &= origins == expected[k];
                }
            }
            ok &= lap_is_correct(&reports, expected, 0);
        }
        Workload::BatchSim => {
            reports.push(t.span("server.call", |_| {
                rig.pax2.execute_batch(&rig.prepared).expect("batch execution")
            }));
            t.span("shadow", |t| {
                for (k, q) in queries.iter().enumerate() {
                    t.query = Some(k as u32);
                    ok &= shadow::pax2(t, &rig.fragmented, q) == expected[k];
                }
            });
            ok &= lap_is_correct(&reports, expected, 0);
        }
        Workload::PreparedRw => {
            let shadow = update_shadow.as_mut().expect("prepared-rw opens an update shadow");
            let batch = shadow.updates.next_batch();
            let update =
                t.span("server.update", |_| rig.pax2.apply_updates(&batch).expect("update batch"));
            ok &= update_is_clean(&update);
            let shadow_answers = t.span("shadow", |t| shadow.apply(t, &batch));
            // The cached reads after the update must say what the shadow says.
            for (k, prepared) in rig.prepared.iter().enumerate() {
                t.query = Some(k as u32);
                reports.push(t.span("server.call", |_| {
                    rig.pax2.execute(prepared).expect("cached execution")
                }));
            }
            ok &= reports.iter().all(|r| r.from_cache)
                && lap_is_correct(&reports, &shadow_answers, 0);
            reports.push(update);
        }
    }
    t.query = None;
    (reports, ok)
}

/// Run the traced laps and the layer probes for one workload.
pub fn run(config: &Config) -> Outcome {
    let workload = config.workload;
    let doc = Doc::generate(config.vmb, config.seed);
    let mut t = Tracer::default();
    let mut m = Metrics::default();
    let mut problems = Vec::new();

    let rig = Rig::set_up(&doc, workload).expect("set-up succeeds on a healthy host");
    let expected = expected_per_lap(workload, expected_on_tree(&rig.tree, workload.queries()));
    let mut update_shadow =
        (workload == Workload::PreparedRw).then(|| UpdateShadow::open(&mut t, &rig, config.seed));

    // Every third lap runs untraced — the same calls, span recording off, no
    // re-enactment — so both kinds see the same warmed-up server.
    let mut meters = Meters::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..WARM_UP_LAPS {
        rig.lap(workload, 0).expect("a warm-up lap succeeds");
    }
    for lap in 0..TRACED_LAPS + UNTRACED_LAPS {
        attempted += 1;
        if lap % 3 == 2 {
            let start = Instant::now();
            let reports = rig.lap(workload, 0).expect("an untraced lap succeeds");
            untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            // prepared-rw's expected answers move with its updates; its
            // traced laps check the reads against the shadow instead.
            let checkable = workload != Workload::PreparedRw;
            failed += u64::from(checkable && !lap_is_correct(&reports, &expected, 0));
            continue;
        }
        t.lap = lap;
        let calls_before = t.total_ns("server.call");
        let (reports, ok) =
            t.span("lap", |t| traced_lap(t, &rig, workload, &expected, &mut update_shadow));
        traced_ms.push((t.total_ns("server.call") - calls_before) as f64 / 1e6);
        reports.iter().for_each(|r| meters.add(r));
        failed += u64::from(!ok);
    }
    t.lap = TRACED_LAPS + UNTRACED_LAPS;
    if let Some(shadow) = &update_shadow {
        // End state: the server, the shadow and `centralized` agree.
        let truth = expected_on_fragments(shadow.updates.mirror(), workload.queries());
        let last = rig.lap(workload, 0).expect("the final lap succeeds");
        attempted += 1;
        failed += u64::from(!lap_is_correct(&last, &truth, 0));
    }
    rig.close();

    // Coverage: what the re-enacted blocking path explains of the server
    // calls it sits beside (same lap, and same query unless lap-wide).
    let (mut explained, mut called) = (0u64, 0u64);
    for (id, span) in t.spans.iter().enumerate().filter(|(_, s)| s.name == "shadow") {
        explained += blocking_ns(&t, id);
        called += t.spans[..id]
            .iter()
            .rev()
            .find(|s| s.name.starts_with("server.") && s.lap == span.lap)
            .map_or(0, |s| s.ns());
    }
    let laps = TRACED_LAPS as f64;
    let n = TRACED_LAPS as usize;
    m.put("distsim.rounds_per_op", "count", meters.rounds as f64 / laps, n);
    m.put("distsim.messages_per_op", "count", meters.messages as f64 / laps, n);
    m.put("distsim.total_ops_per_op", "count", meters.total_ops as f64 / laps, n);
    m.put("distsim.parallel_ops_per_op", "count", meters.parallel_ops as f64 / laps, n);
    m.put("distsim.site_busy_ms_per_op", "ms", meters.busy_ns as f64 / 1e6 / laps, n);
    m.put("distsim.parallel_ms_per_op", "ms", meters.parallel_ns as f64 / 1e6 / laps, n);
    m.put(
        "core.coordinator_self_ms_per_op",
        "ms",
        meters.coordinator_self_ns as f64 / 1e6 / laps,
        n,
    );
    let share = meters.fragments_evaluated as f64 / meters.fragments_total as f64;
    m.put("core.fragments_evaluated_share", "ratio", share, meters.fragments_total);
    m.put("loadgen.samples", "count", laps, n);
    m.put("trace.overhead_share", "ratio", median(&traced_ms) / median(&untraced_ms) - 1.0, n);
    m.put("trace.coverage_share", "ratio", explained as f64 / called as f64, t.count("shadow"));

    problems.extend(layers::probe(&mut t, &mut m, &doc, config.seed));

    let file = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(config.seed as f64)),
        ("vmb", Json::Num(config.vmb)),
        ("spans", t.to_json()),
    ]);
    if let Some(dir) = config.trace_out.parent() {
        std::fs::create_dir_all(dir).expect("the trace directory can be created");
    }
    std::fs::write(&config.trace_out, file.to_line() + "\n").expect("the span file can be written");

    if failed > 0 {
        problems.push(format!("{failed} of {attempted} laps answered wrongly"));
    }
    let extras = Metrics::default();
    Outcome { correct: problems.is_empty(), attempted, failed, metrics: m, extras, problems }
}
