//! Three serving scenarios beyond the paper — [`clients`], [`rebalance`],
//! [`availability`] — each a closed-loop run whose asserts are the contract
//! and whose latencies are the report. All three share one driver,
//! [`closed_loop`], and one [`percentile`].

use crate::{server, Series};
use paxml_core::{server::PaxServer, Algorithm, PreparedQuery, RetryPolicy};
use paxml_distsim::{FaultEvent, FaultKind, FaultPlan, Placement, SiteId};
use paxml_rebalance::{PlannerOptions, RebalanceOutcome};
use paxml_xmark::{ft1, ft2, UpdateWorkload, PAPER_QUERIES};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Sites of the FT2 deployments of [`clients`] and [`rebalance`].
const SITES: usize = 10;

/// Their read mix: one cheap selection, one qualifier-heavy query.
const QUERIES: [&str; 2] = [
    "/sites/site/people/person/name",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
];

/// The closed-loop driver: `clients` threads each call `op(client, i)` for
/// `i` in `0..iters` back-to-back while the calling thread runs `meanwhile`.
/// Returns the wall clock of the run, all `clients × iters` latencies and
/// `meanwhile`'s result. What `op` returns is dropped after its clock stops
/// (tearing a report down is not billed to the request); a client that
/// panics fails the run with its own panic.
pub fn closed_loop<T, R>(
    clients: usize,
    iters: usize,
    op: impl Fn(usize, usize) -> T + Send + Sync + 'static,
    meanwhile: impl FnOnce() -> R,
) -> (Duration, Vec<Duration>, R) {
    let op = Arc::new(op);
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let op = Arc::clone(&op);
            thread::spawn(move || {
                let mut latencies = Vec::with_capacity(iters);
                for i in 0..iters {
                    let issued = Instant::now();
                    let outcome = op(client, i);
                    latencies.push(issued.elapsed());
                    drop(outcome);
                }
                latencies
            })
        })
        .collect();
    let meanwhile = meanwhile();
    let mut latencies = Vec::with_capacity(clients * iters);
    for worker in workers {
        latencies.extend(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
    }
    (start.elapsed(), latencies, meanwhile)
}

/// The `p`-th percentile of an ascending, non-empty latency list.
pub fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// One closed-loop run of a scenario.
#[derive(Debug, Clone)]
pub struct Run {
    /// What was run (serving mode, weather, …).
    pub series: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Every client-observed latency, ascending.
    pub latencies: Vec<Duration>,
    /// The pass that ran mid-stream ([`rebalance`]'s `mid-rebalance` rows).
    pub rebalance: Option<RebalanceOutcome>,
}

impl Run {
    fn new(series: &'static str, clients: usize, wall: Duration, latencies: Vec<Duration>) -> Run {
        let mut run = Run { series, clients, wall, latencies, rebalance: None };
        run.latencies.sort();
        run
    }

    /// Completed operations per second of wall clock.
    pub fn per_second(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64()
    }

    /// The `p`-th latency percentile in microseconds (`100`: the worst).
    pub fn micros(&self, p: usize) -> f64 {
        percentile(&self.latencies, p).as_secs_f64() * 1e6
    }
}

/// Prepare the read mix and populate its residual caches, outside any
/// measured loop.
fn prepare_warm(server: &PaxServer) -> Vec<PreparedQuery> {
    let queries: Vec<PreparedQuery> =
        QUERIES.iter().map(|q| server.prepare(q).expect("the read mix compiles")).collect();
    for query in &queries {
        server.execute(query).expect("warm-up execution");
    }
    queries
}

/// Client-count sweep: for each entry of `client_counts`, `iters` requests
/// per client against one shared server over FT2 (`vmb` virtual MB) in three
/// modes — `PaX2-prepared` (`execute` from the residual cache),
/// `PaX2-oneshot` (the two-visit protocol per request) and `Naive` (every
/// request ships the document). Every report must stay within two visits.
pub fn clients(vmb: f64, seed: u64, client_counts: &[usize], iters: usize) -> Vec<Run> {
    let (_, fragmented) = ft2(vmb, seed);
    let mut runs = Vec::new();
    for &clients in client_counts {
        for (label, series, prepare) in [
            ("PaX2-prepared", Series::Pax2Na, true),
            ("PaX2-oneshot", Series::Pax2Na, false),
            ("Naive", Series::Naive, false),
        ] {
            let server = server(series, Placement::RoundRobin, &fragmented, SITES);
            let prepared = prepare.then(|| prepare_warm(&server));
            let request = move |client: usize, i: usize| {
                let pick = (client + i) % QUERIES.len();
                let report = match &prepared {
                    Some(queries) => server.execute(&queries[pick]),
                    None => server.query_once(QUERIES[pick]),
                }
                .expect("every request is answered");
                // Cached: 0 visits; one-shot PaX2: ≤ 2; naive: 1.
                assert!(report.max_visits_per_site() <= 2);
                assert!(!report.queries.is_empty());
                report
            };
            let (wall, latencies, ()) = closed_loop(clients, iters, request, || ());
            runs.push(Run::new(label, clients, wall, latencies));
        }
    }
    runs
}

/// Readers during a rebalance pass: for each entry of `reader_counts`,
/// `iters` prepared reads per reader against a PaX2 server with **everything
/// on one site**, once `idle` and once with a full observe → plan → migrate →
/// publish → vacuum pass running mid-stream. Every read must name the
/// topology that served it (the skewed original or the rebalanced one), and
/// the pass must lower the max-site resident bytes.
pub fn rebalance(vmb: f64, seed: u64, reader_counts: &[usize], iters: usize) -> Vec<Run> {
    let (_, fragmented) = ft2(vmb, seed);
    let mut runs = Vec::new();
    for &readers in reader_counts {
        for mid_run in [false, true] {
            let server =
                Arc::new(server(Series::Pax2Na, Placement::SingleSite, &fragmented, SITES));
            let queries = prepare_warm(&server);
            let reader = Arc::clone(&server);
            let read = move |client: usize, i: usize| {
                let report = reader
                    .execute(&queries[(client + i) % queries.len()])
                    .expect("reads never fail during a pass");
                assert!(report.max_visits_per_site() <= 2);
                assert!(report.placement_version <= 1, "impossible topology version");
                report
            };
            let (wall, latencies, outcome) = closed_loop(readers, iters, read, || {
                mid_run.then(|| {
                    paxml_rebalance::rebalance(&server, &PlannerOptions::default())
                        .expect("rebalance pass")
                })
            });
            if let Some(o) = &outcome {
                assert!(
                    o.max_site_bytes_after < o.max_site_bytes_before,
                    "the pass must reduce the max-site load"
                );
            }
            let label = if mid_run { "mid-rebalance" } else { "idle" };
            runs.push(Run { rebalance: outcome, ..Run::new(label, readers, wall, latencies) });
        }
    }
    runs
}

/// Availability: `ops` operations (7 uncached reads : 1 update batch) from
/// one client against FT1×6 (`vmb` virtual MB) on 3 sites × 2 replicas, once
/// `calm` and once under a scripted kill-and-revive schedule. Every
/// operation must complete: the failover path retries, quarantines the
/// victim and re-routes to the surviving replica.
pub fn availability(vmb: f64, seed: u64, ops: usize) -> Vec<Run> {
    // S1 dies early and revives, then — much later — S2 dies and revives.
    // The gap is deliberate: between the windows the health tracker must
    // re-probe and readmit S1 and an update's repair pass must re-ship its
    // stale copies, so that when S2 goes down every fragment still has a
    // live, current replica.
    let kill_and_revive = FaultPlan::scripted(vec![
        FaultEvent { site: SiteId(1), from_round: 6, to_round: 14, kind: FaultKind::Kill },
        FaultEvent { site: SiteId(2), from_round: 60, to_round: 68, kind: FaultKind::Kill },
    ]);
    [("calm", None), ("kill-revive", Some(kill_and_revive))]
        .into_iter()
        .map(|(label, plan)| {
            let (tree, fragmented) = ft1(6, vmb, seed);
            let server = PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .sites(3)
                .placement(Placement::RoundRobin)
                .replication(2)
                // In-process probes are free: re-check quarantined sites almost
                // at once, so a revived site rejoins within one operation.
                .retry_policy(RetryPolicy {
                    probe_cooldown: Duration::from_millis(1),
                    ..RetryPolicy::default()
                })
                .deploy(&fragmented)
                .expect("deploy the replicated server");
            server.deployment().set_fault_plan(plan);
            let workload =
                Mutex::new(UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 7));
            let operation = move |_, i: usize| {
                if i % 8 == 7 {
                    let batch = workload.lock().expect("one client").next_batch(3, 2);
                    server.apply_updates(&batch).expect("updates must survive the schedule");
                } else {
                    // Uncached: every read pays its site rounds, ticking the fault clock.
                    server
                        .query_once(PAPER_QUERIES[i % PAPER_QUERIES.len()].1)
                        .expect("reads must survive the schedule");
                }
            };
            let (wall, latencies, ()) = closed_loop(1, ops, operation, || ());
            Run::new(label, 1, wall, latencies)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn closed_loop_returns_every_latency() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let (_, latencies, meanwhile) =
            closed_loop(3, 5, move |_, _| counter.fetch_add(1, Ordering::Relaxed), || "ran");
        assert_eq!(latencies.len(), 15);
        assert_eq!(calls.load(Ordering::Relaxed), 15);
        assert_eq!(meanwhile, "ran");
    }

    #[test]
    #[should_panic(expected = "client 1 gave up")]
    fn closed_loop_fails_the_run_when_a_client_panics() {
        closed_loop(2, 3, |client, i| assert!(client != 1 || i < 2, "client 1 gave up"), || ());
    }

    #[test]
    fn clients_scenario_stays_within_the_visit_bound() {
        // The visit bound is asserted inside every request.
        let runs = clients(0.2, 7, &[1, 3], 4);
        assert_eq!(runs.len(), 6);
        for run in &runs {
            assert_eq!(run.latencies.len(), run.clients * 4);
            assert!(run.latencies.windows(2).all(|w| w[0] <= w[1]));
            assert!(run.micros(50) <= run.micros(100));
        }
    }

    #[test]
    fn rebalance_scenario_lowers_the_max_site_load_under_readers() {
        let runs = rebalance(0.2, 7, &[2], 6);
        assert_eq!(runs.len(), 2);
        assert!(runs[0].rebalance.is_none(), "the idle run moves nothing");
        let pass = runs[1].rebalance.as_ref().expect("the mid-rebalance run reports its pass");
        assert!(!pass.ops.is_empty() && pass.report.is_some());
        assert!(pass.max_site_bytes_after < pass.max_site_bytes_before);
        // placement_version ≤ 1 is asserted inside every read.
        assert!(runs.iter().all(|run| run.latencies.len() == 12));
    }

    #[test]
    fn availability_scenario_completes_every_operation() {
        // Every read and update `expect`s success inside the run, calm or not.
        let runs = availability(0.05, 7, 48);
        assert_eq!(runs.iter().map(|run| run.series).collect::<Vec<_>>(), ["calm", "kill-revive"]);
        assert!(runs.iter().all(|run| run.latencies.len() == 48));
    }
}
