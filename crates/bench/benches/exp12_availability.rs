//! Experiment 12 (new in this repository, beyond the paper): availability
//! under a deterministic kill-and-revive schedule.
//!
//! The paper assumes sites never fail. This experiment measures what the
//! replicated deployment buys when they do: a `replication = 2` PaX2
//! server runs a closed-loop read/update mix while a scripted [`FaultPlan`]
//! kills one site for a window of rounds, revives it, then kills a
//! *different* site — the worst single-failure weather a 2-replica
//! placement must absorb. The contract under test:
//!
//! * **zero client-visible errors** — every read and every update batch
//!   must complete (the failover path retries, quarantines the victim and
//!   re-routes to the surviving replica);
//! * **bounded degradation** — the run's throughput and p50/p99 operation
//!   latencies are printed next to a fault-free run of the same workload,
//!   so the cost of a kill window (one retry backoff plus re-routing)
//!   is a number, not a hope.
//!
//! A report table prints both profiles before the timed Criterion groups
//! run; the timed groups then pin the wall-clock of the whole workload in
//! calm and chaotic weather.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paxml_core::{server::PaxServer, Algorithm, RetryPolicy};
use paxml_distsim::{FaultEvent, FaultKind, FaultPlan, Placement, SiteId};
use paxml_xmark::{ft1, UpdateWorkload, PAPER_QUERIES};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const SITES: usize = 3;
const FRAGMENTS: usize = 6;
const VMB: f64 = 0.05;
/// Closed-loop operations per run: reads with one update batch every
/// eighth operation.
const OPS: usize = 48;

/// The schedule: S1 dies early and revives, then — much later — S2 dies
/// and revives. The gap is deliberate: between the windows the health
/// tracker must re-probe and readmit S1 and an update's repair pass must
/// re-ship its stale copies, so that when S2 goes down every fragment
/// still has a live, current replica.
fn kill_and_revive_schedule() -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent { site: SiteId(1), from_round: 6, to_round: 14, kind: FaultKind::Kill },
        FaultEvent { site: SiteId(2), from_round: 60, to_round: 68, kind: FaultKind::Kill },
    ])
}

/// One closed-loop run; every operation must succeed. Returns the total
/// wall clock and each operation's latency.
fn availability_run(plan: Option<FaultPlan>) -> (Duration, Vec<Duration>) {
    let (tree, fragmented) = ft1(FRAGMENTS, VMB, SEED);
    let server = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(SITES)
        .placement(Placement::RoundRobin)
        .replication(2)
        // In-process probes are free, so re-check quarantined sites almost
        // immediately — a revived site rejoins within one operation.
        .retry_policy(RetryPolicy {
            probe_cooldown: Duration::from_millis(1),
            ..RetryPolicy::default()
        })
        .deploy(&fragmented)
        .expect("deploy the replicated server");
    if let Some(plan) = plan {
        server.deployment().set_fault_plan(Some(plan));
    }
    let queries: Vec<&str> = PAPER_QUERIES.iter().map(|(_, q)| *q).collect();
    let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 7);
    let mut latencies = Vec::with_capacity(OPS);
    let started = Instant::now();
    for i in 0..OPS {
        let issued = Instant::now();
        if i % 8 == 7 {
            server
                .apply_updates(&workload.next_batch(3, 2))
                .expect("updates must survive the kill schedule");
        } else {
            // query_once: uncached, so every read pays its site rounds and
            // the fault clock keeps ticking through the schedule.
            server
                .query_once(queries[i % queries.len()])
                .expect("reads must survive the kill schedule");
        }
        latencies.push(issued.elapsed());
    }
    (started.elapsed(), latencies)
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Print calm vs chaotic throughput and latency side by side.
fn availability_table() {
    println!(
        "\nexp12: {OPS} closed-loop ops (7 reads : 1 update batch), FT1×{FRAGMENTS} on \
         {SITES} sites ×2 replicas, kill S1@[6,14] then S2@[60,68] (round ticks)"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "series", "ops/s", "p50(us)", "p99(us)", "max(us)"
    );
    for (label, plan) in [("calm", None), ("kill-revive", Some(kill_and_revive_schedule()))] {
        let (wall, mut latencies) = availability_run(plan);
        latencies.sort();
        println!(
            "{:<12} {:>10.0} {:>12.1} {:>12.1} {:>12.1}",
            label,
            OPS as f64 / wall.as_secs_f64(),
            percentile(&latencies, 50).as_secs_f64() * 1e6,
            percentile(&latencies, 99).as_secs_f64() * 1e6,
            latencies.last().expect("latencies recorded").as_secs_f64() * 1e6,
        );
    }
    println!();
}

fn availability_bench(c: &mut Criterion) {
    availability_table();

    let mut group = c.benchmark_group("exp12_availability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("workload-calm", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += availability_run(None).0;
            }
            total
        });
    });
    group.bench_function("workload-kill-revive", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += availability_run(Some(kill_and_revive_schedule())).0;
            }
            total
        });
    });
    group.finish();
}

criterion_group!(benches, availability_bench);
criterion_main!(benches);
