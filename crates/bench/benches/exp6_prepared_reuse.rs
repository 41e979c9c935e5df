//! Experiment 6 (new in this repository, beyond the paper): prepared-query
//! reuse — the "fixed query, changing data" regime a long-lived
//! [`PaxServer`] session is built for.
//!
//! The same query is executed `N` times over one FT2 deployment, two ways:
//!
//! * **text path** — `N × PaxServer::query_once`: every execution re-lexes,
//!   re-parses, re-normalizes and re-compiles the query text, then runs the
//!   full two-visit PaX2 protocol;
//! * **prepared path** — one `PaxServer::prepare` plus `N ×
//!   PaxServer::execute`: the query is compiled once; the first execution
//!   snapshots the residual-vector cache (one visit per relevant site) and
//!   every further execution is served from it with **zero visits**.
//!
//! Before the timing runs, a report table prints the amortization directly:
//! compile work happens once instead of `N` times, and the visit/byte
//! meters of executions 2…N drop to zero.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paxml_core::{server::PaxServer, Algorithm};
use paxml_distsim::Placement;
use paxml_fragment::FragmentedTree;
use paxml_xmark::ft2;
use std::time::Duration;

const SEED: u64 = 42;
const SITES: usize = 10;
const VMB: f64 = 1.5;
const QUERY: &str =
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard";
const REPEATS: [usize; 3] = [4, 16, 64];

fn pax2_server(fragmented: &FragmentedTree) -> PaxServer {
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .placement(Placement::RoundRobin)
        .sites(SITES)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// Print the per-series totals for one repeat count — the compile-once /
/// visit-once amortization, stated in the simulator's own meters.
fn amortization_table() {
    let (_, fragmented) = ft2(VMB, SEED);
    println!("\nexp6: {QUERY}");
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "N", "text bytes", "prepared bytes", "text visits", "prep visits"
    );
    for &n in &REPEATS {
        let text_server = pax2_server(&fragmented);
        let mut text_bytes = 0u64;
        let mut text_visits = 0u32;
        for _ in 0..n {
            let report = text_server.query_once(QUERY).unwrap();
            text_bytes += report.network_bytes();
            text_visits += report.max_visits_per_site();
        }

        let prepared_server = pax2_server(&fragmented);
        let q = prepared_server.prepare(QUERY).unwrap();
        let mut prepared_bytes = 0u64;
        let mut prepared_visits = 0u32;
        for i in 0..n {
            let report = prepared_server.execute(&q).unwrap();
            prepared_bytes += report.network_bytes();
            prepared_visits += report.max_visits_per_site();
            assert_eq!(report.from_cache, i > 0, "only the first execution visits sites");
        }
        println!(
            "{:>8} {:>14} {:>14} {:>12} {:>12}",
            n, text_bytes, prepared_bytes, text_visits, prepared_visits
        );
    }
    println!();
}

fn prepared_vs_text(c: &mut Criterion) {
    amortization_table();

    let mut group = c.benchmark_group("exp6_prepared_reuse");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let (_, fragmented) = ft2(VMB, SEED);

    for &n in &REPEATS {
        group.throughput(Throughput::Elements(n as u64));

        let server = pax2_server(&fragmented);
        group.bench_with_input(BenchmarkId::new("text-path", n), &n, |b, &n| {
            b.iter(|| {
                for _ in 0..n {
                    server.query_once(QUERY).unwrap();
                }
            });
        });

        let server = pax2_server(&fragmented);
        let q = server.prepare(QUERY).unwrap();
        server.execute(&q).unwrap(); // populate the cache once, outside the loop
        group.bench_with_input(BenchmarkId::new("prepared", n), &n, |b, &n| {
            b.iter(|| {
                for _ in 0..n {
                    server.execute(&q).unwrap();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, prepared_vs_text);
criterion_main!(benches);
