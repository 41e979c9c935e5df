//! Process-level wire tests: sites are real OS processes running
//! `paxml site`, spawned from the compiled binary itself.
//!
//! Two properties are pinned here. First, the full cross-transport
//! conformance oracle on an XMark-style document: answers, visit counts
//! and byte counts over the socket transport are bit-identical to the
//! in-process simulator for all three algorithms, across single queries,
//! batches and update streams. Second, fault tolerance in the failure
//! model the paper assumes away: killing a site process produces a clean
//! `PaxError::SiteUnreachable` — no hang, no poisoned later rounds, and
//! sites that stayed up keep answering what they can.
//!
//! Every test body runs under a watchdog so a transport hang fails the
//! test instead of wedging the suite.

use paxml::core::RetryPolicy;
use paxml::prelude::*;
use paxml::wire::msg::{self, WireReply, WireRequest};
use paxml::wire::{ProcessCluster, SiteServer, TcpCluster};
use paxml_distsim::{ClusterStats, Placement, SiteId};
use paxml_xmark::{clientele_fragmentation, ft1, UpdateWorkload, PAPER_QUERIES};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

const BIN: &str = env!("CARGO_BIN_EXE_paxml");

fn assert_stats_match(sim: &ClusterStats, tcp: &ClusterStats, context: &str) {
    assert_eq!(sim.rounds, tcp.rounds, "{context}: rounds diverged");
    assert_eq!(sim.messages, tcp.messages, "{context}: messages diverged");
    assert_eq!(sim.total_ops, tcp.total_ops, "{context}: total_ops diverged");
    assert_eq!(sim.parallel_ops, tcp.parallel_ops, "{context}: parallel_ops diverged");
    assert_eq!(
        sim.sites.keys().collect::<Vec<_>>(),
        tcp.sites.keys().collect::<Vec<_>>(),
        "{context}: different sites were visited"
    );
    for (site, s) in &sim.sites {
        let t = &tcp.sites[site];
        assert_eq!(s.visits, t.visits, "{context}: visits diverged at {site:?}");
        assert_eq!(s.ops, t.ops, "{context}: ops diverged at {site:?}");
        assert_eq!(s.bytes_received, t.bytes_received, "{context}: req bytes at {site:?}");
        assert_eq!(s.bytes_sent, t.bytes_sent, "{context}: resp bytes at {site:?}");
    }
}

fn assert_reports_match(sim: &ExecReport, tcp: &ExecReport, context: &str) {
    assert_eq!(sim.queries.len(), tcp.queries.len(), "{context}: query count");
    for (qs, qt) in sim.queries.iter().zip(&tcp.queries) {
        assert_eq!(qs.answers, qt.answers, "{context}: answers diverged for {}", qs.query);
        assert_eq!(
            qs.fragments_evaluated, qt.fragments_evaluated,
            "{context}: fragments_evaluated diverged for {}",
            qs.query
        );
    }
    assert_stats_match(&sim.stats, &tcp.stats, context);
}

#[test]
fn xmark_workload_matches_simulator_across_processes() {
    with_watchdog(|| {
        // A small XMark-style tree: 6 fragments, ~a thousand nodes.
        let (tree, fragmented) = ft1(6, 0.01, 42);
        let sites = 3;
        for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX2, Algorithm::PaX3] {
            let sim = PaxServer::builder()
                .algorithm(algorithm)
                .sites(sites)
                .placement(Placement::RoundRobin)
                .deploy(&fragmented)
                .expect("deploy simulator");
            let cluster = ProcessCluster::spawn(BIN, &fragmented, sites, Placement::RoundRobin, 1)
                .expect("spawn site processes");
            let tcp = PaxServer::builder()
                .algorithm(algorithm)
                .deploy_over(&fragmented, cluster.transport.clone())
                .expect("deploy over processes");

            // Single queries from the paper's workload.
            // The tuple is `(label, query)` — run the queries, not the labels.
            let queries: Vec<&str> = PAPER_QUERIES.iter().map(|(_, q)| *q).collect();
            for query in &queries {
                let context = format!("{algorithm} {query}");
                let s = sim.query_once(query).expect("simulator query");
                let t = tcp.query_once(query).expect("TCP query");
                assert_reports_match(&s, &t, &context);
            }
            // One batch over the whole workload.
            let s = sim.execute_batch_text(&queries).expect("simulator batch");
            let t = tcp.execute_batch_text(&queries).expect("TCP batch");
            assert_reports_match(&s, &t, &format!("{algorithm} batch"));
            // Update rounds, then a re-execution over the updated document.
            let mut sim_load = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 9);
            let mut tcp_load = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 9);
            for round in 0..2 {
                let s = sim.apply_updates(&sim_load.next_batch(5, 2)).expect("simulator update");
                let t = tcp.apply_updates(&tcp_load.next_batch(5, 2)).expect("TCP update");
                assert_reports_match(&s, &t, &format!("{algorithm} update {round}"));
            }
            let s = sim.execute_text(queries[0]).expect("simulator re-exec");
            let t = tcp.execute_text(queries[0]).expect("TCP re-exec");
            assert_reports_match(&s, &t, &format!("{algorithm} post-update"));

            assert_stats_match(
                &sim.cumulative_stats(),
                &tcp.cumulative_stats(),
                &format!("{algorithm} cumulative"),
            );
        }
    });
}

/// A site process dies *mid-epoch-build*: the in-flight update must fail
/// with a clean `SiteUnreachable`, publish nothing — the current epoch is
/// unchanged — and readers pinned to the old epoch keep finishing from the
/// coordinator's cache the whole time, zero visits, answers intact.
#[test]
fn update_fails_mid_build_while_old_epoch_readers_finish_cleanly() {
    with_watchdog(|| {
        let (tree, fragmented) = clientele_fragmentation();
        let mut cluster = ProcessCluster::spawn(BIN, &fragmented, 3, Placement::RoundRobin, 1)
            .expect("spawn site processes");
        let server = Arc::new(
            PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .deploy_over(&fragmented, cluster.transport.clone())
                .expect("deploy"),
        );
        let query = server
            .prepare("client[country/text()='US']/broker[market/name/text()='NASDAQ']/name")
            .expect("prepare");
        // Warm the residual-vector cache: from here on this query re-executes
        // coordinator-side with zero site visits, dead site or not.
        let before = server.execute(&query).expect("warm the cache");
        assert_eq!(before.epoch, 0);
        assert!(!before.answer_texts().is_empty(), "workload sanity: answers exist");
        assert_eq!(server.execute(&query).expect("cached").max_visits_per_site(), 0);

        // Build an update batch, then kill one of the sites it must visit.
        let batch = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 11).next_batch(5, 3);
        let doomed = server.topology().site_of(batch[0].0);
        cluster.kill_site(doomed);

        // Readers on the old epoch run *through* the failing update.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = std::thread::spawn({
            let server = Arc::clone(&server);
            let query = query.clone();
            let expected = before.answer_texts();
            let done = Arc::clone(&done);
            move || {
                let mut observed = 0usize;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let report = server.execute(&query).expect("old-epoch read must not fail");
                    assert_eq!(report.epoch, 0, "a failed update must not publish an epoch");
                    assert_eq!(report.answer_texts(), expected);
                    observed += 1;
                }
                observed
            }
        });

        // The epoch build reaches the dead site and fails fast — twice, to
        // show the failure does not poison later update attempts either.
        for attempt in 0..2 {
            match server.apply_updates(&batch) {
                Err(PaxError::SiteUnreachable { site, .. }) => {
                    assert_eq!(site, doomed, "attempt {attempt}: wrong site blamed");
                }
                Err(other) => panic!("attempt {attempt}: expected SiteUnreachable, got {other}"),
                Ok(_) => panic!("attempt {attempt}: update succeeded over a dead site"),
            }
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "the reader never got to execute");

        // Nothing was published: epoch 0 is still current and still serves.
        assert_eq!(server.server_stats().current_epoch, 0);
        let after = server.execute(&query).expect("the old epoch still serves");
        assert_eq!(after.epoch, 0);
        assert_eq!(after.answer_texts(), before.answer_texts());
        assert_eq!(after.max_visits_per_site(), 0, "cached reads never touch the dead site");
    });
}

/// A site that *accepts* connections and answers the handshake but never
/// replies to a round — the nastiest failure shape, because the socket
/// looks healthy until a read blocks on it forever.
fn spawn_hung_site() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the hung site");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || loop {
                let Ok(request) = msg::recv::<WireRequest>(&mut stream) else { return };
                let reply = match request {
                    WireRequest::Hello { site } => WireReply::Hello { site },
                    WireRequest::Load { fragments } => {
                        WireReply::Loaded { fragments: fragments.len() }
                    }
                    // Swallow everything else — rounds, probes, shutdowns —
                    // without ever writing a byte back.
                    _ => continue,
                };
                if msg::send(&mut stream, &reply).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

/// A hung site must trip the configured read deadline (not the 30 s
/// default, and never a hang), surface as a *transient* unreachable error
/// naming the peer and the in-flight operation — and with a second replica
/// per fragment, failover must then answer bit-identically to a fault-free
/// deployment.
#[test]
fn a_hung_site_trips_the_deadline_and_fails_over() {
    with_watchdog(|| {
        let (_tree, fragmented) = clientele_fragmentation();
        let query = "client[country/text()='US']/broker[market/name/text()='NASDAQ']/name";

        // The fault-free reference: same fragments, same replication, on
        // the in-process simulator.
        let reference = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .sites(3)
            .placement(Placement::RoundRobin)
            .replication(2)
            .deploy(&fragmented)
            .expect("deploy the reference");
        let expected =
            reference.query_once(query).expect("reference answers").queries[0].answers.clone();
        assert!(!expected.is_empty(), "workload sanity: answers exist");

        // Site 0 hangs; sites 1 and 2 are real in-process site servers.
        // Under round-robin ×2 replication every fragment with its primary
        // on the hung site keeps a live copy on S1.
        let hung_addr = spawn_hung_site();
        let mut addrs = vec![hung_addr];
        for _ in 0..2 {
            let site = SiteServer::bind("127.0.0.1:0").expect("bind a site");
            addrs.push(site.local_addr().expect("site addr"));
            std::thread::spawn(move || {
                let _ = site.run();
            });
        }
        let replicas = Placement::RoundRobin.replica_sets(&fragmented, addrs.len(), 2);
        let read_timeout = Duration::from_millis(300);
        let transport = Arc::new(
            TcpCluster::connect_with_replicas(&fragmented, &addrs, replicas, read_timeout)
                .expect("connect (the hung site still answers the handshake)"),
        );

        // One attempt, no failover: the deadline itself is under test.
        let strict = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() })
            .deploy_over(&fragmented, transport.clone())
            .expect("deploy the single-attempt server");
        let started = Instant::now();
        let err = strict.query_once(query).expect_err("a hung site must fail the round");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "the 300 ms deadline should have fired, not hung for {elapsed:?}"
        );
        assert!(err.is_transient(), "a tripped read deadline is transient weather: {err}");
        match &err {
            PaxError::SiteUnreachable { site, detail } => {
                assert_eq!(*site, SiteId(0), "the hung site takes the blame");
                assert!(
                    detail.contains(&hung_addr.to_string()),
                    "the error names the peer: {detail}"
                );
                assert!(
                    detail.contains("reply") || detail.contains("sending"),
                    "the error names the in-flight operation: {detail}"
                );
            }
            other => panic!("expected SiteUnreachable, got {other}"),
        }

        // Same transport, failover enabled: the retry quarantines the hung
        // site, re-routes every fragment to its surviving replica, and the
        // answers match the fault-free reference bit for bit.
        let server = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .deploy_over(&fragmented, transport)
            .expect("deploy the failover server");
        let report = server.query_once(query).expect("failover must answer");
        assert_eq!(
            report.queries[0].answers, expected,
            "failover answers must be bit-identical to the fault-free run"
        );
    });
}

#[test]
fn killed_site_reports_unreachable_without_hanging() {
    with_watchdog(|| {
        let (_tree, fragmented) = clientele_fragmentation();
        let mut cluster = ProcessCluster::spawn(BIN, &fragmented, 3, Placement::RoundRobin, 1)
            .expect("spawn site processes");
        let transport = cluster.transport.clone();
        let server = PaxServer::builder()
            .algorithm(Algorithm::PaX3)
            .deploy_over(&fragmented, transport)
            .expect("deploy");
        let query = "//broker[//stock/code/text()='GOOG']/name";

        // Healthy first: the cluster answers.
        let before = server.query_once(query).expect("query before the fault");
        assert!(!before.queries[0].answers.is_empty(), "workload sanity: answers exist");

        // Kill one site's process outright.
        cluster.kill_site(SiteId(1));

        // Every subsequent round that addresses the dead site must fail
        // fast with SiteUnreachable — and keep failing cleanly, round
        // after round, rather than hanging or corrupting the transport.
        for attempt in 0..3 {
            match server.query_once(query) {
                Err(PaxError::SiteUnreachable { site, .. }) => {
                    assert_eq!(site, SiteId(1), "attempt {attempt}: wrong site blamed");
                }
                Err(other) => panic!("attempt {attempt}: expected SiteUnreachable, got {other}"),
                Ok(_) => panic!("attempt {attempt}: query succeeded over a dead site"),
            }
        }

        // Reconnecting over only the surviving processes still works: the
        // fault took down one site, not the cluster. Fragments reroute to
        // the two sites that stayed up.
        let all_addrs: Vec<_> = cluster.addresses().collect();
        let survivor_addrs = [all_addrs[0], all_addrs[2]];
        let survivors = fragmented
            .fragment_tree
            .ids()
            .iter()
            .map(|&id| (id, if id.index() == 0 { SiteId(0) } else { SiteId(1) }.into()))
            .collect();
        let read_timeout = Duration::from_secs(30);
        let rerouted = Arc::new(
            TcpCluster::connect_with_replicas(
                &fragmented,
                &survivor_addrs,
                survivors,
                read_timeout,
            )
            .expect("reconnect to survivors"),
        );
        let rerouted_server = PaxServer::builder()
            .algorithm(Algorithm::PaX3)
            .deploy_over(&fragmented, rerouted)
            .expect("deploy over survivors");
        let after = rerouted_server.query_once(query).expect("survivors still answer");
        assert_eq!(
            before.queries[0].answers, after.queries[0].answers,
            "the surviving sites must produce the same answers"
        );
    });
}
