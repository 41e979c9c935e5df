//! Epoch-versioned snapshot guarantees, proven three ways.
//!
//! The server's concurrency model (see `paxml-core::server`) promises that
//! updates and reads never wait on each other: every execution pins one
//! immutable deployment **epoch** on entry, an update builds the next epoch
//! concurrently and publishes it with a single pointer swap, and dead
//! epochs retire once their last pinned execution drops. This suite pins
//! each leg of that promise:
//!
//! * **linearized snapshots** — under random interleavings of executions,
//!   batches and update streams across threads, every answer is
//!   bit-identical to a serial replay of the exact epoch the report
//!   says it pinned — never a torn pre/post mix (property test);
//! * **wait-freedom** — a reader completes executions *while* a
//!   deliberately slowed update is in flight, instead of queueing behind
//!   it (regression test against the old writer-exclusive gate);
//! * **no epoch leaks** — after a hundred epochs of churn with overlapping
//!   readers, the live-epoch count, per-site fragment version counts and
//!   coordinator cache bytes all return to steady state.

use paxml::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The document the generation-flip workload runs over: three brokers,
/// fragmented at the `broker` boundary so one update batch spans several
/// fragments on several sites.
fn clientele() -> XmlTree {
    parse_xml(
        "<clientele>\
           <client><country>US</country><broker><name>Etrade</name></broker></client>\
           <client><country>US</country><broker><name>Bache</name></broker></client>\
           <client><country>Canada</country><broker><name>CIBC</name></broker></client>\
         </clientele>",
    )
    .unwrap()
}

/// Text edits renaming every broker to `broker-{suffix}` — one op per
/// broker fragment, so a torn read shows up as a mixed-suffix answer set.
fn rename_ops(fragmented: &FragmentedTree, suffix: &str) -> Vec<(FragmentId, UpdateOp)> {
    let mut ops = Vec::new();
    for fragment in &fragmented.fragments {
        if fragment.root_label != "broker" {
            continue;
        }
        let name = fragment.tree.find_first("name").unwrap();
        let text = fragment.tree.children(name).next().unwrap();
        ops.push((
            fragment.id,
            UpdateOp::EditText { node: text, text: format!("broker-{suffix}") },
        ));
    }
    ops
}

/// Answers of `query` over `fragmented` on an idle server, one at a time —
/// the reference every pinned-epoch read must match bit-for-bit.
fn serial_replay(fragmented: &FragmentedTree, query: &str) -> Vec<String> {
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(3)
        .deploy(fragmented)
        .unwrap()
        .query_once(query)
        .unwrap()
        .answer_texts()
}

const EPOCH_QUERIES: [&str; 2] = ["//broker/name", "client[country/text()='US']/broker/name"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random interleavings of prepared executions, batches and update
    /// streams across threads: every report's answers equal a serial
    /// replay of the epoch it pinned. Expected answers for every epoch are
    /// precomputed against a mirror before any concurrency starts, so each
    /// read is checked against the one legal snapshot for its epoch — a
    /// pre/post mix within one execution can never pass.
    #[test]
    fn answers_match_a_serial_replay_of_the_pinned_epoch(
        generations in 2u64..6,
        reader_count in 2usize..5,
        use_batches in any::<bool>(),
    ) {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();

        // expected[e][q] = the answers of EPOCH_QUERIES[q] at epoch e;
        // ops[g - 1] is the batch that takes epoch g - 1 to epoch g.
        let mut mirror = fragmented.clone();
        let mut expected: Vec<Vec<Vec<String>>> = Vec::new();
        let mut ops: Vec<Vec<(FragmentId, UpdateOp)>> = Vec::new();
        expected.push(EPOCH_QUERIES.iter().map(|q| serial_replay(&mirror, q)).collect());
        for generation in 1..=generations {
            let batch = rename_ops(&mirror, &format!("g{generation}"));
            for (fragment, op) in &batch {
                paxml_fragment::apply_update(&mut mirror.fragments[fragment.index()], op)
                    .unwrap();
            }
            ops.push(batch);
            expected.push(EPOCH_QUERIES.iter().map(|q| serial_replay(&mirror, q)).collect());
        }

        let server = Arc::new(
            PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .sites(3)
                .deploy(&fragmented)
                .unwrap(),
        );
        let prepared: Vec<PreparedQuery> =
            EPOCH_QUERIES.iter().map(|q| server.prepare(q).unwrap()).collect();

        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..reader_count)
            .map(|reader| {
                let server = Arc::clone(&server);
                let prepared = prepared.clone();
                let expected = expected.clone();
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut observed = 0usize;
                    // Read first, then look at `done`: the writer may publish
                    // every generation before this thread is scheduled.
                    loop {
                        if use_batches && (reader + observed).is_multiple_of(3) {
                            let report = server.execute_batch(&prepared).unwrap();
                            let epoch = report.epoch as usize;
                            for (q, outcome) in report.queries.iter().enumerate() {
                                let texts: Vec<String> = outcome
                                    .answers
                                    .iter()
                                    .filter_map(|a| a.text.clone())
                                    .collect();
                                assert_eq!(
                                    texts, expected[epoch][q],
                                    "batch read of {:?} diverged from the serial \
                                     replay of its pinned epoch {epoch}",
                                    EPOCH_QUERIES[q]
                                );
                            }
                        } else {
                            let q = (reader + observed) % prepared.len();
                            let report = server.execute(&prepared[q]).unwrap();
                            let epoch = report.epoch as usize;
                            assert_eq!(
                                report.answer_texts(),
                                expected[epoch][q],
                                "read of {:?} diverged from the serial replay of \
                                 its pinned epoch {epoch}",
                                EPOCH_QUERIES[q]
                            );
                        }
                        observed += 1;
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    observed
                })
            })
            .collect();

        // The writer publishes one epoch per generation, concurrently with
        // every reader above.
        for (generation, batch) in ops.iter().enumerate() {
            let update = server.apply_updates(batch).unwrap();
            prop_assert_eq!(update.epoch, generation as u64 + 1, "update must publish epoch");
        }
        done.store(true, Ordering::Relaxed);
        for reader in readers {
            let observed = reader.join().unwrap();
            prop_assert!(observed > 0, "a reader never got to execute");
        }
        prop_assert_eq!(server.server_stats().current_epoch, generations);
    }
}

/// The wait-freedom regression: with a test-only hook holding the update
/// in flight for half a second *after* it has visited the dirty sites but
/// *before* it publishes, a reader must keep completing executions — each
/// pinned to the old epoch — instead of queueing behind the writer the way
/// the old writer-exclusive gate forced it to.
#[test]
fn reader_completes_executions_while_a_slowed_update_is_in_flight() {
    let tree = clientele();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    let server = Arc::new(
        PaxServer::builder().algorithm(Algorithm::PaX2).sites(3).deploy(&fragmented).unwrap(),
    );
    let query = server.prepare("//broker/name").unwrap();
    let before = server.execute(&query).unwrap();
    assert_eq!(before.epoch, 0);

    let in_build = Arc::new(AtomicBool::new(false));
    server.set_update_hook({
        let in_build = Arc::clone(&in_build);
        move || {
            in_build.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(500));
        }
    });

    let update_done = Arc::new(AtomicBool::new(false));
    let writer = thread::spawn({
        let server = Arc::clone(&server);
        let update_done = Arc::clone(&update_done);
        let ops = rename_ops(&fragmented, "next");
        move || {
            let report = server.apply_updates(&ops).unwrap();
            update_done.store(true, Ordering::SeqCst);
            report
        }
    });

    // Wait (bounded) for the writer to reach the slow window.
    let entered = Instant::now();
    while !in_build.load(Ordering::SeqCst) {
        assert!(entered.elapsed() < Duration::from_secs(30), "the update never started");
        thread::yield_now();
    }

    // The update is now provably in flight; a wait-free reader completes
    // executions against its pinned epoch. Under the old gate, the first
    // execute here would block until the writer finished and this counter
    // would still be zero when `update_done` flips.
    let mut completed_in_flight = 0usize;
    while !update_done.load(Ordering::SeqCst) {
        let report = server.execute(&query).unwrap();
        match report.epoch {
            0 => {
                assert_eq!(report.answer_texts(), before.answer_texts());
                completed_in_flight += 1;
            }
            // The swap happened between the flag check and the pin; from
            // here on reads legitimately see the new epoch.
            1 => assert_eq!(report.answer_texts(), vec!["broker-next".to_string(); 3]),
            other => panic!("impossible epoch {other}"),
        }
    }
    assert!(
        completed_in_flight > 0,
        "no execution completed while the update was in flight: readers blocked on the writer"
    );

    let update = writer.join().unwrap();
    assert_eq!(update.epoch, 1, "the slowed update must still publish its epoch");
    server.clear_update_hook();

    let after = server.execute(&query).unwrap();
    assert_eq!(after.epoch, 1);
    assert_eq!(after.answer_texts(), vec!["broker-next".to_string(); 3]);
}

/// A hundred epochs of churn with overlapping readers must not leak: once
/// the readers drain and a vacuum sweeps the sites, exactly one epoch is
/// live, every site is back to one version per fragment, and the
/// coordinator's cached-vector bytes match the single-epoch baseline.
#[test]
fn epoch_churn_retires_back_to_steady_state() {
    let tree = clientele();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    let server = Arc::new(
        PaxServer::builder().algorithm(Algorithm::PaX2).sites(3).deploy(&fragmented).unwrap(),
    );
    let query = server.prepare("//broker/name").unwrap();
    server.execute(&query).unwrap();

    let site_versions = |server: &PaxServer| -> usize {
        let cluster = server.deployment().cluster().expect("simulator deployment");
        cluster
            .occupied_sites()
            .into_iter()
            .map(|site| cluster.inspect_site(site).version_count())
            .sum()
    };

    // Baseline: one update applied and swept, cache warm. Suffixes are
    // fixed-width so the cached answer *content* keeps a constant byte
    // size — any growth in `session_cache_bytes` is then a real leak, not
    // longer broker names.
    let mut mirror = fragmented.clone();
    let warmup = rename_ops(&mirror, "g001");
    for (fragment, op) in &warmup {
        paxml_fragment::apply_update(&mut mirror.fragments[fragment.index()], op).unwrap();
    }
    server.apply_updates(&warmup).unwrap();
    server.execute(&query).unwrap();
    server.vacuum().unwrap();
    let baseline = server.server_stats();
    let baseline_versions = site_versions(&server);
    assert_eq!(baseline.live_epochs, 1, "baseline: only the current epoch is live");
    assert!(baseline.session_cache_bytes > 0, "baseline: the prepared query is cached");
    assert_eq!(
        baseline_versions,
        fragmented.fragments.len(),
        "baseline: one live version per fragment"
    );

    // Churn: 100 more epochs while readers overlap every publish.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let server = Arc::clone(&server);
            let query = query.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let report = server.execute(&query).unwrap();
                    let suffixes: BTreeSet<String> = report
                        .answer_texts()
                        .iter()
                        .map(|t| t.trim_start_matches("broker-").to_string())
                        .collect();
                    assert_eq!(suffixes.len(), 1, "torn read during churn");
                }
            })
        })
        .collect();
    for generation in 2..=101u32 {
        let batch = rename_ops(&mirror, &format!("g{generation:03}"));
        for (fragment, op) in &batch {
            paxml_fragment::apply_update(&mut mirror.fragments[fragment.index()], op).unwrap();
        }
        server.apply_updates(&batch).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }

    // Drain: with no pinned readers left, one sweep returns every meter to
    // the baseline.
    server.execute(&query).unwrap();
    server.vacuum().unwrap();
    let stats = server.server_stats();
    assert_eq!(stats.current_epoch, 101);
    assert_eq!(stats.live_epochs, 1, "retired epochs must not stay live: epochs leaked");
    assert_eq!(stats.retired_epochs, 101);
    assert_eq!(
        stats.session_cache_bytes, baseline.session_cache_bytes,
        "cached-vector bytes grew across epoch churn"
    );
    assert_eq!(
        site_versions(&server),
        baseline_versions,
        "superseded fragment versions survived the vacuum"
    );
}
