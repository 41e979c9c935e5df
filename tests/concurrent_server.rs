//! Concurrent-serving conformance: many client threads over one
//! `Arc<PaxServer>`, with fragment updates interleaved.
//!
//! What the server promises (see the `paxml-core::server` module docs):
//!
//! * **bit-identical answers** — a query executed concurrently with other
//!   queries returns exactly what it returns on an otherwise idle server;
//! * **no torn reads** — an execution interleaved with `apply_updates`
//!   observes either the pre-update or the post-update answers as a whole,
//!   never a mix of the two (an execution pins one deployment epoch on
//!   entry and reads it for its entire protocol);
//! * **race-free meters** — every `ExecReport` carries exactly its own
//!   execution's counters, and two `cumulative_stats()` snapshots
//!   bracketing a set of concurrent executions delta to precisely the sum
//!   of those executions' recorders.
//!
//! These are loom-free stress tests: they rely on real threads hammering
//! the real worker pool, with enough iterations that an unsynchronized
//! read-during-update or crossed response channel fails deterministically
//! in practice.

use paxml::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// The two-client document the torn-read test flips between two states.
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

/// The text-edit ops that move every broker fragment to `suffix` (one op
/// per broker fragment — a multi-fragment, multi-site update batch, so a
/// torn read would be observable as a mixed-suffix answer set).
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

/// Readers hammer `//broker/name` while a writer flips *every* broker name
/// between generations. Every observed answer set must be one whole
/// generation — `{broker-gK} × 3` — never a mix of two: an execution reads
/// the one epoch it pinned on entry, so it sees pre-update or post-update
/// fragments, not both.
#[test]
fn interleaved_updates_never_produce_torn_reads() {
    let tree = clientele();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    let server = Arc::new(
        PaxServer::builder().algorithm(Algorithm::PaX2).sites(3).deploy(&fragmented).unwrap(),
    );
    let query = server.prepare("//broker/name").unwrap();
    // Generation 0, applied through the server so the test controls every
    // name the readers can legally observe.
    server.apply_updates(&rename_ops(&fragmented, "g0")).unwrap();

    let generations = 30;
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let query = query.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut observed = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let texts = server.execute(&query).unwrap().answer_texts();
                    assert_eq!(texts.len(), 3, "an answer went missing mid-update");
                    let suffixes: BTreeSet<&str> =
                        texts.iter().map(|t| t.as_str().trim_start_matches("broker-")).collect();
                    assert_eq!(
                        suffixes.len(),
                        1,
                        "torn read: one execution saw brokers of two generations: {texts:?}"
                    );
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    // The writer: after each generation, the server's answer must be
    // bit-identical to a from-scratch serial replay over a mirror of
    // the updated fragments.
    let mut mirror = fragmented.clone();
    for generation in 1..=generations {
        let ops = rename_ops(&mirror, &format!("g{generation}"));
        for (fragment, op) in &ops {
            paxml_fragment::apply_update(&mut mirror.fragments[fragment.index()], op).unwrap();
        }
        let update = server.apply_updates(&ops).unwrap();
        assert_eq!(update.clean_site_visits(), 0);

        let replay =
            PaxServer::builder().algorithm(Algorithm::PaX2).sites(3).deploy(&mirror).unwrap();
        let expected = replay.query_once("//broker/name").unwrap();
        let observed = server.execute(&query).unwrap();
        assert_eq!(
            observed.answer_texts(),
            expected.answer_texts(),
            "post-update answers diverged from the serial replay at generation {generation}"
        );
        assert_eq!(observed.answer_origins(), expected.answer_origins());
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        let observed = reader.join().unwrap();
        assert!(observed > 0, "a reader never got to execute");
    }
}

/// Every algorithm, executed from many threads at once (mixing prepared,
/// batch and one-shot paths), answers bit-identically to a server serving
/// one query at a time over the same fragmentation.
#[test]
fn concurrent_executions_are_bit_identical_to_serial_ones() {
    let tree = clientele();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    let queries = [
        "client/broker/name",
        "client[country/text()='US']/broker/name",
        "//name",
        "client[not(country/text()='US')]/broker/name",
    ];
    for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX3, Algorithm::PaX2] {
        // The reference: one server, one query at a time.
        let serial =
            PaxServer::builder().algorithm(algorithm).sites(3).deploy(&fragmented).unwrap();
        let expected: Vec<Vec<String>> =
            queries.iter().map(|q| serial.query_once(q).unwrap().answer_texts()).collect();

        let server = Arc::new(
            PaxServer::builder().algorithm(algorithm).sites(3).deploy(&fragmented).unwrap(),
        );
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let server = Arc::clone(&server);
                let expected = expected.clone();
                thread::spawn(move || {
                    for round in 0..6 {
                        for (i, query) in queries.iter().enumerate() {
                            let texts = match (client + round) % 3 {
                                0 => server.execute_text(query).unwrap().answer_texts(),
                                1 => server.query_once(query).unwrap().answer_texts(),
                                _ => {
                                    let batch = server.execute_batch_text(&queries).unwrap();
                                    batch.queries[i]
                                        .answers
                                        .iter()
                                        .filter_map(|a| a.text.clone())
                                        .collect()
                                }
                            };
                            assert_eq!(
                                texts, expected[i],
                                "{algorithm} diverged on {query} under concurrency"
                            );
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
    }
}

/// `ClusterStats::delta_since` stays accurate when the counters grow from
/// many threads at once: the delta between two cumulative snapshots equals
/// the merge of every concurrent execution's own recorder.
#[test]
fn delta_since_is_accurate_under_concurrent_executions() {
    let tree = clientele();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX2] {
        let server = Arc::new(
            PaxServer::builder().algorithm(algorithm).sites(3).deploy(&fragmented).unwrap(),
        );
        let baseline = server.cumulative_stats();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let server = Arc::clone(&server);
                thread::spawn(move || {
                    let mut mine = paxml::distsim::ClusterStats::default();
                    for _ in 0..10 {
                        let report = server.query_once("client/broker/name").unwrap();
                        mine.merge(&report.stats);
                    }
                    mine
                })
            })
            .collect();
        let mut merged = paxml::distsim::ClusterStats::default();
        for client in clients {
            merged.merge(&client.join().unwrap());
        }
        let delta = server.cumulative_stats().delta_since(&baseline);
        assert_eq!(delta.rounds, merged.rounds, "{algorithm}: round counters tore");
        assert_eq!(delta.messages, merged.messages);
        assert_eq!(delta.total_ops, merged.total_ops);
        assert_eq!(delta.total_bytes(), merged.total_bytes());
        for (site, stats) in &delta.sites {
            assert_eq!(
                stats.visits, merged.sites[site].visits,
                "{algorithm}: visit counters tore at {site}"
            );
        }
    }
}
