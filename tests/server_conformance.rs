//! Conformance suite for the `PaxServer` session API — the acceptance
//! criteria of the API redesign, asserted over random XMark workloads:
//!
//! * `Algorithm::{NaiveCentralized, PaX3, PaX2}` produce **bit-identical**
//!   answers through the server for every query, initially and after every
//!   update batch;
//! * the paper's visit bounds hold on **every** `ExecReport` (naive ≤ 1,
//!   PaX2 ≤ 2, PaX3 ≤ 3 — and a whole batch ≤ 2);
//! * one server handle interleaves `execute`, `execute_batch` and
//!   `apply_updates` in a single session;
//! * update rounds never visit a clean site, and a PaX2 re-execution after
//!   an update is served from the maintained cache with zero visits.

use paxml::prelude::*;
use paxml::xmark::{generate, UpdateWorkload, XmarkConfig};
use proptest::prelude::*;

const QUERIES: &[&str] = &[
    "/sites/site/people/person",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "//person[address/country=\"US\"]/name",
    "/sites/site/open_auctions//annotation",
    "//people/person/name",
    "/wrongroot/person",
];

const ALGORITHMS: [Algorithm; 3] = [Algorithm::NaiveCentralized, Algorithm::PaX3, Algorithm::PaX2];

fn server(
    algorithm: Algorithm,
    annotations: bool,
    fragmented: &FragmentedTree,
    sites: usize,
) -> PaxServer {
    PaxServer::builder()
        .algorithm(algorithm)
        .annotations(annotations && algorithm != Algorithm::NaiveCentralized)
        .placement(Placement::RoundRobin)
        .sites(sites)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// The per-algorithm visit bound, checked on every report.
fn visit_bound(algorithm: Algorithm) -> u32 {
    match algorithm {
        Algorithm::NaiveCentralized => 1,
        Algorithm::PaX2 => 2,
        Algorithm::PaX3 => 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn algorithms_agree_bit_for_bit_while_interleaving_queries_batches_and_updates(
        seed in 0u64..1000,
        site_subtrees in 1usize..3,
        sites in 2usize..6,
        use_annotations in prop::bool::ANY,
        rounds in 1usize..3,
        ops_per_batch in 1usize..5,
    ) {
        let tree = generate(XmarkConfig {
            site_count: site_subtrees,
            vmb_per_site: 0.2,
            seed,
            ..XmarkConfig::default()
        });
        let fragmented =
            strategy::cut_at_labels(&tree, &["site", "people", "open_auctions"]).unwrap();

        // One long-lived session per algorithm; every session sees the same
        // interleaving of work.
        let mut servers: Vec<(Algorithm, PaxServer)> = ALGORITHMS
            .iter()
            .map(|&a| (a, server(a, use_annotations, &fragmented, sites)))
            .collect();
        let mut prepared: Vec<Vec<PreparedQuery>> = Vec::new();
        for (_, s) in servers.iter_mut() {
            prepared.push(QUERIES.iter().map(|q| s.prepare(q).unwrap()).collect());
        }

        // Initial executions: bit-identical to from-scratch centralized
        // evaluation of the original document, bounds intact.
        for (qi, query) in QUERIES.iter().enumerate() {
            let mut expected = centralized::evaluate(&tree, query).unwrap().answers;
            expected.sort();
            for ((algorithm, s), qs) in servers.iter_mut().zip(&prepared) {
                let report = s.execute(&qs[qi]).unwrap();
                prop_assert_eq!(
                    report.answer_origins(), expected.clone(),
                    "{} differs from centralized on {}", algorithm, query
                );
                prop_assert!(
                    report.max_visits_per_site() <= visit_bound(*algorithm),
                    "{} broke its visit bound on {}", algorithm, query
                );
            }
        }

        // A batch through each session: per-query answers unchanged, the
        // PaX engines keep the whole batch within two visits.
        for (algorithm, s) in servers.iter_mut() {
            let batch = s.execute_batch_text(QUERIES).unwrap();
            prop_assert_eq!(batch.len(), QUERIES.len());
            if *algorithm != Algorithm::NaiveCentralized {
                prop_assert!(batch.max_visits_per_site() <= 2);
            }
            for (query, outcome) in QUERIES.iter().zip(&batch.queries) {
                let mut expected = centralized::evaluate(&tree, query).unwrap().answers;
                expected.sort();
                let mut origins: Vec<_> = outcome.answers.iter().map(|a| a.origin).collect();
                origins.sort();
                prop_assert_eq!(origins, expected, "{} batch differs on {}", algorithm, query);
            }
        }

        // Update batches: applied to every session identically (and to a
        // mirror for the from-scratch reference).
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), seed ^ 0xcd);
        for _ in 0..rounds {
            let batch = workload.next_batch(ops_per_batch, 2);
            if batch.is_empty() {
                continue;
            }
            for (algorithm, s) in servers.iter_mut() {
                let report = s.apply_updates(&batch).unwrap();
                let outcome = report.update.as_ref().unwrap();
                prop_assert!(outcome.rejected.is_empty(), "{}: {:?}", algorithm, outcome.rejected);
                prop_assert_eq!(outcome.applied_ops, batch.len());
                // The update round touches dirty sites only, once each.
                prop_assert_eq!(report.clean_site_visits(), 0, "{} visited a clean site", algorithm);
                prop_assert!(report.max_visits_per_site() <= 1);
            }

            // Post-update: every algorithm still agrees with a from-scratch
            // evaluation of the updated data — compared as (origin, label,
            // text) triples so a stale cached text is caught, not just a
            // wrong node set (naive relabels the fragment field, so the
            // full `AnswerItem` is not comparable across algorithms) — and
            // the PaX2 session serves its maintained cache without a
            // single visit.
            let keyed = |answers: &[AnswerItem]| -> Vec<(paxml::xml::NodeId, String, Option<String>)> {
                answers.iter().map(|a| (a.origin, a.label.clone(), a.text.clone())).collect()
            };
            for (qi, query) in QUERIES.iter().enumerate() {
                let expected = keyed(
                    server(Algorithm::PaX2, false, workload.mirror(), sites)
                        .query_once(query)
                        .unwrap()
                        .answers(),
                );
                for ((algorithm, s), qs) in servers.iter_mut().zip(&prepared) {
                    let report = s.execute(&qs[qi]).unwrap();
                    prop_assert_eq!(
                        keyed(report.answers()), expected.clone(),
                        "{} differs from from-scratch after updates on {}", algorithm, query
                    );
                    prop_assert!(report.max_visits_per_site() <= visit_bound(*algorithm));
                    if *algorithm == Algorithm::PaX2 {
                        prop_assert!(report.from_cache, "PaX2 cache went stale on {}", query);
                        prop_assert_eq!(
                            report.max_visits_per_site(), 0,
                            "post-update PaX2 re-execution must be visit-free"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// The compact-vector/arena kernel against a representation-independent
    /// reference: the naive *set-based* oracle of `paxml::xpath::semantics`
    /// shares no code with the bitset/arena evaluation passes (it never
    /// builds a vector or a formula), so agreement here pins the new kernel
    /// to the legacy semantics on random XMark workloads for all three
    /// algorithms.
    #[test]
    fn vector_kernel_matches_set_based_oracle_on_random_workloads(
        seed in 0u64..1000,
        site_subtrees in 1usize..3,
        sites in 2usize..6,
        use_annotations in prop::bool::ANY,
    ) {
        let tree = generate(XmarkConfig {
            site_count: site_subtrees,
            vmb_per_site: 0.2,
            seed,
            ..XmarkConfig::default()
        });
        let fragmented =
            strategy::cut_at_labels(&tree, &["site", "people", "open_auctions"]).unwrap();
        for query in QUERIES {
            let expected = paxml::xpath::semantics::oracle_eval(&tree, query).unwrap();
            for algorithm in ALGORITHMS {
                let s = server(algorithm, use_annotations, &fragmented, sites);
                let report = s.query_once(query).unwrap();
                prop_assert_eq!(
                    report.answer_origins(), expected.clone(),
                    "{} differs from the set-based oracle on {}", algorithm, query
                );
            }
        }
    }
}

#[test]
fn back_to_back_executions_report_per_execution_meters() {
    // The `&mut Deployment` stats footgun, asserted dead at the API level:
    // two consecutive executions over one session report the same visits
    // and bytes (not accumulated), with no reset call anywhere in sight.
    let tree = generate(XmarkConfig { site_count: 1, vmb_per_site: 0.2, ..Default::default() });
    let fragmented = strategy::cut_at_labels(&tree, &["site", "people"]).unwrap();
    for algorithm in ALGORITHMS {
        let s = server(algorithm, false, &fragmented, 4);
        let first = s.query_once("//people/person/name").unwrap();
        let second = s.query_once("//people/person/name").unwrap();
        assert!(first.max_visits_per_site() > 0);
        assert_eq!(
            first.max_visits_per_site(),
            second.max_visits_per_site(),
            "{algorithm}: visits accumulated across executions"
        );
        assert_eq!(first.network_bytes(), second.network_bytes());
        assert_eq!(first.rounds(), second.rounds());
        assert_eq!(first.answer_origins(), second.answer_origins());
    }
}
