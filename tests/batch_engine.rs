//! End-to-end tests of batched execution through the `PaxServer` API: for
//! random XMark workloads (random documents, fragmentations, deployments and
//! query subsets), `execute_batch` must return exactly the per-query PaX2
//! answers while holding the paper's two-visit bound for the *whole batch*.

use paxml::prelude::*;
use paxml::xmark::{generate, XmarkConfig, PAPER_QUERIES};
use proptest::prelude::*;

/// The query pool batches are drawn from: the paper's four experiment
/// queries plus dashboard-style variations covering qualifiers, negation,
/// descendant axes and wildcards.
const QUERY_POOL: &[&str] = &[
    "/sites/site/people/person",
    "/sites/site/open_auctions//annotation",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites/site/people/person/name",
    "//person[address/country=\"US\"]/name",
    "//person[not(address/country=\"US\")]/address/city",
    "//open_auctions/auction/bidder/increase",
    "/sites/site/regions//item[quantity > 5]/name",
    "*/*/person/emailaddress",
    "//annotation/description/text",
    "/wrongroot/person",
];

fn workload_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::sample::select(QUERY_POOL.to_vec()), 1..12)
        .prop_map(|queries| queries.into_iter().map(String::from).collect())
}

fn pax2_server(fragmented: &FragmentedTree, sites: usize, annotations: bool) -> PaxServer {
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .annotations(annotations)
        .placement(Placement::RoundRobin)
        .sites(sites)
        .deploy(fragmented)
        .expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn batch_answers_equal_per_query_answers_on_random_xmark_workloads(
        seed in 0u64..1_000,
        site_subtrees in 1usize..4,
        sites in 1usize..8,
        cut_depth in 0usize..3,
        queries in workload_strategy(),
        use_annotations in prop::bool::ANY,
    ) {
        let tree = generate(XmarkConfig {
            site_count: site_subtrees,
            vmb_per_site: 0.15,
            seed,
            ..XmarkConfig::default()
        });
        // Random fragmentation granularity: site subtrees, then sections,
        // then entities.
        let labels: &[&str] = match cut_depth {
            0 => &["site"],
            1 => &["site", "people", "open_auctions"],
            _ => &["site", "people", "person", "auction", "item"],
        };
        let fragmented = strategy::cut_at_labels(&tree, labels).expect("valid label cuts");

        let server = pax2_server(&fragmented, sites, use_annotations);
        let batch = server.execute_batch_text(&queries).unwrap();

        // The whole batch respects PaX2's per-site visit bound.
        prop_assert!(
            batch.max_visits_per_site() <= 2,
            "batch of {} queries took {} visits on some site",
            queries.len(),
            batch.max_visits_per_site()
        );
        prop_assert!(batch.rounds() <= 2);

        // Per-query answers match an independent single-query evaluation.
        prop_assert_eq!(batch.len(), queries.len());
        for (query, outcome) in queries.iter().zip(&batch.queries) {
            let single = pax2_server(&fragmented, sites, use_annotations);
            let expected = single.query_once(query).unwrap();
            let mut origins: Vec<_> = outcome.answers.iter().map(|a| a.origin).collect();
            origins.sort();
            prop_assert_eq!(
                origins,
                expected.answer_origins(),
                "batch disagrees with PaX2 on {} (XA={}, seed={})",
                query, use_annotations, seed
            );
        }
    }
}

#[test]
fn pax2_batch_of_paper_queries_needs_at_most_two_visits_per_site() {
    // The acceptance check, spelled out: a PaX2 batch of N queries over one
    // deployment performs at most 2 visits per site *in total*.
    let tree = generate(XmarkConfig { site_count: 2, vmb_per_site: 0.5, ..Default::default() });
    let fragmented = strategy::cut_at_labels(&tree, &["site", "people", "open_auctions"]).unwrap();
    let queries: Vec<&str> = PAPER_QUERIES.iter().map(|(_, q)| *q).collect();
    let server = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(6)
        .placement(Placement::RoundRobin)
        .deploy(&fragmented)
        .unwrap();
    let batch = server.execute_batch_text(&queries).unwrap();
    assert_eq!(batch.len(), queries.len());
    assert!(batch.total_answers() > 0, "the paper queries select data");
    assert!(
        batch.max_visits_per_site() <= 2,
        "PaX2 batch exceeded two visits per site: {}",
        batch.max_visits_per_site()
    );
    // And the batch beats one-at-a-time on every amortizable meter — the
    // one-at-a-time runs reuse the *same* server, whose per-execution
    // reports need no reset bookkeeping.
    let mut rounds = 0;
    for query in &queries {
        let report = server.query_once(query).unwrap();
        assert!(report.max_visits_per_site() <= 2);
        rounds += report.rounds();
    }
    assert!(rounds >= 2 * batch.rounds(), "batching must amortize coordinator rounds");
}

/// The benchmark's `QMIX8` (`benchmark/src/lib.rs`).
const QMIX8: [&str; 8] = [
    "/sites/site/people/person",
    "/sites/site/open_auctions//annotation",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites/site/people/person/name",
    "//person[address/country=\"US\"]/name",
    "//open_auctions/auction/bidder/increase",
    "/sites/site/regions//item[quantity > 5]/name",
];

#[test]
fn a_batch_costs_less_than_its_queries_and_a_batch_of_one_what_its_query_does() {
    // The queries' visit of a fragment sweeps their qualifiers' union once,
    // so the batch does less work than its queries one at a time; with
    // nothing to share, it does exactly their work.
    let (_, ft2) = paxml::xmark::ft2(2.0, 42);
    let server = PaxServer::builder().algorithm(Algorithm::PaX2).sites(4).deploy(&ft2).unwrap();
    let batch = server.execute_batch_text(&QMIX8).unwrap();
    let mut summed = 0;
    for (text, outcome) in QMIX8.iter().zip(&batch.queries) {
        let single = server.query_once(text).unwrap();
        let alone = server.execute_batch_text(&[text]).unwrap();
        assert_eq!(alone.total_ops(), single.total_ops(), "a batch of one: {text}");
        let mut origins: Vec<_> = outcome.answers.iter().map(|a| a.origin).collect();
        origins.sort();
        assert_eq!(origins, single.answer_origins(), "{text}");
        assert_eq!(alone.answer_origins(), single.answer_origins(), "{text}");
        summed += single.total_ops();
    }
    println!("batch {} ops, its queries {summed}", batch.total_ops());
    assert!(batch.total_ops() < summed, "batch {} ops, its queries {summed}", batch.total_ops());
}
