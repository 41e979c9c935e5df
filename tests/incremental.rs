//! Property-based tests of incremental re-evaluation through the
//! `PaxServer` session API: for random XMark update streams, a prepared
//! query maintained across `apply_updates` rounds must return
//! **bit-identical answers** to a from-scratch PaX2 evaluation over the
//! updated data, while visiting **only dirty sites** (clean-site visit
//! count asserted to be 0) and serving re-executions from the cache with
//! zero visits; its traffic must scale with the number of dirty fragments —
//! not with the data size.

use paxml::prelude::*;
use paxml_fragment::FragmentId;
use paxml_xmark::{ft1, ft2, UpdateWorkload};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Queries exercising qualifiers, `//`, and pruning over the XMark schema.
const QUERIES: &[&str] = &[
    "/sites/site/people/person",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "//person[address/country=\"US\"]/name",
    "/sites/site/open_auctions//annotation",
    "//people/person/name",
];

fn pax2_server(fragmented: &FragmentedTree, sites: usize, annotations: bool) -> PaxServer {
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .annotations(annotations)
        .placement(Placement::RoundRobin)
        .sites(sites)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// From-scratch PaX2 over the workload's mirror of the updated fragments.
/// Returns the full `AnswerItem`s (origin, fragment, label, text) so the
/// bit-identity checks catch stale cached labels/texts, not just node ids.
fn from_scratch(
    mirror: &FragmentedTree,
    query: &str,
    annotations: bool,
    sites: usize,
) -> Vec<AnswerItem> {
    pax2_server(mirror, sites, annotations).query_once(query).unwrap().answers().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// The acceptance property: random update streams over FT1/FT2
    /// topologies, incremental == from-scratch, zero clean-site visits.
    #[test]
    fn incremental_matches_from_scratch_and_never_visits_clean_sites(
        seed in 0u64..1000,
        use_ft2 in prop::bool::ANY,
        query_index in 0usize..QUERIES.len(),
        use_annotations in prop::bool::ANY,
        rounds in 1usize..4,
        ops_per_batch in 1usize..6,
        max_dirty in 1usize..3,
    ) {
        let (tree, fragmented) =
            if use_ft2 { ft2(0.4, seed) } else { ft1(4, 0.4, seed) };
        let query = QUERIES[query_index];
        let sites = 4;

        let server = pax2_server(&fragmented, sites, use_annotations);
        let prepared = server.prepare(query).unwrap();
        let initial = server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), seed ^ 0xab);

        // The initial evaluation must already agree with from-scratch PaX2.
        prop_assert_eq!(
            initial.answers(),
            &from_scratch(workload.mirror(), query, use_annotations, sites)[..],
            "initial evaluation differs on {}", query
        );

        for round in 0..rounds {
            let batch = workload.next_batch(ops_per_batch, max_dirty);
            if batch.is_empty() {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            let outcome = report.update.clone().expect("update reports carry an update slice");

            // Every op the mirror accepted must have been accepted site-side.
            prop_assert!(outcome.rejected.is_empty(), "rejected: {:?}", outcome.rejected);
            prop_assert_eq!(outcome.applied_ops, batch.len());

            // The visit guarantee: zero visits to clean sites, at most two
            // (in fact one) to each dirty site — the update round maintains
            // the prepared query's cache in its one visit.
            prop_assert_eq!(report.clean_site_visits(), 0);
            prop_assert!(report.max_visits_per_site() <= 2);
            let total_visits: u32 = report.visits_per_site().values().sum();
            prop_assert!(
                total_visits <= 2 * outcome.dirty_sites.len() as u32,
                "visits {} exceed 2·|dirty sites| = {}",
                total_visits, 2 * outcome.dirty_sites.len()
            );

            // Bit-identical answers vs. a from-scratch evaluation of the
            // updated data — and the re-execution costs zero visits.
            let reexec = server.execute(&prepared).unwrap();
            prop_assert!(reexec.from_cache);
            prop_assert_eq!(reexec.max_visits_per_site(), 0);
            let expected = from_scratch(workload.mirror(), query, use_annotations, sites);
            prop_assert_eq!(
                reexec.answers(), &expected[..],
                "round {}: incremental differs from from-scratch on {} (XA={}, batch {:?})",
                round, query, use_annotations,
                batch.iter().map(|(f, op)| (f.index(), op.kind())).collect::<Vec<_>>()
            );
        }
    }
}

/// Traffic scales with the number of dirty fragments, not with data size:
/// the same one-fragment edit costs (almost) the same bytes on a deployment
/// four times larger, while from-scratch re-evaluation traffic grows with
/// the fragment count.
#[test]
fn incremental_traffic_is_independent_of_data_size() {
    let query = "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard";

    let bytes_for = |fragments: usize, vmb: f64| -> (u64, u64) {
        let (tree, fragmented) = ft1(fragments, vmb, 3);
        let server = pax2_server(&fragmented, fragments, false);
        let prepared = server.prepare(query).unwrap();
        server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 99);
        // Average a few single-dirty-fragment batches.
        let mut incremental_bytes = 0;
        let mut rounds = 0;
        for _ in 0..4 {
            let batch = workload.next_batch(2, 1);
            if batch.is_empty() {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            assert_eq!(report.clean_site_visits(), 0);
            incremental_bytes += report.network_bytes();
            rounds += 1;
        }
        assert!(rounds > 0);

        // From-scratch reference traffic over the same updated data.
        let scratch = pax2_server(workload.mirror(), fragments, false).query_once(query).unwrap();
        (incremental_bytes / rounds, scratch.network_bytes())
    };

    let (small_inc, small_scratch) = bytes_for(4, 0.5);
    let (large_inc, large_scratch) = bytes_for(16, 2.0);

    // From-scratch traffic grows with the fragment count (the O(|Q|·|FT|)
    // term); incremental traffic stays within a small constant of the small
    // deployment's — it pays per dirty fragment, not per fragment.
    assert!(
        large_scratch as f64 > small_scratch as f64 * 2.0,
        "from-scratch traffic should grow with |FT|: {small_scratch} -> {large_scratch}"
    );
    assert!(
        (large_inc as f64) < small_inc as f64 * 2.0,
        "incremental traffic must not scale with data size: {small_inc} -> {large_inc}"
    );
}

/// Growing the number of dirty fragments grows incremental traffic roughly
/// proportionally — the |dirty| term is what the re-evaluation pays for.
#[test]
fn incremental_traffic_scales_with_dirty_fragment_count() {
    let query = "//people/person/name";
    let (tree, fragmented) = ft1(12, 1.5, 5);
    let nodes = tree.all_nodes().count();

    let avg_bytes = |dirty: usize| -> u64 {
        let server = pax2_server(&fragmented, 12, false);
        let prepared = server.prepare(query).unwrap();
        server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, nodes, 41);
        let mut total = 0;
        let mut rounds = 0;
        for _ in 0..4 {
            let batch = workload.next_batch(dirty * 2, dirty);
            let dirtied: BTreeSet<FragmentId> = batch.iter().map(|(f, _)| *f).collect();
            if dirtied.len() != dirty {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            assert_eq!(report.update.as_ref().unwrap().dirty_fragments.len(), dirty);
            total += report.network_bytes();
            rounds += 1;
        }
        assert!(rounds > 0, "no batch dirtied exactly {dirty} fragments");
        total / rounds
    };

    let one = avg_bytes(1);
    let eight = avg_bytes(8);
    assert!(
        eight > one * 3,
        "8 dirty fragments should cost several times 1 dirty fragment: {one} -> {eight}"
    );
}
