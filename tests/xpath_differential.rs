//! Grammar-based differential testing of the widened fragment X.
//!
//! Every query this file runs is drawn from [`paxml::xmark::QueryGen`] —
//! the same grammar-based generator the unit suites use — so the whole
//! widened language (attribute predicates and trailing attribute steps,
//! positional predicates, numeric `text()` comparisons, verbose axis
//! spellings, nested booleans) is exercised end-to-end:
//!
//! * **Part A** (proptest): random attributed documents × random
//!   fragmentations × random widened queries — the set-based oracle, the
//!   centralized vector evaluator, PaX3/PaX2 (annotations on and off) and
//!   the naive baseline must all agree, with the paper's visit bounds
//!   intact.
//! * **Part B** (fixed seeds): the same agreement must survive random
//!   [`UpdateOp`] batches *and* an online re-fragmentation pass, compared
//!   as `(origin, label, text)` triples against a fresh deployment of the
//!   update workload's mirror.
//! * **Part C** (fixed seed): the TCP transport — sites as real OS
//!   processes — must stay bit-identical to the in-process simulator on
//!   generated widened queries.
//!
//! Plus the parser lock-down: a proptest round-trip through the grammar
//! (`parse(display(q)) == q`) and golden error-message tests for the
//! widened surface syntax.

use paxml::prelude::*;
use paxml::rebalance::RefragOp;
use paxml::wire::ProcessCluster;
use paxml::xmark::{QueryGen, QueryGenConfig, UpdateWorkload};
use paxml::xpath::semantics::oracle_eval;
use paxml_distsim::SiteId;
use paxml_xml::{NodeId, NodeKind, XmlTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

const LABELS: &[&str] = &["a", "b", "c", "d", "e"];
const TEXTS: &[&str] = &["x", "y", "10", "42", "US"];
const ATTRS: &[&str] = &["id", "age", "price", "vip"];
const ALGORITHMS: [Algorithm; 3] = [Algorithm::NaiveCentralized, Algorithm::PaX3, Algorithm::PaX2];

/// Fixed widened-syntax queries the random grammar cannot emit (trailing
/// attribute *selection* steps, which the parser desugars to `[@attr]`),
/// appended to every generated workload.
const EXTRA_QUERIES: &[&str] =
    &["//b/@id", "a/*[@age > 10]/@price", "b[2]/@id", "//*[@vip]/c[last()]"];

/// A random attributed tree: like the class-X property test's trees
/// (labels a–e, text children from the shared vocabulary) but with 0–2
/// random attributes per element, values drawn from the string vocabulary
/// and from small numbers so `[@a = "s"]` and `[@a op n]` both hit.
fn random_attributed_tree(rng: &mut StdRng, extra_nodes: usize) -> XmlTree {
    let mut tree = XmlTree::with_root_element(LABELS[0]);
    let mut elements: Vec<NodeId> = vec![tree.root()];
    for _ in 0..extra_nodes {
        let parent = elements[rng.gen_range(0..elements.len())];
        if rng.gen_range(0..4u32) == 3 {
            tree.append_child(parent, NodeKind::text(TEXTS[rng.gen_range(0..TEXTS.len())]));
        } else {
            let id = tree.append_element(parent, LABELS[rng.gen_range(0..LABELS.len())]);
            for _ in 0..rng.gen_range(0..3u32) {
                let name = ATTRS[rng.gen_range(0..ATTRS.len())];
                let value = if rng.gen_bool(0.5) {
                    TEXTS[rng.gen_range(0..TEXTS.len())].to_string()
                } else {
                    rng.gen_range(0..50u32).to_string()
                };
                tree.set_attribute(id, name, value).expect("elements accept attributes");
            }
            elements.push(id);
        }
    }
    tree
}

/// Random cut points among the non-root elements.
fn random_cuts(tree: &XmlTree, rng: &mut StdRng, max_cuts: usize) -> Vec<NodeId> {
    let candidates: Vec<NodeId> =
        tree.all_nodes().filter(|&n| n != tree.root() && tree.is_element(n)).collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut cuts: Vec<NodeId> = (0..rng.gen_range(0..=max_cuts))
        .map(|_| candidates[rng.gen_range(0..candidates.len())])
        .collect();
    cuts.sort();
    cuts.dedup();
    cuts
}

/// The per-seed query workload: a stream from the shared grammar plus the
/// fixed widened-syntax extras.
fn workload_queries(seed: u64, count: usize) -> Vec<String> {
    let mut gen = QueryGen::new(QueryGenConfig::with_vocabulary(LABELS, TEXTS, ATTRS), seed);
    let mut queries: Vec<String> = (0..count).map(|_| gen.query_text()).collect();
    queries.extend(EXTRA_QUERIES.iter().map(|s| s.to_string()));
    queries
}

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

fn visit_bound(algorithm: Algorithm) -> u32 {
    match algorithm {
        Algorithm::NaiveCentralized => 1,
        Algorithm::PaX2 => 2,
        Algorithm::PaX3 => 3,
    }
}

// ---------------------------------------------------------------------------
// Part A: simulator differential on random documents and random queries.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// For random attributed documents, random fragmentations and random
    /// widened queries: oracle == centralized == PaX3 == PaX2 == naive,
    /// with and without the annotation optimization, bounds intact.
    #[test]
    fn widened_queries_agree_across_all_evaluators(
        seed in any::<u64>(),
        sites in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let extra_nodes = rng.gen_range(5..60);
        let tree = random_attributed_tree(&mut rng, extra_nodes);
        let cuts = random_cuts(&tree, &mut rng, 7);
        let fragmented = fragment_at(&tree, &cuts).expect("valid cuts");

        // One long-lived server per configuration, reused for every query.
        let mut servers: Vec<(Algorithm, bool, PaxServer)> = Vec::new();
        for use_annotations in [false, true] {
            for algorithm in [Algorithm::PaX3, Algorithm::PaX2] {
                servers.push((
                    algorithm,
                    use_annotations,
                    server(algorithm, use_annotations, &fragmented, sites),
                ));
            }
        }
        servers.push((
            Algorithm::NaiveCentralized,
            false,
            server(Algorithm::NaiveCentralized, false, &fragmented, sites),
        ));

        for query in workload_queries(seed ^ 0x51c3, 6) {
            // Two independent reference semantics first.
            let mut oracle: Vec<NodeId> = oracle_eval(&tree, &query).expect("query parses");
            oracle.sort();
            let central = centralized::evaluate(&tree, &query).expect("query parses");
            prop_assert_eq!(&oracle, &central.answers, "oracle vs centralized on {}", query);

            for (algorithm, use_annotations, s) in &servers {
                let report = s.query_once(&query).expect("distributed evaluation");
                prop_assert_eq!(
                    report.answer_origins(), oracle.clone(),
                    "{} (XA={}) differs on query {} with {} fragments",
                    algorithm, use_annotations, query, fragmented.fragment_count()
                );
                prop_assert!(
                    report.max_visits_per_site() <= visit_bound(*algorithm),
                    "{} broke its visit bound on {}", algorithm, query
                );
            }
        }
    }

    /// The grammar round-trip, as a property over the whole seed space:
    /// every generated query survives `parse(display(q)) == q`, and the
    /// verbose axis respellings parse to the same query.
    #[test]
    fn generated_queries_round_trip_through_the_parser(seed in any::<u64>()) {
        let mut gen = QueryGen::new(QueryGenConfig::default(), seed);
        for _ in 0..20 {
            let q = gen.query();
            let text = q.to_string();
            let back = parse_query(&text)
                .unwrap_or_else(|e| panic!("`{text}` failed to parse: {e}"));
            prop_assert_eq!(back, q.clone(), "round-trip mismatch for `{}`", text);
        }
        for _ in 0..20 {
            let text = gen.query_text();
            let q = parse_query(&text)
                .unwrap_or_else(|e| panic!("respelled `{text}` failed to parse: {e}"));
            prop_assert_eq!(
                parse_query(&q.to_string()).unwrap(), q,
                "unstable respelling `{}`", text
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part B: the agreement survives updates and an online re-fragmentation.
// ---------------------------------------------------------------------------

/// Answers as `(origin, label, text)` triples: the naive baseline relabels
/// the fragment field, so the full `AnswerItem` is not comparable across
/// algorithms, but a stale cached label or text is still caught.
fn keyed(answers: &[AnswerItem]) -> Vec<(NodeId, String, Option<String>)> {
    answers.iter().map(|a| (a.origin, a.label.clone(), a.text.clone())).collect()
}

/// Every live server must answer every query exactly like a fresh naive
/// deployment of `reference` (the update workload's mirror — same document
/// content, whatever the live fragmentation now looks like).
fn assert_servers_match_mirror(
    servers: &[(Algorithm, PaxServer)],
    reference: &FragmentedTree,
    sites: usize,
    queries: &[String],
    context: &str,
) {
    let fresh = server(Algorithm::NaiveCentralized, false, reference, sites);
    for query in queries {
        let expected = keyed(fresh.query_once(query).expect("reference query").answers());
        for (algorithm, s) in servers {
            let report = s.query_once(query).expect("live query");
            assert_eq!(
                keyed(report.answers()),
                expected,
                "{context}: {algorithm} differs from the from-scratch reference on {query}"
            );
            assert!(
                report.max_visits_per_site() <= visit_bound(*algorithm),
                "{context}: {algorithm} broke its visit bound on {query}"
            );
        }
    }
}

/// A split point: some fragment with a real interior element, and that
/// element's id in the fragment's own tree.
fn split_candidate(fragmented: &FragmentedTree) -> Option<(FragmentId, NodeId)> {
    fragmented.fragments.iter().find_map(|f| {
        let root = f.tree.root();
        f.tree.all_nodes().find(|&n| n != root && f.tree.is_element(n)).map(|cut| (f.id, cut))
    })
}

/// Random update batches, then a split + migrate re-fragmentation: after
/// every step, all three algorithms still agree with a from-scratch
/// deployment of the workload mirror on the whole generated query stream.
///
/// The update streams are deterministic and the site-held copies start
/// identical to the mirror, so a cut node found in the mirror is valid in
/// every live deployment.
#[test]
fn updates_then_refragmentation_preserve_the_agreement() {
    let sites = 3;
    for seed in [3u64, 17, 98] {
        let mut rng = StdRng::seed_from_u64(seed);
        let extra_nodes = rng.gen_range(40..80);
        let tree = random_attributed_tree(&mut rng, extra_nodes);
        let cuts = random_cuts(&tree, &mut rng, 5);
        let fragmented = fragment_at(&tree, &cuts).expect("valid cuts");
        let queries = workload_queries(seed ^ 0xbeef, 8);

        let servers: Vec<(Algorithm, PaxServer)> =
            ALGORITHMS.iter().map(|&a| (a, server(a, true, &fragmented, sites))).collect();

        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), seed ^ 0xcd);
        for round in 0..3 {
            let batch = workload.next_batch(4, 2);
            if batch.is_empty() {
                continue;
            }
            for (algorithm, s) in &servers {
                let report = s.apply_updates(&batch).expect("update batch applies");
                let outcome = report.update.as_ref().expect("update report");
                assert!(
                    outcome.rejected.is_empty(),
                    "seed {seed} {algorithm}: {:?}",
                    outcome.rejected
                );
            }
            assert_servers_match_mirror(
                &servers,
                workload.mirror(),
                sites,
                &queries,
                &format!("seed {seed} after update round {round}"),
            );
        }

        // Re-fragment the updated deployment: cut out a subtree onto the
        // last site, then move the new fragment to S0. Content is
        // untouched, so the pre-refrag mirror is still the reference.
        let Some((victim, cut)) = split_candidate(workload.mirror()) else {
            panic!("seed {seed}: no interior element to split at");
        };
        let new_id = FragmentId(workload.mirror().fragment_tree.max_id().index() + 1);
        let ops = vec![
            RefragOp::Split { fragment: victim, cut, place_on: SiteId(sites - 1).into() },
            RefragOp::Migrate { fragment: new_id, from: SiteId(sites - 1), to: SiteId(0) },
        ];
        for (algorithm, s) in &servers {
            s.refragment(&ops).unwrap_or_else(|e| panic!("seed {seed} {algorithm} refrag: {e}"));
        }
        assert_servers_match_mirror(
            &servers,
            workload.mirror(),
            sites,
            &queries,
            &format!("seed {seed} after refragmentation"),
        );
    }
}

// ---------------------------------------------------------------------------
// Part C: the TCP transport agrees bit-for-bit with the simulator.
// ---------------------------------------------------------------------------

const BIN: &str = env!("CARGO_BIN_EXE_paxml");

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
    assert_eq!(sim.stats.rounds, tcp.stats.rounds, "{context}: rounds diverged");
    assert_eq!(
        sim.stats.sites.keys().collect::<Vec<_>>(),
        tcp.stats.sites.keys().collect::<Vec<_>>(),
        "{context}: different sites were visited"
    );
    for (site, s) in &sim.stats.sites {
        let t = &tcp.stats.sites[site];
        assert_eq!(s.visits, t.visits, "{context}: visits diverged at {site:?}");
        assert_eq!(s.bytes_received, t.bytes_received, "{context}: req bytes at {site:?}");
        assert_eq!(s.bytes_sent, t.bytes_sent, "{context}: resp bytes at {site:?}");
    }
}

/// Generated widened queries over real site processes: answers, visits and
/// bytes must be bit-identical to the in-process simulator for all three
/// algorithms — attributes included, since the payloads ship over sockets.
#[test]
fn widened_queries_match_the_simulator_over_tcp() {
    with_watchdog(|| {
        let seed = 2207u64;
        let sites = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_attributed_tree(&mut rng, 60);
        let cuts = random_cuts(&tree, &mut rng, 5);
        let fragmented = fragment_at(&tree, &cuts).expect("valid cuts");
        let queries = workload_queries(seed, 8);

        for algorithm in ALGORITHMS {
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
            for query in &queries {
                let s = sim.query_once(query).expect("simulator query");
                let t = tcp.query_once(query).expect("TCP query");
                assert_reports_match(&s, &t, &format!("{algorithm} {query}"));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Parser lock-down: golden error messages for the widened surface syntax.
// ---------------------------------------------------------------------------

/// The widened parser's rejections are diagnosable: each malformed input
/// names its problem (these strings are the user-facing contract).
#[test]
fn golden_parse_errors_for_the_widened_syntax() {
    let cases: &[(&str, &str)] = &[
        // Unterminated attribute steps.
        ("a[@]", "unterminated attribute step"),
        ("person/@", "unterminated attribute step"),
        // Attribute steps are final-position only.
        ("a/@id/b", "must be the last step"),
        // Positions are positive integers or last().
        ("a[0]", "non-numeric position"),
        ("a[2.5]", "non-numeric position"),
        // Only the three class-X axes exist.
        ("foo::a", "bad axis"),
        ("a/preceding-sibling::b", "bad axis"),
        // Positions need a step to count against.
        (".[2]", "without a preceding label or wildcard step"),
    ];
    for (text, needle) in cases {
        let err = parse_query(text).expect_err(&format!("`{text}` must be rejected"));
        let message = err.to_string();
        assert!(
            message.contains(needle),
            "`{text}`: error `{message}` does not mention `{needle}`"
        );
    }

    // And one compile-stage rejection: counting among `//`-reachable
    // qualifier nodes is out of the fragment.
    let err = compile_text("a[.//b[2]]").expect_err("positions on descendant steps are rejected");
    assert!(err.to_string().contains("descendant-axis"), "unexpected message: {err}");
}
