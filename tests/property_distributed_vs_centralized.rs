//! Property-based end-to-end test: for *random* documents, *random*
//! fragmentations and *random* queries from the widened class X, the
//! distributed algorithms (PaX3 and PaX2, with and without the annotation
//! optimization) return exactly the same answer set as the centralized
//! evaluator and as the naive set-based oracle.
//!
//! Queries come from the shared grammar-based generator
//! ([`paxml::xmark::QueryGen`]) — the same stream the differential harness
//! uses — so every widened feature (attributes, positions, numeric text()
//! comparisons, verbose axes) is exercised here too. Documents carry
//! random attributes so the attribute predicates have something to match.
//!
//! This is the strongest correctness statement in the test suite: it
//! exercises arbitrary nestings of fragments (including fragments inside
//! fragments), arbitrary placements and every query feature at once.

use paxml::prelude::*;
use paxml::xmark::{QueryGen, QueryGenConfig};
use paxml::xpath::semantics::oracle_eval;
use paxml_xml::{NodeId, NodeKind, XmlTree};
use proptest::prelude::*;

const LABELS: &[&str] = &["a", "b", "c", "d", "e"];
const TEXTS: &[&str] = &["x", "y", "10", "42", "US"];
const ATTRS: &[&str] = &["id", "age", "price", "vip"];

/// Build a random tree from a list of (parent index, node choice) pairs.
/// Elements pick up a random attribute when the choice says so, with
/// values from both the string vocabulary and the numeric range the
/// generator compares against.
fn build_tree(spec: &[(usize, usize)]) -> XmlTree {
    let mut tree = XmlTree::with_root_element(LABELS[0]);
    let mut elements: Vec<NodeId> = vec![tree.root()];
    for &(parent_choice, kind) in spec {
        let parent = elements[parent_choice % elements.len()];
        if kind % 4 == 3 {
            // a text child
            tree.append_child(parent, NodeKind::text(TEXTS[kind % TEXTS.len()]));
        } else {
            let label = LABELS[kind % LABELS.len()];
            let id = tree.append_element(parent, label);
            if kind % 3 == 0 {
                let name = ATTRS[parent_choice % ATTRS.len()];
                let value = if parent_choice % 2 == 0 {
                    TEXTS[kind % TEXTS.len()].to_string()
                } else {
                    format!("{}", (parent_choice * 7 + kind) % 50)
                };
                tree.set_attribute(id, name, value).expect("elements accept attributes");
            }
            elements.push(id);
        }
    }
    tree
}

/// Random tree strategy: 5–60 extra nodes under an `a` root.
fn tree_strategy() -> impl Strategy<Value = XmlTree> {
    prop::collection::vec((0usize..1000, 0usize..20), 5..60).prop_map(|spec| build_tree(&spec))
}

/// Random query strategy: one draw from the shared grammar-based
/// generator, over the same vocabulary the trees are built from.
fn query_strategy() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|seed| {
        QueryGen::new(QueryGenConfig::with_vocabulary(LABELS, TEXTS, ATTRS), seed).query_text()
    })
}

/// Pick random cut points (by index among non-root elements).
fn cuts_for(tree: &XmlTree, picks: &[usize]) -> Vec<NodeId> {
    let candidates: Vec<NodeId> =
        tree.all_nodes().filter(|&n| n != tree.root() && tree.is_element(n)).collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut cuts: Vec<NodeId> = picks.iter().map(|&p| candidates[p % candidates.len()]).collect();
    cuts.sort();
    cuts.dedup();
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn distributed_answers_equal_centralized_and_oracle(
        tree in tree_strategy(),
        query in query_strategy(),
        picks in prop::collection::vec(0usize..1000, 0..8),
        sites in 1usize..5,
    ) {
        let cuts = cuts_for(&tree, &picks);
        let fragmented = fragment_at(&tree, &cuts).expect("valid cuts");

        // Reference semantics (two independent implementations). The oracle
        // reports document order, the vector evaluator node-id order; compare
        // as sets by sorting both.
        let mut oracle: Vec<NodeId> = oracle_eval(&tree, &query).expect("query parses");
        oracle.sort();
        let central = centralized::evaluate(&tree, &query).expect("query parses");
        prop_assert_eq!(&oracle, &central.answers, "oracle vs centralized on {}", query);

        let server = |algorithm: Algorithm, annotations: bool| {
            PaxServer::builder()
                .algorithm(algorithm)
                .annotations(annotations)
                .placement(Placement::RoundRobin)
                .sites(sites)
                .deploy(&fragmented)
                .expect("valid configuration")
        };
        for use_annotations in [false, true] {
            let p3 = server(Algorithm::PaX3, use_annotations).query_once(&query).unwrap();
            prop_assert_eq!(
                p3.answer_origins(), oracle.clone(),
                "PaX3 (XA={}) differs on query {} with {} fragments",
                use_annotations, query, fragmented.fragment_count()
            );
            prop_assert!(p3.max_visits_per_site() <= 3);

            let p2 = server(Algorithm::PaX2, use_annotations).query_once(&query).unwrap();
            prop_assert_eq!(
                p2.answer_origins(), oracle.clone(),
                "PaX2 (XA={}) differs on query {} with {} fragments",
                use_annotations, query, fragmented.fragment_count()
            );
            prop_assert!(p2.max_visits_per_site() <= 2);
        }

        let nv = server(Algorithm::NaiveCentralized, false).query_once(&query).unwrap();
        prop_assert_eq!(nv.answer_origins(), oracle, "Naive differs on query {}", query);
    }

    #[test]
    fn fragmentation_round_trips_for_random_trees(
        tree in tree_strategy(),
        picks in prop::collection::vec(0usize..1000, 0..10),
    ) {
        let cuts = cuts_for(&tree, &picks);
        let fragmented = fragment_at(&tree, &cuts).expect("valid cuts");
        prop_assert!(fragmented.validate().is_ok());
        let back = fragmented.reassemble().expect("reassembly");
        prop_assert_eq!(paxml_xml::to_string(&back), paxml_xml::to_string(&tree));
        prop_assert_eq!(fragmented.total_real_nodes(), tree.all_nodes().count());
    }

    #[test]
    fn parse_serialize_round_trip_for_random_trees(tree in tree_strategy()) {
        let text = paxml_xml::to_string(&tree);
        let reparsed = paxml_xml::parse(&text).expect("serializer output parses");
        prop_assert_eq!(paxml_xml::to_string(&reparsed), text);
    }
}
