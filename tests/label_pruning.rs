//! §5 label pruning against its references, through update streams.
//!
//! Over FT2 cuts of random XMark documents, generated queries plus fixed
//! ones that label sets prune, and seeded update batches — whose inserts
//! bring `person`, `item` and `annotation` subtrees into fragments pruned
//! for them, and whose relabels bring in `renamed0`–`renamed2`, which
//! queries below ask for — every round checks that
//!
//! 1. label-pruned PaX2 (cached and one-shot) and PaX3 answers equal the
//!    answers with annotations off and the centralized ones;
//! 2. the label-pruned relevant set is a subset of the path-only one;
//! 3. every relevant fragment without an exact init has a relevant FT
//!    parent;
//! 4. an update never visits a clean site, and each prepared query is then
//!    served from its cache — unless the grown label sets made a clean
//!    fragment relevant for it, and exactly then.

use paxml::core::{analyze_with_trie, AnnotationAnalysis, PathTrie, Topology};
use paxml::prelude::*;
use paxml::xmark::{ft2, QueryGen, QueryGenConfig, UpdateWorkload};
use paxml::xpath::{centralized, CompiledQuery};
use paxml_fragment::{reassemble_with_origin, FragmentId};
use paxml_xml::NodeId;
use std::collections::BTreeSet;

const SITES: usize = 4;
const LABELS: &[&str] = &[
    "site",
    "people",
    "person",
    "name",
    "address",
    "country",
    "item",
    "quantity",
    "annotation",
    "author",
    "creditcard",
    "renamed0",
    "renamed1",
];
const TEXTS: &[&str] = &["US", "Germany", "5"];
const ATTRS: &[&str] = &["id"];
/// Queries the label sets prune on FT2, ahead of the generated ones.
const ANCHORS: &[&str] = &[
    "//person[address/country=\"US\"]/name",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites/site/open_auctions//annotation",
    "//item[quantity > 5]/name",
    "//annotation/author",
    "//renamed0//name",
    "//renamed1[name]",
    "/sites/site//renamed2",
];

fn server(fragmented: &FragmentedTree, algorithm: Algorithm, annotations: bool) -> PaxServer {
    PaxServer::builder()
        .algorithm(algorithm)
        .annotations(annotations)
        .placement(Placement::RoundRobin)
        .sites(SITES)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// Centralized answers over the updated fragments, as origin ids.
fn centralized_origins(mirror: &FragmentedTree, query: &str) -> Vec<NodeId> {
    let (tree, origin) = reassemble_with_origin(mirror).expect("the mirror stays a valid FT");
    let answers = centralized::evaluate(&tree, query).expect("test queries compile").answers;
    let mut origins: Vec<NodeId> =
        answers.iter().map(|n| NodeId::from_index(origin[n.index()] as usize)).collect();
    origins.sort();
    origins
}

/// The analysis with the topology's label sets, and the path-only one.
fn analyses(
    query: &CompiledQuery,
    topology: &Topology,
) -> (AnnotationAnalysis, AnnotationAnalysis) {
    let path_only = PathTrie::build(&topology.fragment_tree, topology.root_label());
    let labelled = topology.annotations().expect("an annotated server's topology has an index");
    (analyze_with_trie(query, labelled), analyze_with_trie(query, &path_only))
}

#[test]
fn label_pruning_agrees_with_its_references_through_update_batches() {
    let (mut pruned_fragments, mut warm_growth, mut cold_sessions) = (0, 0, 0);
    for seed in 0..10u64 {
        let (tree, fragmented) = ft2(0.2, seed);
        let mut gen =
            QueryGen::new(QueryGenConfig::with_vocabulary(LABELS, TEXTS, ATTRS), seed ^ 0x5eed);
        let generated: Vec<String> = (0..6).map(|_| gen.query_text()).collect();
        let texts: Vec<&str> =
            ANCHORS.iter().copied().chain(generated.iter().map(String::as_str)).collect();
        let compiled: Vec<CompiledQuery> =
            texts.iter().map(|t| compile_text(t).expect("test queries compile")).collect();

        let pax2 = server(&fragmented, Algorithm::PaX2, true);
        let pax3 = server(&fragmented, Algorithm::PaX3, true);
        let plain = server(&fragmented, Algorithm::PaX2, false);
        let prepared: Vec<PreparedQuery> = texts.iter().map(|t| pax2.prepare(t).unwrap()).collect();
        for query in &prepared {
            pax2.execute(query).unwrap();
        }
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), seed);

        for round in 0..=4 {
            let before = pax2.topology();
            let mut dirty = BTreeSet::new();
            if round > 0 {
                let batch = workload.next_batch(8, 2);
                dirty = batch.iter().map(|(f, _)| *f).collect::<BTreeSet<FragmentId>>();
                let report = pax2.apply_updates(&batch).unwrap();
                assert_eq!(report.clean_site_visits(), 0, "seed {seed} round {round}");
                assert!(report.update.unwrap().rejected.is_empty());
                pax3.apply_updates(&batch).unwrap();
                plain.apply_updates(&batch).unwrap();
            }
            let after = pax2.topology();
            assert!(after.labels().is_some(), "an annotated server carries label sets");
            assert!(plain.topology().labels().is_none(), "a server without annotations has none");

            for ((text, query), prepared) in texts.iter().zip(&compiled).zip(&prepared) {
                let context = format!("seed {seed} round {round}: {text}");
                let (labelled, path_only) = analyses(query, &after);
                // (2) and (3).
                assert!(labelled.relevant.is_subset(&path_only.relevant), "{context}");
                pruned_fragments += path_only.relevant.len() - labelled.relevant.len();
                for f in &labelled.relevant {
                    let parent = after.fragment_tree.parent(*f);
                    if !labelled.exact_init.contains_key(f) {
                        assert!(
                            parent.is_none_or(|p| labelled.relevant.contains(&p)),
                            "{context}: {f} starts from variables under a pruned parent"
                        );
                    }
                }
                // (4): warm unless a clean fragment joined the relevant set.
                let (earlier, _) = analyses(query, &before);
                let joined: BTreeSet<FragmentId> =
                    labelled.relevant.difference(&earlier.relevant).copied().collect();
                let goes_cold = !joined.is_subset(&dirty);
                cold_sessions += usize::from(goes_cold);
                warm_growth += usize::from(!joined.is_empty() && !goes_cold);
                let cached = pax2.execute(prepared).unwrap();
                assert_eq!(cached.from_cache, !goes_cold, "{context}");
                // (1).
                let expected = centralized_origins(workload.mirror(), text);
                assert_eq!(cached.answer_origins(), expected, "{context}: cached PaX2");
                let once = pax2.query_once(text).unwrap();
                assert_eq!(once.answer_origins(), expected, "{context}: one-shot PaX2");
                assert_eq!(once.queries[0].fragments_evaluated, labelled.relevant.len());
                assert_eq!(pax3.query_once(text).unwrap().answer_origins(), expected, "{context}");
                assert_eq!(plain.query_once(text).unwrap().answer_origins(), expected, "{context}");
            }
        }
    }
    assert!(pruned_fragments > 0, "label sets must prune fragments paths keep");
    assert!(warm_growth > 0, "updates must bring needed labels into pruned dirty fragments");
    assert!(cold_sessions > 0, "updates must make some clean fragment relevant");
    println!(
        "fragments pruned by labels: {pruned_fragments}; warm sessions gaining a dirty \
         fragment: {warm_growth}; sessions sent cold: {cold_sessions}"
    );
}
