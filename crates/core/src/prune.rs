//! The XPath-annotation optimization of §5.
//!
//! The fragment tree `FT` carries, on every edge, the label path connecting
//! the two fragment roots in the original tree. Before evaluating the
//! selection path (Stage 2 of PaX3, Stage 1 of PaX2), the coordinator walks
//! those annotations to decide
//!
//! 1. **which fragments are relevant** — a fragment that can neither contain
//!    answer nodes nor contribute to the qualifier of a potentially-matching
//!    node is skipped entirely (Example 5.1: for `client/name`, fragments
//!    `F1`, `F2`, `F3` of the running example are ruled out);
//! 2. **the exact initial stack vector** of every relevant fragment when the
//!    query has *no qualifiers*: the annotation describes the ancestors of
//!    the fragment root precisely, so the top-down pass can start from
//!    concrete truth values instead of variables, every answer is certain,
//!    and the final answer-collection visit can be merged into the same
//!    round (this is why `PaX3-XA` needs one visit fewer for Q1 in Fig. 9).

use paxml_fragment::{FragmentId, FragmentTree};
use paxml_xpath::eval::root_context_vector;
use paxml_xpath::{CompiledQuery, SelItem};
use std::collections::{BTreeMap, BTreeSet};

/// A trie over the label paths from the document root to every fragment
/// root.
///
/// [`analyze`] recomputes the whole root-to-fragment label chain for every
/// fragment, so fragmentations in which many fragments hang off the same
/// ancestor path (the common case: cut every `client`, every `broker`, …)
/// pay for each shared prefix once *per fragment*. The trie merges those
/// chains: each distinct prefix is one node, each fragment is registered on
/// the node its root path ends at, and [`analyze_with_trie`] walks the trie
/// once, computing every prefix's `SV` vector exactly once — `O(|distinct
/// paths| · |Q|)` instead of `O(Σ path lengths · |Q|)`.
///
/// The trie depends only on the fragment tree and the document root label,
/// not on any query, so a deployment builds it once per topology version
/// (see `Topology::path_trie`) and shares it across all prepared queries.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTrie {
    /// Nodes in creation order; node 0 is the document root element.
    nodes: Vec<TrieNode>,
}

/// One distinct label path in a [`PathTrie`].
#[derive(Debug, Clone, PartialEq)]
struct TrieNode {
    /// The element label this node adds to its parent's path.
    label: String,
    /// Child nodes, keyed by their label (deterministic iteration order).
    children: BTreeMap<String, usize>,
    /// Fragments whose root sits exactly at this label path.
    fragments: Vec<FragmentId>,
}

impl PathTrie {
    /// Build the trie for a fragment tree. `root_label` is the label of the
    /// original tree's root element (the path of every fragment starts
    /// there). The root fragment itself is not registered — it is always
    /// relevant and handled specially by the analysis.
    pub fn build(ft: &FragmentTree, root_label: &str) -> PathTrie {
        let mut nodes = vec![TrieNode {
            label: root_label.to_string(),
            children: BTreeMap::new(),
            fragments: Vec::new(),
        }];
        for &fragment in ft.ids() {
            if fragment == FragmentId::ROOT {
                continue;
            }
            let mut at = 0usize;
            for step in ft.annotation_from_root(fragment).steps() {
                at = match nodes[at].children.get(step) {
                    Some(&next) => next,
                    None => {
                        let next = nodes.len();
                        nodes.push(TrieNode {
                            label: step.clone(),
                            children: BTreeMap::new(),
                            fragments: Vec::new(),
                        });
                        nodes[at].children.insert(step.clone(), next);
                        next
                    }
                };
            }
            nodes[at].fragments.push(fragment);
        }
        PathTrie { nodes }
    }

    /// Number of distinct label paths (trie nodes), including the root.
    /// `analyze_with_trie` computes exactly this many `SV` vectors, against
    /// the sum of all chain lengths for [`analyze`].
    pub fn distinct_paths(&self) -> usize {
        self.nodes.len()
    }
}

/// [`analyze`], but over a prebuilt [`PathTrie`]: produces the **identical**
/// [`AnnotationAnalysis`] while computing each distinct root-to-fragment
/// label prefix's `SV` vector only once.
pub fn analyze_with_trie(query: &CompiledQuery, trie: &PathTrie) -> AnnotationAnalysis {
    let mut relevant: BTreeSet<FragmentId> = BTreeSet::new();
    let mut exact_init: BTreeMap<FragmentId, Vec<bool>> = BTreeMap::new();
    let no_qualifiers = !query.has_qualifiers() && !query.has_positions();
    let qualifier_positions = qualifier_positions(query);

    relevant.insert(FragmentId::ROOT);
    if no_qualifiers {
        exact_init.insert(FragmentId::ROOT, root_context_vector(query));
    }

    // DFS carrying (trie node, depth, parent SV, cumulative qualifier-feed).
    // `feeds` is true when *some* prefix on the path so far optimistically
    // matches a qualifier-bearing selection prefix — fragments below such a
    // node can influence that qualifier and must stay.
    let mut stack: Vec<(usize, usize, Vec<bool>, bool)> =
        vec![(0, 0, root_context_vector(query), false)];
    while let Some((at, depth, parent_sv, parent_feeds)) = stack.pop() {
        let node = &trie.nodes[at];
        let sv = step_vector(query, &parent_sv, &node.label, depth);
        let feeds = parent_feeds || qualifier_positions.iter().any(|&pos| sv[pos]);
        let may_contain_answers = sv.iter().any(|&b| b);
        if may_contain_answers || feeds {
            for &fragment in &node.fragments {
                relevant.insert(fragment);
                if no_qualifiers {
                    exact_init.insert(fragment, parent_sv.clone());
                }
            }
        }
        for &child in node.children.values() {
            stack.push((child, depth + 1, sv.clone(), feeds));
        }
    }

    AnnotationAnalysis { relevant, exact_init, can_skip_final_stage: no_qualifiers }
}

/// Outcome of analysing the annotated fragment tree for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationAnalysis {
    /// Fragments that must participate in the selection evaluation.
    pub relevant: BTreeSet<FragmentId>,
    /// When the query has no qualifiers: the exact initial `SV` vector
    /// (ancestor summary) of every fragment, derived purely from the
    /// annotations. Empty when the query has qualifiers, in which case the
    /// fragments start from variables as usual.
    pub exact_init: BTreeMap<FragmentId, Vec<bool>>,
    /// True when candidate answers cannot arise (exact init vectors are
    /// available), so the dedicated answer-collection stage can be skipped.
    pub can_skip_final_stage: bool,
}

impl AnnotationAnalysis {
    /// The trivial analysis that keeps every fragment and knows nothing —
    /// what the algorithms use when annotations are disabled ("NA" curves).
    pub fn keep_all(ft: &FragmentTree) -> Self {
        AnnotationAnalysis {
            relevant: ft.ids().iter().copied().collect(),
            exact_init: BTreeMap::new(),
            can_skip_final_stage: false,
        }
    }
}

/// Analyse the annotated fragment tree for `query`. `root_label` is the
/// label of the original tree's root element (stored in the root fragment).
pub fn analyze(query: &CompiledQuery, ft: &FragmentTree, root_label: &str) -> AnnotationAnalysis {
    let mut relevant: BTreeSet<FragmentId> = BTreeSet::new();
    let mut exact_init: BTreeMap<FragmentId, Vec<bool>> = BTreeMap::new();
    // Exact init vectors can only be derived from the annotations when the
    // query has neither qualifiers nor positional predicates: positional
    // facts depend on actual sibling order, which labels alone cannot give.
    // (Relevance pruning stays available for positional queries — ignoring
    // the positional constraints is optimistic, hence sound.)
    let no_qualifiers = !query.has_qualifiers() && !query.has_positions();

    let qualifier_positions = qualifier_positions(query);

    relevant.insert(FragmentId::ROOT);
    if no_qualifiers {
        exact_init.insert(FragmentId::ROOT, root_context_vector(query));
    }

    for &fragment in ft.ids() {
        if fragment == FragmentId::ROOT {
            continue;
        }
        // The chain of labels from the root element down to this fragment's
        // root (both inclusive).
        let mut chain: Vec<String> = vec![root_label.to_string()];
        chain.extend(ft.annotation_from_root(fragment).steps().iter().cloned());

        let vectors = chain_vectors(query, &chain);
        let at_root_of_fragment = vectors.last().expect("chain is never empty");

        // (a) The fragment may contain answer nodes: some prefix of the
        //     selection path is (optimistically) matched at its root, so a
        //     completion inside the fragment is possible.
        let may_contain_answers = at_root_of_fragment.iter().any(|&b| b);

        // (b) The fragment may contribute to a qualifier of a node above it:
        //     some ancestor on the chain (any chain position) optimistically
        //     matches a qualifier-bearing prefix; the qualifier looks
        //     downward, i.e. possibly into this fragment.
        let may_feed_a_qualifier =
            qualifier_positions.iter().any(|&pos| vectors.iter().any(|sv| sv[pos]));

        if may_contain_answers || may_feed_a_qualifier {
            relevant.insert(fragment);
            if no_qualifiers {
                // The exact ancestor summary of the fragment root is the SV
                // vector of its parent: the second-to-last chain vector.
                let parent_vector = if vectors.len() >= 2 {
                    vectors[vectors.len() - 2].clone()
                } else {
                    root_context_vector(query)
                };
                exact_init.insert(fragment, parent_vector);
            }
        }
    }

    AnnotationAnalysis { relevant, exact_init, can_skip_final_stage: no_qualifiers }
}

/// Selection items that carry qualifiers: position j means the qualifier
/// applies to nodes matched by prefix j (SVect entry j).
fn qualifier_positions(query: &CompiledQuery) -> Vec<usize> {
    query
        .sel_items
        .iter()
        .enumerate()
        .filter_map(|(idx, item)| match item {
            SelItem::SelfQualifier(_) => Some(idx), // applies to prefix `idx` (entry idx)
            _ => None,
        })
        .collect()
}

/// The optimistic `SV` vector of an element with `label` at `depth` below
/// the document node, given its parent's vector. Qualifier items are assumed
/// true (we cannot evaluate them from labels alone), which is exactly what
/// keeps the pruning sound; when the query has no qualifiers the vector is
/// exact.
fn step_vector(query: &CompiledQuery, parent: &[bool], label: &str, depth: usize) -> Vec<bool> {
    let mut sv = vec![false; query.svect_len()];
    // Entry 0: the context marker — true at the root element for relative
    // queries.
    sv[0] = !query.absolute && depth == 0;
    for (idx, item) in query.sel_items.iter().enumerate() {
        let i = idx + 1;
        sv[i] = match item {
            SelItem::Label(l) => parent[i - 1] && l == label,
            SelItem::Wildcard => parent[i - 1],
            SelItem::DescendantOrSelf => parent[i] || sv[i - 1],
            SelItem::SelfQualifier(_) => sv[i - 1], // optimistic
        };
    }
    sv
}

/// Optimistic `SV` vectors along a label chain starting at the root element.
fn chain_vectors(query: &CompiledQuery, chain: &[String]) -> Vec<Vec<bool>> {
    let mut vectors: Vec<Vec<bool>> = Vec::with_capacity(chain.len());
    let mut parent = root_context_vector(query);
    for (depth, label) in chain.iter().enumerate() {
        let sv = step_vector(query, &parent, label, depth);
        vectors.push(sv.clone());
        parent = sv;
    }
    vectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::LabelPath;
    use paxml_xpath::compile_text;

    /// The annotated fragment tree of Fig. 6 (running example).
    fn fig6() -> FragmentTree {
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("client/broker"));
        ft.add_child(FragmentId(1), FragmentId(2), LabelPath::parse("market"));
        ft.add_child(FragmentId(0), FragmentId(3), LabelPath::parse("client"));
        ft.add_child(FragmentId(0), FragmentId(4), LabelPath::parse("client/broker/market"));
        ft
    }

    #[test]
    fn example_5_1_prunes_the_expected_fragments() {
        // Query client/name over Fig. 6: F0 and the client fragment are
        // relevant; the broker and market fragments are ruled out.
        let q = compile_text("client/name").unwrap();
        let a = analyze(&q, &fig6(), "clientele");
        assert!(a.relevant.contains(&FragmentId(0)));
        assert!(a.relevant.contains(&FragmentId(3)));
        assert!(!a.relevant.contains(&FragmentId(1)));
        assert!(!a.relevant.contains(&FragmentId(2)));
        assert!(!a.relevant.contains(&FragmentId(4)));
        assert!(a.can_skip_final_stage);
        // The client fragment's exact init vector marks "the parent is the
        // context" (its parent is the clientele root), so its own `client`
        // step can match.
        let init = &a.exact_init[&FragmentId(3)];
        assert!(init[0]);
        assert!(!init[1]);
    }

    #[test]
    fn broker_query_keeps_broker_chain_only() {
        let q = compile_text("client/broker/name").unwrap();
        let a = analyze(&q, &fig6(), "clientele");
        assert!(a.relevant.contains(&FragmentId(1))); // broker fragment: may hold name answers
        assert!(!a.relevant.contains(&FragmentId(2))); // market fragment cannot
        assert!(!a.relevant.contains(&FragmentId(4)));
        assert!(a.relevant.contains(&FragmentId(3))); // client fragment may contain broker/name inside
        let init_f1 = &a.exact_init[&FragmentId(1)];
        // Parent of F1's root is a client node matched by prefix 1.
        assert!(init_f1[1]);
        assert!(!init_f1[2]);
    }

    #[test]
    fn descendant_query_keeps_everything() {
        let q = compile_text("//name").unwrap();
        let a = analyze(&q, &fig6(), "clientele");
        for f in 0..5 {
            assert!(a.relevant.contains(&FragmentId(f)), "F{f} must stay relevant under //");
        }
    }

    #[test]
    fn qualifier_queries_keep_fragments_that_feed_the_qualifier() {
        // The qualifier sits on client; the market fragment (below a broker
        // below a client) can influence it even though it cannot contain
        // answers, so it must stay.
        let q = compile_text("client[broker/market/name/text()='NASDAQ']/name").unwrap();
        let a = analyze(&q, &fig6(), "clientele");
        assert!(a.relevant.contains(&FragmentId(1)));
        assert!(a.relevant.contains(&FragmentId(2)));
        assert!(a.relevant.contains(&FragmentId(3)));
        assert!(a.relevant.contains(&FragmentId(4)));
        assert!(!a.can_skip_final_stage);
        assert!(a.exact_init.is_empty());
    }

    #[test]
    fn wrong_root_label_prunes_everything_but_the_root_fragment() {
        let q = compile_text("/portfolio/client/name").unwrap();
        let a = analyze(&q, &fig6(), "clientele");
        assert_eq!(a.relevant.len(), 1);
        assert!(a.relevant.contains(&FragmentId(0)));
    }

    #[test]
    fn xmark_q1_over_ft2_like_tree_prunes_deep_fragments() {
        // FT2 of Fig. 8: sub-fragments rooted at regions / open_auctions /
        // closed_auctions cannot contain /sites/site/people/person answers.
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("site"));
        ft.add_child(FragmentId(0), FragmentId(2), LabelPath::parse("site"));
        ft.add_child(FragmentId(0), FragmentId(3), LabelPath::parse("site"));
        ft.add_child(FragmentId(1), FragmentId(4), LabelPath::parse("regions"));
        ft.add_child(FragmentId(1), FragmentId(5), LabelPath::parse("open_auctions"));
        ft.add_child(FragmentId(2), FragmentId(6), LabelPath::parse("regions"));
        ft.add_child(FragmentId(2), FragmentId(7), LabelPath::parse("closed_auctions"));

        let q1 = compile_text("/sites/site/people/person").unwrap();
        let a = analyze(&q1, &ft, "sites");
        assert!(a.relevant.contains(&FragmentId(1)));
        assert!(a.relevant.contains(&FragmentId(2)));
        assert!(a.relevant.contains(&FragmentId(3)));
        assert!(!a.relevant.contains(&FragmentId(4)));
        assert!(!a.relevant.contains(&FragmentId(5)));
        assert!(!a.relevant.contains(&FragmentId(6)));
        assert!(!a.relevant.contains(&FragmentId(7)));

        // Q2 = /sites/site/open_auctions//annotation keeps the open_auctions
        // fragments but still prunes regions/closed_auctions (the paper's
        // point that `//` after a matching prefix does not kill pruning).
        let q2 = compile_text("/sites/site/open_auctions//annotation").unwrap();
        let a = analyze(&q2, &ft, "sites");
        assert!(a.relevant.contains(&FragmentId(5)));
        assert!(!a.relevant.contains(&FragmentId(4)));
        assert!(!a.relevant.contains(&FragmentId(6)));
        assert!(!a.relevant.contains(&FragmentId(7)));

        // Q4 = /sites//people/person[...]/creditcard has a leading-ish `//`:
        // every site fragment stays, and because the `//` can match at any
        // depth the regions fragments stay as well.
        let q4 = compile_text(
            "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
        )
        .unwrap();
        let a = analyze(&q4, &ft, "sites");
        for f in 1..8 {
            assert!(a.relevant.contains(&FragmentId(f)), "F{f} must stay for Q4");
        }
    }

    #[test]
    fn qualifier_free_queries_get_exact_init_vectors_for_every_relevant_fragment() {
        // Without qualifiers the chain vectors are exact, so *every* relevant
        // fragment must come with a concrete init vector and the final
        // answer-collection stage is skippable — one visit per site.
        let ft = fig6();
        for query_text in ["client/name", "client/broker/name", "//name", "*/*/name"] {
            let q = compile_text(query_text).unwrap();
            let a = analyze(&q, &ft, "clientele");
            assert!(a.can_skip_final_stage, "{query_text} has no qualifiers");
            for f in &a.relevant {
                if *f == FragmentId::ROOT {
                    continue;
                }
                let init = a.exact_init.get(f).unwrap_or_else(|| {
                    panic!("{query_text}: relevant fragment {f} lacks an exact init vector")
                });
                assert_eq!(init.len(), q.svect_len());
            }
            // Pruned fragments never get an init vector.
            for f in ft.ids() {
                if !a.relevant.contains(f) {
                    assert!(!a.exact_init.contains_key(f));
                }
            }
        }
    }

    #[test]
    fn everything_pruned_yields_an_empty_deployment_answer() {
        // A query whose first step matches nothing prunes every non-root
        // fragment — and the end-to-end evaluation over a real deployment
        // returns the empty answer after touching only the root fragment.
        use crate::{pax2, pax3, Deployment, EvalOptions, ExecCtx, ExecMode};
        use paxml_distsim::Placement;
        use paxml_fragment::fragment_at;
        use paxml_xml::TreeBuilder;

        let tree = TreeBuilder::new("clientele")
            .open("client")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .close()
            .close()
            .build();
        let broker = tree.find_first("broker").unwrap();
        let client = tree.find_first("client").unwrap();
        let fragmented = fragment_at(&tree, &[client, broker]).unwrap();

        for query in ["/portfolio/client/name", "zzz/name"] {
            let q = compile_text(query).unwrap();
            let a = analyze(&q, &fragmented.fragment_tree, "clientele");
            assert_eq!(a.relevant.len(), 1, "{query} must prune every non-root fragment");
            assert!(a.relevant.contains(&FragmentId::ROOT));

            let xa = EvalOptions::with_annotations();
            let d = Deployment::new(&fragmented, 3, Placement::RoundRobin);
            let ctx = ExecCtx::latest(&d, &fragmented);
            let p2 = pax2::run(ctx, &[(&q, query)], &xa, ExecMode::Query).unwrap();
            assert!(p2.answers().is_empty(), "{query} must have no answers");
            assert_eq!(p2.queries[0].fragments_evaluated, 1);
            let d = Deployment::new(&fragmented, 3, Placement::RoundRobin);
            let p3 = pax3::run(ExecCtx::latest(&d, &fragmented), &q, query, &xa).unwrap();
            assert!(p3.answers().is_empty());
            // Only the root fragment's site is ever visited.
            let visited: Vec<_> = d
                .stats()
                .sites
                .iter()
                .filter(|(_, s)| s.visits > 0)
                .map(|(site, _)| *site)
                .collect();
            let root_site = d.deployed_topology(&fragmented).site_of(FragmentId::ROOT);
            assert_eq!(visited, vec![root_site]);
        }
    }

    #[test]
    fn trie_analysis_is_identical_to_the_chain_analysis() {
        // The trie is a pure strength reduction: for *every* query and every
        // fragment tree the two analyses must agree exactly. Random fragment
        // trees (deterministic LCG) × a battery that covers qualifiers,
        // `//`, wildcards, absolute paths, attributes and positions.
        let labels = ["client", "broker", "market", "name", "stock"];
        let queries = [
            "client/name",
            "client/broker/name",
            "//name",
            "*/*/name",
            "/clientele/client/broker",
            "client[broker/market]/name",
            "client[name/text()='Anna']/broker",
            "//broker[not(market)]/name",
            "client[@vip]/name",
            "client/broker[2]/market",
            "client[1]/name[last()]",
            "//market[@cap > 100]/stock",
        ];
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..25 {
            let mut ft = FragmentTree::new();
            let fragment_count = 2 + next() % 12;
            for f in 1..fragment_count {
                let parent = FragmentId(next() % f);
                let depth = 1 + next() % 3;
                let path: Vec<&str> = (0..depth).map(|_| labels[next() % labels.len()]).collect();
                ft.add_child(parent, FragmentId(f), LabelPath::parse(&path.join("/")));
            }
            let trie = PathTrie::build(&ft, "clientele");
            for query_text in queries {
                let q = compile_text(query_text).unwrap();
                let plain = analyze(&q, &ft, "clientele");
                let via_trie = analyze_with_trie(&q, &trie);
                assert_eq!(plain, via_trie, "disagreement on {query_text} over {ft:?}");
            }
        }
    }

    #[test]
    fn trie_merges_shared_prefixes() {
        // Ten sibling fragments all reachable via client/broker: the chain
        // analysis walks 3 labels per fragment (30 vector computations), the
        // trie holds root + client + broker + one leaf each.
        let mut ft = FragmentTree::new();
        for f in 1..=10 {
            ft.add_child(
                FragmentId(0),
                FragmentId(f),
                LabelPath::parse(&format!("client/broker/market{f}")),
            );
        }
        let trie = PathTrie::build(&ft, "clientele");
        assert_eq!(trie.distinct_paths(), 1 + 2 + 10);
        let q = compile_text("client/broker/name").unwrap();
        assert_eq!(analyze_with_trie(&q, &trie), analyze(&q, &ft, "clientele"));
    }

    #[test]
    fn keep_all_is_the_na_baseline() {
        let ft = fig6();
        let a = AnnotationAnalysis::keep_all(&ft);
        assert_eq!(a.relevant.len(), 5);
        assert!(!a.can_skip_final_stage);
    }

    #[test]
    fn exact_init_matches_absolute_queries() {
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("site/people"));
        let q = compile_text("/sites/site/people/person").unwrap();
        let a = analyze(&q, &ft, "sites");
        let init = &a.exact_init[&FragmentId(1)];
        // Parent of the people-fragment root is a site node: prefix
        // sites/site (entry 2) is matched there.
        assert!(!init[0]);
        assert!(!init[1]);
        assert!(init[2]);
        assert!(!init[3]);
    }
}
