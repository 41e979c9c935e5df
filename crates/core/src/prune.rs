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
//!    round (this is why `PaX3-XA` needs one visit fewer for Q1 in Fig. 9);
//! 3. **which fragments hold no label the rest of the query needs** — the
//!    label path alone keeps every fragment under a `//`. When the topology
//!    carries [`FragmentLabels`], a fragment kept only as a possible answer
//!    holder (it feeds no qualifier) is dropped when it lacks a label of the
//!    selection steps still to match below its root: those of
//!    `sel_items[k..]`, `k` the highest true entry of the optimistic `SV` at
//!    the root. A query with exact inits checks the fragment's own element
//!    labels; every other query checks its whole FT subtree's, and drops a
//!    fragment whose FT parent is dropped, so each fragment that starts
//!    from variables has its parent's ancestor summary to resolve them.
//!    Label sets only ever grow between re-fragmentations (updates add the
//!    labels they insert and never remove any), so a set is always a
//!    superset of its data's labels and the pruning stays sound.

use paxml_fragment::{Fragment, FragmentId, FragmentTree, FragmentedTree, UpdateOp};
use paxml_xml::{NodeId, RecentLabels, XmlTree};
use paxml_xpath::eval::root_context_vector;
use paxml_xpath::{CompiledQuery, SelItem};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A trie over the label paths from the document root to every fragment
/// root.
///
/// Fragmentations in which many fragments hang off the same ancestor path
/// (the common case: cut every `client`, every `broker`, …) would pay for
/// each shared prefix once *per fragment* if every fragment's chain were
/// walked on its own. The trie merges those chains: each distinct prefix is
/// one node, each fragment is registered on the node its root path ends at,
/// and [`analyze_with_trie`] walks the trie once, computing every prefix's
/// `SV` vector exactly once — `O(|distinct paths| · |Q|)` instead of
/// `O(Σ path lengths · |Q|)`.
///
/// The trie depends only on the fragment tree and the document root label,
/// not on any query, so each annotated topology builds it once, with the
/// topology (see [`Topology::annotations`](crate::Topology::annotations)),
/// and shares it across all prepared queries. The topology's trie also
/// carries its fragments' label sets, and then prunes by them too.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTrie {
    /// Nodes in creation order; node 0 is the document root element.
    nodes: Vec<TrieNode>,
    /// The label sets of the fragments, when the analysis may prune by them.
    pub(crate) labels: Option<Arc<FragmentLabels>>,
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
        PathTrie { nodes, labels: None }
    }

    /// The same trie, pruning by `labels` too. They must describe the
    /// fragment tree the trie was built from.
    pub(crate) fn with_labels(self, labels: Arc<FragmentLabels>) -> PathTrie {
        PathTrie { labels: Some(labels), ..self }
    }

    /// Number of distinct label paths (trie nodes), including the root:
    /// [`analyze_with_trie`] computes exactly this many `SV` vectors.
    pub fn distinct_paths(&self) -> usize {
        self.nodes.len()
    }
}

/// Analyse the annotated fragment tree behind `trie` for `query`: the
/// relevant fragments, and their exact init vectors when the query has no
/// qualifiers. Label pruning (decision 3 of the module docs) applies when
/// the trie carries [`FragmentLabels`].
pub fn analyze_with_trie(query: &CompiledQuery, trie: &PathTrie) -> AnnotationAnalysis {
    let mut relevant: BTreeSet<FragmentId> = BTreeSet::new();
    let mut exact_init: BTreeMap<FragmentId, Vec<bool>> = BTreeMap::new();
    // Exact init vectors can only be derived from the annotations when the
    // query has neither qualifiers nor positional predicates: positional
    // facts depend on actual sibling order, which labels alone cannot give.
    // (Relevance pruning stays available for positional queries — ignoring
    // the positional constraints is optimistic, hence sound.)
    let no_qualifiers = !query.has_qualifiers() && !query.has_positions();
    let qualifier_positions = qualifier_positions(query);
    let pruning = trie.labels.as_deref().map(|labels| (labels, labels.needed_after(query)));

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
        // The highest prefix matched at the fragment root: what is left of
        // the selection path below it needs the fewest labels.
        let matched = sv.iter().rposition(|&b| b);
        if matched.is_some() || feeds {
            for &fragment in &node.fragments {
                let lacks_a_label = match (&pruning, matched) {
                    (Some((labels, needed)), Some(k)) if !feeds => {
                        !labels.holds_all(fragment, &needed[k], no_qualifiers)
                    }
                    _ => false,
                };
                if lacks_a_label {
                    continue;
                }
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
    if let (Some((labels, _)), false) = (&pruning, no_qualifiers) {
        labels.drop_orphans(&mut relevant);
    }

    AnnotationAnalysis { relevant, exact_init, can_skip_final_stage: no_qualifiers }
}

/// Outcome of analysing the annotated fragment tree for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationAnalysis {
    /// Fragments that must participate in the selection evaluation.
    pub relevant: BTreeSet<FragmentId>,
    /// When the query has no qualifiers: the exact initial `SV` vector
    /// (ancestor summary) of every relevant fragment, derived purely from
    /// the annotations. Empty when the query has qualifiers, in which case
    /// the fragments start from variables as usual.
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

/// A set of labels, one bit per label id of a [`FragmentLabels`].
type LabelSet = Vec<u64>;

/// The labels a fragment must hold for the selection path to complete
/// below a prefix; `None` when one of them is held by no fragment at all.
type Needed = Option<LabelSet>;

fn insert(set: &mut LabelSet, id: u32) {
    let word = id as usize / 64;
    if set.len() <= word {
        set.resize(word + 1, 0);
    }
    set[word] |= 1 << (id % 64);
}

fn union(into: &mut LabelSet, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (word, bits) in into.iter_mut().zip(other) {
        *word |= bits;
    }
}

/// The element labels each fragment holds, and each fragment's FT subtree
/// holds: the summaries behind decision 3 of the module docs.
///
/// Built once per deployment with annotations, in one linear pass over
/// every fragment's arena with no per-node allocation. Detached nodes are
/// read too, so a set may hold labels its fragment no longer has — never
/// the other way round. An update grows the sets with the labels its
/// inserts and relabels bring in (`FragmentLabels::grown`), a
/// re-fragmentation re-reads the fragments it installs
/// (`FragmentLabels::refragmented`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FragmentLabels {
    /// Label → id, dense in first-seen order.
    ids: HashMap<String, u32>,
    /// The labels of each fragment's own elements.
    own: BTreeMap<FragmentId, LabelSet>,
    /// The labels of each fragment's FT subtree (itself included).
    subtree: BTreeMap<FragmentId, LabelSet>,
    /// Every fragment with its FT parent, in top-down order.
    top_down: Vec<(FragmentId, Option<FragmentId>)>,
}

impl FragmentLabels {
    /// The label sets of a fragmentation.
    pub fn build(fragmented: &FragmentedTree) -> FragmentLabels {
        let mut labels = FragmentLabels::default();
        for fragment in &fragmented.fragments {
            labels.own.insert(fragment.id, set_of(&mut labels.ids, element_labels(&fragment.tree)));
        }
        labels.index(&fragmented.fragment_tree);
        labels
    }

    /// Does `fragment` hold an element labelled `label`?
    pub fn holds(&self, fragment: FragmentId, label: &str) -> bool {
        self.contains(&self.own, fragment, label)
    }

    /// Does `fragment`'s FT subtree hold an element labelled `label`?
    pub fn subtree_holds(&self, fragment: FragmentId, label: &str) -> bool {
        self.contains(&self.subtree, fragment, label)
    }

    fn contains(
        &self,
        sets: &BTreeMap<FragmentId, LabelSet>,
        fragment: FragmentId,
        label: &str,
    ) -> bool {
        let (Some(&id), Some(set)) = (self.ids.get(label), sets.get(&fragment)) else {
            return false;
        };
        set.get(id as usize / 64).is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    /// These sets after `ops`, when the ops bring a label into a fragment
    /// that did not hold it: `InsertSubtree` brings its subtree's labels,
    /// `Relabel` its new label. `None` when no set grows. Labels are added
    /// whether or not a site goes on to accept the op, which only makes a
    /// set larger.
    pub(crate) fn grown(
        &self,
        ops: &BTreeMap<FragmentId, Vec<UpdateOp>>,
        ft: &FragmentTree,
    ) -> Option<FragmentLabels> {
        let mut next: Option<FragmentLabels> = None;
        for (&fragment, ops) in ops {
            for label in ops.iter().flat_map(brought_labels) {
                if !next.as_ref().unwrap_or(self).holds(fragment, label) {
                    let next = next.get_or_insert_with(|| self.clone());
                    let id = id_of(&mut next.ids, label);
                    insert(next.own.entry(fragment).or_default(), id);
                }
            }
        }
        next.map(|mut next| {
            next.index(ft);
            next
        })
    }

    /// The sets after a re-fragmentation to `ft`: the fragments in
    /// `installs` are read afresh, every other fragment of `ft` keeps its
    /// set (its data did not change), and the subtree sets follow the new
    /// tree.
    pub(crate) fn refragmented(&self, ft: &FragmentTree, installs: &[Fragment]) -> FragmentLabels {
        let mut next = FragmentLabels { ids: self.ids.clone(), ..FragmentLabels::default() };
        for fragment in installs {
            // Reachable elements only: a split leaves the cut subtree
            // detached in the parent's arena.
            let tree = &fragment.tree;
            let reachable = tree.all_nodes().filter_map(|node| tree.label(node));
            next.own.insert(fragment.id, set_of(&mut next.ids, reachable));
        }
        for fragment in ft.ids() {
            if let Some(set) = self.own.get(fragment) {
                next.own.entry(*fragment).or_insert_with(|| set.clone());
            }
        }
        next.index(ft);
        next
    }

    /// Derive the subtree sets and the top-down order from the own sets.
    fn index(&mut self, ft: &FragmentTree) {
        self.own.retain(|fragment, _| ft.contains(*fragment));
        self.top_down = ft.top_down_order().into_iter().map(|f| (f, ft.parent(f))).collect();
        self.subtree.clear();
        for &(fragment, _) in self.top_down.iter().rev() {
            let mut set = self.own.get(&fragment).cloned().unwrap_or_default();
            for child in ft.children(fragment) {
                union(&mut set, &self.subtree[child]);
            }
            self.subtree.insert(fragment, set);
        }
    }

    /// For each `k` in `0..=|sel_items|`: the labels of the label steps in
    /// `sel_items[k..]`.
    fn needed_after(&self, query: &CompiledQuery) -> Vec<Needed> {
        let mut needed: Vec<Needed> = vec![Some(LabelSet::new())];
        for item in query.sel_items.iter().rev() {
            let mut next = needed.last().cloned().expect("starts non-empty");
            if let SelItem::Label(label) = item {
                next = next.zip(self.ids.get(label)).map(|(mut set, &id)| {
                    insert(&mut set, id);
                    set
                });
            }
            needed.push(next);
        }
        needed.reverse();
        needed
    }

    /// Does `fragment` (`own`) or its FT subtree hold every label of
    /// `needed`? A fragment the sets do not know is assumed to hold all.
    fn holds_all(&self, fragment: FragmentId, needed: &Needed, own: bool) -> bool {
        let Some(set) = (if own { &self.own } else { &self.subtree }).get(&fragment) else {
            return true;
        };
        let Some(needed) = needed else { return false };
        needed.iter().enumerate().all(|(i, &bits)| bits & !set.get(i).copied().unwrap_or(0) == 0)
    }

    /// Drop every fragment whose FT parent is not in `relevant`.
    fn drop_orphans(&self, relevant: &mut BTreeSet<FragmentId>) {
        for &(fragment, parent) in &self.top_down {
            if parent.is_some_and(|parent| !relevant.contains(&parent)) {
                relevant.remove(&fragment);
            }
        }
    }
}

/// The labels an update op brings into its fragment.
fn brought_labels(op: &UpdateOp) -> Vec<&str> {
    match op {
        UpdateOp::InsertSubtree { subtree, .. } => element_labels(subtree).collect(),
        UpdateOp::Relabel { label, .. } => vec![label.as_str()],
        UpdateOp::DeleteSubtree { .. } | UpdateOp::EditText { .. } => Vec::new(),
    }
}

/// The labels of every element of `tree`'s arena, detached ones included.
/// A linear scan: walking the reachable nodes instead takes FT2's build at
/// 20 vMB from 0.6 to 1.5 ms (2-core x86-64 host).
fn element_labels(tree: &XmlTree) -> impl Iterator<Item = &str> {
    (0..tree.node_count()).filter_map(|index| tree.label(NodeId::from_index(index)))
}

/// The set of `labels`, giving each label new to `ids` the next id. A
/// [`RecentLabels`] cache sits in front of the map (a map lookup per element
/// takes FT2's build at 20 vMB from 0.6 to 1.45 ms).
fn set_of<'l>(ids: &mut HashMap<String, u32>, labels: impl Iterator<Item = &'l str>) -> LabelSet {
    let mut recent = RecentLabels::default();
    let mut set = LabelSet::new();
    for label in labels {
        insert(&mut set, recent.id(label, |label| id_of(ids, label)));
    }
    set
}

/// The id of `label`, given the next id if `ids` does not hold it yet.
fn id_of(ids: &mut HashMap<String, u32>, label: &str) -> u32 {
    match ids.get(label) {
        Some(&id) => id,
        None => {
            let id = ids.len() as u32;
            ids.insert(label.to_string(), id);
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_distsim::Cluster;
    use paxml_xml::LabelPath;
    use paxml_xpath::compile_text;

    /// The path-only analysis of `query` over `ft`.
    fn paths(query: &CompiledQuery, ft: &FragmentTree, root_label: &str) -> AnnotationAnalysis {
        analyze_with_trie(query, &PathTrie::build(ft, root_label))
    }

    /// Label sets over `ft` from each fragment's own labels.
    fn labels_of(ft: &FragmentTree, own: &[(usize, &[&str])]) -> Arc<FragmentLabels> {
        let mut labels = FragmentLabels::default();
        for &(fragment, held) in own {
            let set = set_of(&mut labels.ids, held.iter().copied());
            labels.own.insert(FragmentId(fragment), set);
        }
        labels.index(ft);
        Arc::new(labels)
    }

    /// The label-pruning analysis of `query` over `ft` with `labels`.
    fn pruned(
        query: &str,
        ft: &FragmentTree,
        root_label: &str,
        labels: &Arc<FragmentLabels>,
    ) -> AnnotationAnalysis {
        let trie = PathTrie::build(ft, root_label).with_labels(Arc::clone(labels));
        analyze_with_trie(&compile_text(query).unwrap(), &trie)
    }

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
        let a = paths(&q, &fig6(), "clientele");
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
        let a = paths(&q, &fig6(), "clientele");
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
        let a = paths(&q, &fig6(), "clientele");
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
        let a = paths(&q, &fig6(), "clientele");
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
        let a = paths(&q, &fig6(), "clientele");
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
        let a = paths(&q1, &ft, "sites");
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
        let a = paths(&q2, &ft, "sites");
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
        let a = paths(&q4, &ft, "sites");
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
            let a = paths(&q, &ft, "clientele");
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
        use crate::{pax2, pax3, Deployment, ExecCtx, ExecMode};
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
            let a = paths(&q, &fragmented.fragment_tree, "clientele");
            assert_eq!(a.relevant.len(), 1, "{query} must prune every non-root fragment");
            assert!(a.relevant.contains(&FragmentId::ROOT));

            let d = Deployment::over_transport(Arc::new(Cluster::new(
                &fragmented,
                3,
                Placement::RoundRobin,
            )));
            let ctx = ExecCtx::latest(&d, &fragmented, true);
            let p2 = pax2::run(ctx, &[(&q, query)], ExecMode::Query).unwrap();
            assert!(p2.answers().is_empty(), "{query} must have no answers");
            assert_eq!(p2.queries[0].fragments_evaluated, 1);
            let d = Deployment::over_transport(Arc::new(Cluster::new(
                &fragmented,
                3,
                Placement::RoundRobin,
            )));
            let p3 = pax3::run(ExecCtx::latest(&d, &fragmented, true), &q, query).unwrap();
            assert!(p3.answers().is_empty());
            // Only the root fragment's site is ever visited.
            let visited: Vec<_> = d
                .stats()
                .sites
                .iter()
                .filter(|(_, s)| s.visits > 0)
                .map(|(site, _)| *site)
                .collect();
            let root_site = d.deployed_topology(&fragmented, true).site_of(FragmentId::ROOT);
            assert_eq!(visited, vec![root_site]);
        }
    }

    #[test]
    fn label_pruning_only_removes_fragments_and_keeps_every_parent_it_needs() {
        // Random fragment trees and label sets (deterministic LCG) × a
        // battery that covers qualifiers, `//`, wildcards, absolute paths,
        // attributes and positions: the label-pruned analysis keeps a
        // subset of the path-only one, the same exact inits for what it
        // keeps, and the FT parent of every kept fragment that starts from
        // variables.
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
            "//client[.//market]/name",
        ];
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut pruned_somewhere = 0;
        for _ in 0..25 {
            let mut ft = FragmentTree::new();
            let fragment_count = 2 + next() % 12;
            for f in 1..fragment_count {
                let parent = FragmentId(next() % f);
                let depth = 1 + next() % 3;
                let path: Vec<&str> = (0..depth).map(|_| labels[next() % labels.len()]).collect();
                ft.add_child(parent, FragmentId(f), LabelPath::parse(&path.join("/")));
            }
            let own: Vec<Vec<&str>> = (0..fragment_count)
                .map(|_| labels.iter().copied().filter(|_| next() % 3 == 0).collect())
                .collect();
            let own: Vec<(usize, &[&str])> =
                own.iter().enumerate().map(|(f, held)| (f, held.as_slice())).collect();
            let sets = labels_of(&ft, &own);
            for query_text in queries {
                let q = compile_text(query_text).unwrap();
                let path_only = paths(&q, &ft, "clientele");
                let with_labels = pruned(query_text, &ft, "clientele", &sets);
                assert!(with_labels.relevant.is_subset(&path_only.relevant), "{query_text}");
                pruned_somewhere += path_only.relevant.len() - with_labels.relevant.len();
                for f in &with_labels.relevant {
                    assert_eq!(with_labels.exact_init.get(f), path_only.exact_init.get(f));
                    if !with_labels.exact_init.contains_key(f) {
                        let parent = ft.parent(*f);
                        assert!(
                            parent.is_none_or(|p| with_labels.relevant.contains(&p)),
                            "{query_text}: {f} starts from variables under a pruned parent"
                        );
                    }
                }
            }
        }
        assert!(pruned_somewhere > 0, "the battery must exercise label pruning");
    }

    #[test]
    fn trie_merges_shared_prefixes() {
        // Ten sibling fragments all reachable via client/broker: walking each
        // chain on its own takes 3 labels per fragment (30 vector
        // computations), the trie holds root + client + broker + one leaf
        // each.
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
        let q = compile_text("client/broker/*").unwrap();
        assert_eq!(analyze_with_trie(&q, &trie).relevant.len(), 11);
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
        let a = paths(&q, &ft, "sites");
        let init = &a.exact_init[&FragmentId(1)];
        // Parent of the people-fragment root is a site node: prefix
        // sites/site (entry 2) is matched there.
        assert!(!init[0]);
        assert!(!init[1]);
        assert!(init[2]);
        assert!(!init[3]);
    }

    /// The clientele of the running example cut at `broker` and `market`:
    /// F0 the clients, F1/F3 the brokers, F2/F4 their markets.
    fn clientele_at_brokers_and_markets() -> (paxml_xml::XmlTree, FragmentedTree) {
        let mut builder = paxml_xml::TreeBuilder::new("clientele");
        for (name, broker, market) in [("Anna", "E*trade", "NASDAQ"), ("Lisa", "CIBC", "TSE")] {
            builder = builder
                .open("client")
                .leaf("name", name)
                .open("broker")
                .leaf("name", broker)
                .open("market")
                .leaf("name", market)
                .open("stock")
                .leaf("code", "GOOG")
                .close()
                .close()
                .close()
                .close();
        }
        let tree = builder.build();
        let fragmented = paxml_fragment::strategy::cut_at_labels(&tree, &["broker", "market"]);
        (tree, fragmented.unwrap())
    }

    /// Label-pruned PaX2 and PaX3 answers of `query` equal the centralized
    /// ones; returns the fragments PaX2 evaluated.
    fn answers_match_centralized(
        tree: &paxml_xml::XmlTree,
        fragmented: &FragmentedTree,
        query: &str,
    ) -> usize {
        use crate::{Algorithm, PaxServer};
        let mut expected = paxml_xpath::centralized::evaluate(tree, query).unwrap().answers;
        expected.sort();
        let mut evaluated = Vec::new();
        for algorithm in [Algorithm::PaX2, Algorithm::PaX3] {
            let server = PaxServer::builder()
                .algorithm(algorithm)
                .annotations(true)
                .sites(3)
                .deploy(fragmented)
                .unwrap();
            let report = server.query_once(query).unwrap();
            assert_eq!(report.answer_origins(), expected, "{algorithm} on {query}");
            evaluated.push(report.queries[0].fragments_evaluated);
        }
        assert_eq!(evaluated[0], evaluated[1]);
        evaluated[0]
    }

    #[test]
    fn ft2_label_sets_prune_the_sections_a_descendant_query_cannot_reach() {
        // FT2 of Fig. 8 as in the path-only test above, with each
        // fragment's labels: the site fragments hold people, the others
        // hold none.
        let mut ft = FragmentTree::new();
        for f in 1..=3 {
            ft.add_child(FragmentId(0), FragmentId(f), LabelPath::parse("site"));
        }
        ft.add_child(FragmentId(1), FragmentId(4), LabelPath::parse("regions"));
        ft.add_child(FragmentId(1), FragmentId(5), LabelPath::parse("open_auctions"));
        ft.add_child(FragmentId(2), FragmentId(6), LabelPath::parse("regions"));
        ft.add_child(FragmentId(2), FragmentId(7), LabelPath::parse("closed_auctions"));
        let people: &[&str] = &["site", "people", "person", "profile", "age", "creditcard"];
        let labels = labels_of(
            &ft,
            &[
                (0, &["sites"]),
                (1, people),
                (2, people),
                (3, people),
                (4, &["regions", "item", "name"]),
                (5, &["open_auctions", "auction", "annotation"]),
                (6, &["regions", "item", "name"]),
                (7, &["closed_auctions", "annotation"]),
            ],
        );
        // Q4's `//` keeps every fragment by path; by labels only the site
        // fragments can hold a people/person/creditcard chain.
        let q4 = "/sites//people/person[profile/age > 20]/creditcard";
        let a = pruned(q4, &ft, "sites", &labels);
        assert_eq!(a.relevant, (0..=3).map(FragmentId).collect());
        // `//annotation` below open_auctions keeps every site fragment by
        // path; F5 is the only fragment whose own labels hold both.
        let q2 = "/sites/site/open_auctions//annotation";
        let a = paths(&compile_text(q2).unwrap(), &ft, "sites");
        assert_eq!(a.relevant, [0, 1, 2, 3, 5].into_iter().map(FragmentId).collect());
        let a = pruned(q2, &ft, "sites", &labels);
        assert_eq!(a.relevant, [0, 5].into_iter().map(FragmentId).collect());
        assert!(a.can_skip_final_stage);
        // A label no fragment holds prunes every fragment it is needed in.
        let a = pruned("//bidder", &ft, "sites", &labels);
        assert_eq!(a.relevant, BTreeSet::from([FragmentId::ROOT]));
    }

    #[test]
    fn exact_queries_check_a_fragments_own_labels() {
        // `//market/stock` starts every fragment exact: the broker fragments
        // hold no market of their own and are dropped although their
        // subtrees do, while the market fragments stay without them.
        let (tree, fragmented) = clientele_at_brokers_and_markets();
        let labels = Arc::new(FragmentLabels::build(&fragmented));
        let a = pruned("//market/stock", &fragmented.fragment_tree, "clientele", &labels);
        assert_eq!(a.relevant, [0, 2, 4].into_iter().map(FragmentId).collect());
        assert_eq!(answers_match_centralized(&tree, &fragmented, "//market/stock"), 3);
    }

    #[test]
    fn qualifier_queries_check_the_labels_of_the_whole_ft_subtree() {
        // The same steps with a qualifier: the market fragments start from
        // variables resolved by their broker fragment's virtual-node summary,
        // so the broker fragments stay — their FT subtrees hold a stock.
        let (tree, fragmented) = clientele_at_brokers_and_markets();
        let labels = Arc::new(FragmentLabels::build(&fragmented));
        let query = "//broker//stock[code]";
        for f in [1, 3] {
            assert!(!labels.holds(FragmentId(f), "stock"));
            assert!(labels.subtree_holds(FragmentId(f), "stock"));
        }
        let a = pruned(query, &fragmented.fragment_tree, "clientele", &labels);
        assert_eq!(a.relevant.len(), 5);
        assert_eq!(answers_match_centralized(&tree, &fragmented, query), 5);
        // Nothing below a broker holds a `country`: only F0 stays.
        let query = "//broker//country[text()='US']";
        let a = pruned(query, &fragmented.fragment_tree, "clientele", &labels);
        assert_eq!(a.relevant, BTreeSet::from([FragmentId::ROOT]));
    }

    #[test]
    fn a_fragment_feeding_a_qualifier_is_never_pruned_by_labels() {
        // The broker and market fragments hold no `client`, so they hold no
        // answer of `//client[…]/name` — but the qualifier of the client
        // above them reads their markets.
        let (tree, fragmented) = clientele_at_brokers_and_markets();
        let labels = Arc::new(FragmentLabels::build(&fragmented));
        let query = "//client[broker/market/name/text()='NASDAQ']/name";
        let a = pruned(query, &fragmented.fragment_tree, "clientele", &labels);
        assert_eq!(a.relevant.len(), 5);
        assert_eq!(answers_match_centralized(&tree, &fragmented, query), 5);
    }

    #[test]
    fn a_pruned_parent_takes_its_feeding_children_with_it() {
        // `//a[x]/b` over r → F1 (p, holding an `a`) → F2 (c, below that
        // `a`). F2 feeds the qualifier of the `a`, but no `b` exists in
        // F1's subtree, so nothing below F1 can be an answer: F1 is pruned
        // by labels, and F2, left without the summary its variables need,
        // goes with it.
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("p"));
        ft.add_child(FragmentId(1), FragmentId(2), LabelPath::parse("a/c"));
        let labels = labels_of(&ft, &[(0, &["r"]), (1, &["p", "a"]), (2, &["c", "x"])]);
        let a = pruned("//a[x]/b", &ft, "r", &labels);
        assert_eq!(a.relevant, BTreeSet::from([FragmentId::ROOT]));
        let q = compile_text("//a[x]/b").unwrap();
        assert_eq!(paths(&q, &ft, "r").relevant.len(), 3);
    }

    #[test]
    fn inserts_and_relabels_grow_the_label_sets() {
        let (_, fragmented) = clientele_at_brokers_and_markets();
        let ft = &fragmented.fragment_tree;
        let labels = FragmentLabels::build(&fragmented);
        let f2 = &fragmented.fragments[2];
        let stock = f2.tree.find_first("stock").unwrap();
        let code = f2.tree.find_first("code").unwrap();
        let ops = |ops: Vec<UpdateOp>| BTreeMap::from([(FragmentId(2), ops)]);

        // Ops that bring no label, or only labels F2 holds, grow nothing.
        let text = f2.tree.children(code).next().unwrap();
        let edit = UpdateOp::EditText { node: text, text: "YHOO".into() };
        let delete = UpdateOp::DeleteSubtree { node: stock };
        let held = paxml_xml::TreeBuilder::new("stock").leaf("code", "IBM").build();
        let insert_held = UpdateOp::InsertSubtree { parent: stock, subtree: held, origin_base: 99 };
        assert_eq!(labels.grown(&ops(vec![edit, delete, insert_held]), ft), None);

        let fresh = paxml_xml::TreeBuilder::new("order").leaf("qty", "5").build();
        let insert = UpdateOp::InsertSubtree { parent: stock, subtree: fresh, origin_base: 99 };
        let relabel = UpdateOp::Relabel { node: code, label: "ticker".into() };
        let grown = labels.grown(&ops(vec![insert, relabel]), ft).unwrap();
        for label in ["order", "qty", "ticker", "code", "stock"] {
            assert!(grown.holds(FragmentId(2), label), "{label}");
            for f in [0, 1, 2] {
                assert!(grown.subtree_holds(FragmentId(f), label), "F{f} subtree lacks {label}");
            }
        }
        assert!(!grown.holds(FragmentId(1), "order"));
        assert!(!labels.holds(FragmentId(2), "order"), "the base sets stay as they were");
    }
}
