//! Per-node label summaries: what each subtree of a tree holds, so that a
//! top-down sweep can tell, at a node, that nothing it looks for lies below;
//! and what each node is to a qualifier test, so that a bottom-up sweep reads
//! a symbol or a parsed number instead of a string.

use crate::{NodeId, NodeKind, XmlTree};
use std::collections::HashMap;

/// The bit every label past the 63rd shares. Sharing only makes a node's
/// bits a superset of its labels, which a reader testing "every label I need
/// is below" may over-approximate.
const SHARED_BIT: u32 = 63;

/// A node's raw key at or above this is a text node or a virtual node;
/// below it, an element's label symbol.
const NUMBER: u32 = 1 << 31;
/// The raw key of a text node that reads as no number.
const TEXT: u32 = u32::MAX;
/// The raw key of a virtual node.
const VIRTUAL: u32 = u32::MAX - 1;

/// `text` read as a number: whitespace trimmed, a leading `$` tolerated,
/// then whatever `f64::from_str` accepts. This is the one definition the
/// qualifier tests `ValTest` and `AttrCmpTest` compare by.
pub fn text_number(text: &str) -> Option<f64> {
    let text = text.trim();
    let text = text.strip_prefix('$').unwrap_or(text);
    // Every string `f64::from_str` accepts starts with a digit, a sign or a
    // point, or is `inf`, `infinity` or `nan` in any case: a word is refused
    // without parsing it.
    let parses = match text.as_bytes().first()? {
        b'0'..=b'9' | b'+' | b'-' | b'.' => true,
        b'i' | b'I' | b'n' | b'N' => {
            ["inf", "infinity", "nan"].iter().any(|word| text.eq_ignore_ascii_case(word))
        }
        _ => false,
    };
    parses.then(|| text.parse().ok()).flatten()
}

/// A direct-mapped cache of recently seen labels and the ids a table gave
/// them, read in front of that table: over a document most elements cost
/// one short string compare instead of a hash lookup.
#[derive(Debug)]
pub struct RecentLabels<'l> {
    slots: [Option<(&'l str, u32)>; 256],
}

impl Default for RecentLabels<'_> {
    fn default() -> Self {
        RecentLabels { slots: [None; 256] }
    }
}

impl<'l> RecentLabels<'l> {
    /// The id of `label`: the cached one, or the one `id_of` gives it,
    /// which is then cached.
    #[inline]
    pub fn id(&mut self, label: &'l str, id_of: impl FnOnce(&str) -> u32) -> u32 {
        let bytes = label.as_bytes();
        let ends = bytes.first().zip(bytes.last());
        let ends = ends.map_or(0, |(&first, &last)| usize::from(first) ^ usize::from(last) << 3);
        let slot = &mut self.slots[(ends ^ bytes.len() << 5) % 256];
        match *slot {
            Some((seen, id)) if seen == label => id,
            _ => {
                let id = id_of(label);
                *slot = Some((label, id));
                id
            }
        }
    }
}

/// What a node is to a qualifier test: its [`LabelSummary::key`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AtomKey {
    /// An element, by its label's symbol ([`LabelSummary::symbol`]).
    Element(u32),
    /// A text node whose value reads as this number ([`text_number`]).
    Number(f64),
    /// Any other text node.
    Text,
    /// A virtual node.
    Virtual,
}

/// The per-version index of an [`XmlTree`]. For every node: the element
/// labels strictly below it, its subtree size, whether a virtual node lies
/// below it, and its [`AtomKey`].
///
/// Labels are symbols of a table local to the tree, in post-order of first
/// occurrence. A label's bit is `1 << min(symbol, 63)`: the first 63 have a
/// bit each and the rest share bit 63. The root's label, when no node below
/// it carries it, takes the last symbol and no bit. A text node's key holds
/// the slot of its value's number in a table parsed once per summary.
///
/// [`LabelSummary::of`] builds it in one iterative post-order pass, at 16⅛
/// bytes per arena node plus 8 per text that reads as a number. A summary
/// describes the tree it was built from and goes stale with any edit of it:
/// its holder rebuilds it per version.
#[derive(Debug, Clone, Default)]
pub struct LabelSummary {
    /// The symbol of every element label reachable from the root.
    symbols: HashMap<String, u32>,
    /// Symbols of the labels below the root: all but, perhaps, the root's.
    symbols_below: u32,
    /// Per arena index: the bits of the labels strictly below the node.
    below: Vec<u64>,
    /// Per arena index: the node's subtree size (0 for a detached node).
    sizes: Vec<u32>,
    /// Bit `k` of word `k / 64`: a virtual node lies strictly below node `k`.
    virtual_below: Vec<u64>,
    /// Per arena index: the node's key — a label symbol, [`NUMBER`] plus a
    /// slot of `numbers`, [`TEXT`] or [`VIRTUAL`].
    keys: Vec<u32>,
    /// The numbers the texts read as, by slot.
    numbers: Vec<f64>,
}

impl LabelSummary {
    /// The summary of every node reachable from `tree`'s root.
    pub fn of(tree: &XmlTree) -> LabelSummary {
        let nodes = tree.node_count();
        let mut summary = LabelSummary {
            below: vec![0; nodes],
            sizes: vec![0; nodes],
            virtual_below: vec![0; nodes.div_ceil(64)],
            keys: vec![TEXT; nodes],
            // Room for every node to be a number, so that no push grows the
            // table; it is trimmed once at the end, and the pages past the
            // last number are never touched.
            numbers: Vec::with_capacity(nodes),
            ..LabelSummary::default()
        };
        let mut recent = RecentLabels::default();
        // Post-order finishes a node after all of its children, each of
        // which has already added itself to it: the node adds itself to its
        // parent in turn.
        for v in tree.post_order(tree.root()) {
            let (k, size) = (v.index(), summary.sizes[v.index()] + 1);
            summary.sizes[k] = size;
            let parent = tree.parent(v);
            if parent.is_none() {
                // The root comes last: every label so far is below it.
                summary.symbols_below = summary.symbols.len() as u32;
            }
            let (key, own) = match tree.kind(v) {
                NodeKind::Element { label, .. } => {
                    let symbol = recent.id(label, |label| summary.symbol_or_insert(label));
                    (symbol, 1 << symbol.min(SHARED_BIT))
                }
                NodeKind::Text { value } => match text_number(value) {
                    Some(number) => {
                        summary.numbers.push(number);
                        (NUMBER | (summary.numbers.len() - 1) as u32, 0)
                    }
                    None => (TEXT, 0),
                },
                NodeKind::Virtual { .. } => (VIRTUAL, 0),
            };
            summary.keys[k] = key;
            let Some(parent) = parent else { continue };
            let p = parent.index();
            summary.below[p] |= summary.below[k] | own;
            summary.sizes[p] += size;
            if key == VIRTUAL || summary.has_virtual_below(v) {
                summary.virtual_below[p / 64] |= 1 << (p % 64);
            }
        }
        summary.numbers.shrink_to_fit();
        summary
    }

    fn symbol_or_insert(&mut self, label: &str) -> u32 {
        if let Some(&symbol) = self.symbols.get(label) {
            return symbol;
        }
        let symbol = self.symbols.len() as u32;
        self.symbols.insert(label.to_string(), symbol);
        symbol
    }

    /// The bit of `label`, or `None` when no element below the root carries
    /// it (the root is below no node).
    pub fn bit(&self, label: &str) -> Option<u64> {
        let symbol = self.symbol(label).filter(|&symbol| symbol < self.symbols_below)?;
        Some(1 << symbol.min(SHARED_BIT))
    }

    /// The symbol of `label`, or `None` when no element of the tree carries
    /// it. Symbols run from 0 up, one per distinct label.
    pub fn symbol(&self, label: &str) -> Option<u32> {
        self.symbols.get(label).copied()
    }

    /// What `v` is to a qualifier test. Defined for the nodes reachable
    /// from the root.
    #[inline]
    pub fn key(&self, v: NodeId) -> AtomKey {
        match self.keys[v.index()] {
            TEXT => AtomKey::Text,
            VIRTUAL => AtomKey::Virtual,
            key if key >= NUMBER => AtomKey::Number(self.numbers[(key - NUMBER) as usize]),
            symbol => AtomKey::Element(symbol),
        }
    }

    /// The bits of the element labels strictly below `v`.
    #[inline]
    pub fn below(&self, v: NodeId) -> u64 {
        self.below[v.index()]
    }

    /// The number of nodes in `v`'s subtree, `v` included — what
    /// [`XmlTree::subtree_size`] counts.
    #[inline]
    pub fn size(&self, v: NodeId) -> u32 {
        self.sizes[v.index()]
    }

    /// Does a virtual node lie strictly below `v`?
    #[inline]
    pub fn has_virtual_below(&self, v: NodeId) -> bool {
        self.virtual_below[v.index() / 64] >> (v.index() % 64) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeKind, TreeBuilder};
    use std::collections::BTreeSet;

    /// `<r><a><b/>t<x/></a><c>F1</c><d/></r>`, with `F1` a virtual node.
    fn sample() -> XmlTree {
        TreeBuilder::new("r")
            .open("a")
            .element("b")
            .text("t")
            .element("x")
            .close()
            .open("c")
            .virtual_node(1, Some("m".into()))
            .close()
            .element("d")
            .build()
    }

    /// The labels strictly below `v`, read off the tree.
    fn labels_below(tree: &XmlTree, v: NodeId) -> BTreeSet<&str> {
        tree.descendants(v).filter_map(|d| tree.label(d)).collect()
    }

    #[test]
    fn sizes_bits_and_virtual_nodes_match_the_tree() {
        let tree = sample();
        let summary = LabelSummary::of(&tree);
        for v in tree.all_nodes() {
            assert_eq!(summary.size(v) as usize, tree.subtree_size(v), "size of {v:?}");
            let bits = labels_below(&tree, v).iter().fold(0, |b, l| b | summary.bit(l).unwrap());
            assert_eq!(summary.below(v), bits, "labels below {v:?}");
            let held = tree.descendants(v).any(|d| tree.is_virtual(d));
            assert_eq!(summary.has_virtual_below(v), held, "virtual below {v:?}");
        }
        assert_eq!(summary.bit("m"), None, "a virtual node's root label is no element label");
        assert_eq!(summary.bit("zzz"), None);
        let (a, c) = (tree.find_first("a").unwrap(), tree.find_first("c").unwrap());
        assert!(summary.has_virtual_below(tree.root()) && summary.has_virtual_below(c));
        assert!(!summary.has_virtual_below(a));
    }

    #[test]
    fn a_detached_subtree_leaves_its_parent_and_counts_nothing() {
        let mut tree = sample();
        let a = tree.find_first("a").unwrap();
        let x = tree.find_first("x").unwrap();
        tree.detach(a).unwrap();
        let summary = LabelSummary::of(&tree);
        assert_eq!(summary.size(tree.root()) as usize, tree.subtree_size(tree.root()));
        assert_eq!((summary.size(a), summary.size(x)), (0, 0));
        assert_eq!(summary.bit("x"), None);
    }

    #[test]
    fn labels_past_the_63rd_share_the_last_bit() {
        // 101 distinct labels: `l{k}` under the `k`-th `p` below `r`.
        let mut tree = XmlTree::with_root_element("r");
        let root = tree.root();
        let parents: Vec<NodeId> = (0..100)
            .map(|k| {
                let p = tree.append_element(root, "p");
                tree.append_element(p, format!("l{k}"));
                p
            })
            .collect();
        let summary = LabelSummary::of(&tree);
        let mut shared = 0;
        let mut own = BTreeSet::new();
        for label in ["p".to_string()].into_iter().chain((0..100).map(|k| format!("l{k}"))) {
            let bit = summary.bit(&label).unwrap();
            assert_eq!(bit.count_ones(), 1);
            if bit == 1 << 63 {
                shared += 1;
            } else {
                assert!(own.insert(bit), "{label} has a bit of its own");
            }
        }
        assert_eq!((own.len(), shared), (63, 101 - 63));
        // Whatever bit a label has, the node above it shows it: a reader
        // never finds a present label absent.
        for (k, &p) in parents.iter().enumerate() {
            assert_eq!(summary.below(p), summary.bit(&format!("l{k}")).unwrap());
        }
        assert_eq!(summary.below(root), u64::MAX);
        // A label the tree lacks is absent however full the bits are.
        assert_eq!(summary.bit("l100"), None);
    }

    /// The definition [`text_number`] replaced, kept as its reference.
    fn old_number(text: &str) -> Option<f64> {
        let text = text.trim();
        text.strip_prefix('$').unwrap_or(text).parse().ok()
    }

    /// Texts at the edges of `f64::from_str`: special values, a `$` alone,
    /// padding, signs, exponents and a radix prefix it refuses.
    const NUMBER_LIKE: [&str; 11] =
        ["NaN", "inf", "-Infinity", "$5", " 7 ", "+3", ".5", "1e3", "$", "", "0x10"];

    /// Equal as numbers read: the same value, `NaN` included, or both none.
    fn same_number(a: Option<f64>, b: Option<f64>) -> bool {
        a.map(f64::to_bits) == b.map(f64::to_bits)
    }

    #[test]
    fn text_number_reads_the_edge_cases_as_before() {
        for text in NUMBER_LIKE.iter().copied().chain(["INF", "nan", "infinity", "-nan", "n", "i"])
        {
            assert!(same_number(text_number(text), old_number(text)), "{text:?}");
        }
        assert_eq!(text_number(" $5 "), Some(5.0));
        assert_eq!(text_number("0x10"), None);
    }

    proptest::proptest! {
        #[test]
        fn text_number_equals_the_old_definition(text in ".*", padded in "[ $+-.0-9eEinfatyINFATY]{0,12}") {
            proptest::prop_assert!(same_number(text_number(&text), old_number(&text)), "{:?}", text);
            proptest::prop_assert!(same_number(text_number(&padded), old_number(&padded)), "{:?}", padded);
        }
    }

    #[test]
    fn every_key_matches_its_nodes_kind_label_and_number() {
        let mut tree = sample();
        let root = tree.root();
        for text in NUMBER_LIKE {
            let holder = tree.append_element(root, "n");
            tree.append_text(holder, text);
        }
        let summary = LabelSummary::of(&tree);
        for v in tree.all_nodes() {
            let key = summary.key(v);
            match tree.kind(v) {
                NodeKind::Element { label, .. } => {
                    assert_eq!(key, AtomKey::Element(summary.symbol(label).unwrap()), "{label}");
                }
                NodeKind::Text { value } => match (key, old_number(value)) {
                    (AtomKey::Number(x), Some(y)) => assert!(same_number(Some(x), Some(y))),
                    (AtomKey::Text, None) => {}
                    (key, number) => panic!("{value:?} keyed {key:?}, reads as {number:?}"),
                },
                NodeKind::Virtual { .. } => assert_eq!(key, AtomKey::Virtual),
            }
        }
        // A label's bit is its symbol's, and the symbols are dense.
        let mut symbols: Vec<u32> = ["r", "a", "b", "x", "c", "d", "n"]
            .iter()
            .map(|label| summary.symbol(label).unwrap())
            .collect();
        symbols.sort();
        assert_eq!(symbols, (0..7).collect::<Vec<_>>());
        assert_eq!(summary.bit("b"), Some(1 << summary.symbol("b").unwrap()));
        // The root's label, carried by no node below it, has a symbol but no
        // bit.
        assert_eq!(summary.symbol("r"), Some(6));
        assert_eq!(summary.bit("r"), None);
    }

    #[test]
    fn a_50000_deep_chain_builds_on_a_small_stack() {
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let mut tree = XmlTree::with_root_element("a");
            let mut at = tree.root();
            for depth in 1..50_000 {
                at = tree.append_element(at, if depth % 2 == 0 { "a" } else { "b" });
            }
            tree.append_child(at, NodeKind::virtual_node(1, None));
            let summary = LabelSummary::of(&tree);
            assert_eq!(summary.size(tree.root()), 50_001);
            assert!(summary.has_virtual_below(tree.root()));
            assert_eq!(summary.below(at), 0);
            let (a, b) = (summary.bit("a").unwrap(), summary.bit("b").unwrap());
            assert_eq!(summary.below(tree.root()), a | b);
        });
        worker.unwrap().join().unwrap();
    }
}
