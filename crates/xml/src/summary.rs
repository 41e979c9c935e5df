//! Per-node label summaries: what each subtree of a tree holds, so that a
//! top-down sweep can tell, at a node, that nothing it looks for lies below.

use crate::{NodeId, XmlTree};
use std::collections::HashMap;

/// The bit every label past the 63rd shares. Sharing only makes a node's
/// bits a superset of its labels, which a reader testing "every label I need
/// is below" may over-approximate.
const SHARED_BIT: u32 = 63;

/// For every node of an [`XmlTree`]: the element labels strictly below it,
/// its subtree size and whether a virtual node lies below it.
///
/// Labels are bits of a table local to the tree, in post-order of first
/// occurrence; the first 63 have a bit each and the rest share bit 63.
/// [`LabelSummary::of`] builds it in one iterative post-order pass, at
/// 12⅛ bytes per arena node. A summary describes the tree it was built from
/// and goes stale with any edit of it: its holder rebuilds it per version.
#[derive(Debug, Clone)]
pub struct LabelSummary {
    /// The bit of every element label below the root.
    bits: HashMap<String, u64>,
    /// Per arena index: the bits of the labels strictly below the node.
    below: Vec<u64>,
    /// Per arena index: the node's subtree size (0 for a detached node).
    sizes: Vec<u32>,
    /// Bit `k` of word `k / 64`: a virtual node lies strictly below node `k`.
    virtual_below: Vec<u64>,
}

impl LabelSummary {
    /// The summary of every node reachable from `tree`'s root.
    pub fn of(tree: &XmlTree) -> LabelSummary {
        let nodes = tree.node_count();
        let mut summary = LabelSummary {
            bits: HashMap::new(),
            below: vec![0; nodes],
            sizes: vec![0; nodes],
            virtual_below: vec![0; nodes.div_ceil(64)],
        };
        // Post-order finishes a node after all of its children, each of
        // which has already added itself to it: the node adds itself to its
        // parent in turn.
        for v in tree.post_order(tree.root()) {
            let (k, size) = (v.index(), summary.sizes[v.index()] + 1);
            summary.sizes[k] = size;
            let Some(parent) = tree.parent(v) else { continue };
            let p = parent.index();
            let own = tree.label(v).map_or(0, |label| summary.bit_or_insert(label));
            summary.below[p] |= summary.below[k] | own;
            summary.sizes[p] += size;
            if tree.is_virtual(v) || summary.has_virtual_below(v) {
                summary.virtual_below[p / 64] |= 1 << (p % 64);
            }
        }
        summary
    }

    fn bit_or_insert(&mut self, label: &str) -> u64 {
        if let Some(&bit) = self.bits.get(label) {
            return bit;
        }
        let bit = 1 << (self.bits.len() as u32).min(SHARED_BIT);
        self.bits.insert(label.to_string(), bit);
        bit
    }

    /// The bit of `label`, or `None` when no element below the root carries
    /// it (the root is below no node).
    pub fn bit(&self, label: &str) -> Option<u64> {
        self.bits.get(label).copied()
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
