//! The fragment and fragment-tree data model.

use crate::error::{FragmentError, FragmentResult};
use paxml_xml::{LabelPath, NodeId, TreeStats, XmlTree};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a fragment (`F0`, `F1`, … in the paper's figures).
/// `FragmentId(0)` is always the root fragment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct FragmentId(pub usize);

impl FragmentId {
    /// The root fragment (the one containing the root of the original tree).
    pub const ROOT: FragmentId = FragmentId(0);

    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// One fragment: a sub-tree of the original document in which every missing
/// sub-fragment is replaced by a virtual node carrying that sub-fragment's
/// [`FragmentId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fragment {
    /// This fragment's id.
    pub id: FragmentId,
    /// The fragment's tree (roots of sub-fragments replaced by virtual nodes).
    pub tree: XmlTree,
    /// The label of the fragment's root element (kept redundantly so the
    /// fragment tree can be reasoned about without touching fragment data).
    pub root_label: String,
    /// For every node of `tree` (indexed by its arena index), the arena index
    /// of the corresponding node in the *original* unfragmented tree.
    /// Virtual placeholders map to the original node that became the child
    /// fragment's root. Used to give distributed answers a global identity
    /// that tests can compare against centralized evaluation.
    pub origin: Vec<u32>,
}

impl Fragment {
    /// A copy of this fragment whose node arena and origin map have room for
    /// `extra_nodes` more entries: what an update that inserts that many
    /// nodes starts from, so that its new version is allocated once.
    pub fn clone_with_room(&self, extra_nodes: usize) -> Fragment {
        let mut origin = Vec::with_capacity(self.origin.len() + extra_nodes);
        origin.extend_from_slice(&self.origin);
        Fragment {
            id: self.id,
            tree: self.tree.clone_with_room(extra_nodes),
            root_label: self.root_label.clone(),
            origin,
        }
    }

    /// The original-tree node a fragment node corresponds to.
    pub fn origin_of(&self, node: NodeId) -> NodeId {
        NodeId::from_index(self.origin[node.index()] as usize)
    }
    /// The virtual nodes of this fragment together with the sub-fragments
    /// they stand for, in document order.
    pub fn virtual_children(&self) -> Vec<(NodeId, FragmentId)> {
        self.tree
            .virtual_nodes()
            .into_iter()
            .filter_map(|n| self.tree.kind(n).virtual_fragment().map(|f| (n, FragmentId(f))))
            .collect()
    }

    /// Number of reachable nodes (including virtual placeholders).
    pub fn size(&self) -> usize {
        self.tree.all_nodes().count()
    }

    /// Statistics of the fragment's tree.
    pub fn stats(&self) -> TreeStats {
        TreeStats::compute(&self.tree)
    }
}

/// The fragment tree `FT`: the parent/child relation between fragments plus
/// the per-edge XPath annotations of §5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FragmentTree {
    parent: BTreeMap<FragmentId, FragmentId>,
    children: BTreeMap<FragmentId, Vec<FragmentId>>,
    /// Annotation of the edge (parent(f), f): the label path in the original
    /// tree from the parent fragment's root to `f`'s root.
    annotations: BTreeMap<FragmentId, LabelPath>,
    ids: Vec<FragmentId>,
}

impl FragmentTree {
    /// Create an empty fragment tree containing only the root fragment.
    pub fn new() -> Self {
        let mut ft = FragmentTree::default();
        ft.ids.push(FragmentId::ROOT);
        ft.children.insert(FragmentId::ROOT, Vec::new());
        ft
    }

    /// Register a new fragment as a child of `parent`, with the given edge
    /// annotation.
    pub fn add_child(&mut self, parent: FragmentId, child: FragmentId, annotation: LabelPath) {
        self.ids.push(child);
        self.parent.insert(child, parent);
        self.children.entry(parent).or_default().push(child);
        self.children.entry(child).or_default();
        self.annotations.insert(child, annotation);
    }

    /// All fragment ids, root first, in creation order.
    pub fn ids(&self) -> &[FragmentId] {
        &self.ids
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the fragment tree trivial (only the root fragment)?
    pub fn is_empty(&self) -> bool {
        self.ids.len() <= 1
    }

    /// The parent of a fragment (`None` for the root fragment).
    pub fn parent(&self, f: FragmentId) -> Option<FragmentId> {
        self.parent.get(&f).copied()
    }

    /// The sub-fragments of a fragment.
    pub fn children(&self, f: FragmentId) -> &[FragmentId] {
        self.children.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The annotation of the edge from `parent(f)` to `f` — the label path
    /// connecting the two fragment roots in the original tree. `None` for
    /// the root fragment.
    pub fn annotation(&self, f: FragmentId) -> Option<&LabelPath> {
        self.annotations.get(&f)
    }

    /// The label path from the root of the original tree to the root of `f`
    /// (concatenation of the annotations along the path in `FT`).
    pub fn annotation_from_root(&self, f: FragmentId) -> LabelPath {
        let mut chain = Vec::new();
        let mut current = f;
        while let Some(p) = self.parent(current) {
            if let Some(a) = self.annotation(current) {
                chain.push(a.clone());
            }
            current = p;
        }
        chain.reverse();
        let mut path = LabelPath::empty();
        for part in chain {
            path = path.join(&part);
        }
        path
    }

    /// Fragments in bottom-up order (every fragment appears after all of its
    /// sub-fragments) — the order in which `evalFT` unifies Stage-1 vectors.
    pub fn bottom_up_order(&self) -> Vec<FragmentId> {
        let mut order = self.top_down_order();
        order.reverse();
        order
    }

    /// Fragments in top-down order (every fragment appears before its
    /// sub-fragments) — the order in which `evalFT` unifies Stage-2 vectors.
    pub fn top_down_order(&self) -> Vec<FragmentId> {
        let mut order = Vec::with_capacity(self.ids.len());
        let mut stack = vec![FragmentId::ROOT];
        while let Some(f) = stack.pop() {
            order.push(f);
            for &c in self.children(f).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Does the tree contain this fragment?
    pub fn contains(&self, f: FragmentId) -> bool {
        self.ids.contains(&f)
    }

    /// The largest fragment id present (used to allocate fresh ids for
    /// splits: new fragments take `max_id + 1`, never reusing a retired id,
    /// so epoch-pinned readers can never confuse an old fragment's versions
    /// with a new fragment's).
    pub fn max_id(&self) -> FragmentId {
        self.ids.iter().copied().max().unwrap_or(FragmentId::ROOT)
    }

    /// Move `child` under `new_parent`, replacing its edge annotation — the
    /// FT half of a split/merge. Only the touched edge's §5 annotation is
    /// re-derived; every other edge keeps its annotation untouched.
    pub fn reparent(
        &mut self,
        child: FragmentId,
        new_parent: FragmentId,
        annotation: LabelPath,
    ) -> FragmentResult<()> {
        if child == FragmentId::ROOT {
            return Err(FragmentError::Inconsistent {
                message: "the root fragment cannot be re-parented".into(),
            });
        }
        let old = self
            .parent
            .get(&child)
            .copied()
            .ok_or(FragmentError::UnknownFragment { fragment: child.0 })?;
        if !self.contains(new_parent) {
            return Err(FragmentError::UnknownFragment { fragment: new_parent.0 });
        }
        // A fragment must never become its own ancestor.
        let mut cursor = Some(new_parent);
        while let Some(f) = cursor {
            if f == child {
                return Err(FragmentError::Inconsistent {
                    message: format!("re-parenting {child} under {new_parent} creates a cycle"),
                });
            }
            cursor = self.parent(f);
        }
        if let Some(list) = self.children.get_mut(&old) {
            list.retain(|&c| c != child);
        }
        self.children.entry(new_parent).or_default().push(child);
        self.parent.insert(child, new_parent);
        self.annotations.insert(child, annotation);
        Ok(())
    }

    /// Remove a childless, non-root fragment — the final FT step of a merge
    /// (the fragment's own children must have been [`reparent`]ed first).
    ///
    /// [`reparent`]: FragmentTree::reparent
    pub fn remove(&mut self, f: FragmentId) -> FragmentResult<()> {
        if f == FragmentId::ROOT {
            return Err(FragmentError::Inconsistent {
                message: "the root fragment cannot be removed".into(),
            });
        }
        if self.children.get(&f).is_some_and(|c| !c.is_empty()) {
            return Err(FragmentError::Inconsistent {
                message: format!("fragment {f} still has sub-fragments"),
            });
        }
        let parent =
            self.parent.remove(&f).ok_or(FragmentError::UnknownFragment { fragment: f.0 })?;
        if let Some(list) = self.children.get_mut(&parent) {
            list.retain(|&c| c != f);
        }
        self.children.remove(&f);
        self.annotations.remove(&f);
        self.ids.retain(|&i| i != f);
        Ok(())
    }

    /// Depth of a fragment in `FT` (root fragment has depth 0).
    pub fn depth(&self, f: FragmentId) -> usize {
        let mut d = 0;
        let mut current = f;
        while let Some(p) = self.parent(current) {
            d += 1;
            current = p;
        }
        d
    }
}

/// A fully fragmented tree: the fragments plus the induced fragment tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentedTree {
    /// The fragments, indexed by `FragmentId` (fragment `i` is `fragments[i]`).
    pub fragments: Vec<Fragment>,
    /// The induced fragment tree with its annotations.
    pub fragment_tree: FragmentTree,
}

impl FragmentedTree {
    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// Borrow a fragment.
    pub fn fragment(&self, id: FragmentId) -> FragmentResult<&Fragment> {
        self.fragments.get(id.index()).ok_or(FragmentError::UnknownFragment { fragment: id.0 })
    }

    /// The root fragment.
    pub fn root_fragment(&self) -> &Fragment {
        &self.fragments[0]
    }

    /// Total number of nodes across all fragments (virtual placeholders
    /// excluded), which must equal the node count of the original tree.
    pub fn total_real_nodes(&self) -> usize {
        self.fragments
            .iter()
            .map(|f| f.tree.all_nodes().filter(|&n| !f.tree.is_virtual(n)).count())
            .sum()
    }

    /// Reassemble the original tree by splicing every sub-fragment back in
    /// place of its virtual node (the data-shipping step of the
    /// `NaiveCentralized` baseline).
    pub fn reassemble(&self) -> FragmentResult<XmlTree> {
        crate::fragmenter::reassemble(self)
    }

    /// Verify internal consistency: every virtual node references an
    /// existing fragment, every non-root fragment is referenced by exactly
    /// one virtual node, and the fragment tree mirrors those references.
    pub fn validate(&self) -> FragmentResult<()> {
        let mut referenced: BTreeMap<FragmentId, usize> = BTreeMap::new();
        for frag in &self.fragments {
            for (_, child) in frag.virtual_children() {
                if child.index() >= self.fragments.len() {
                    return Err(FragmentError::UnknownFragment { fragment: child.0 });
                }
                *referenced.entry(child).or_insert(0) += 1;
                if self.fragment_tree.parent(child) != Some(frag.id) {
                    return Err(FragmentError::Inconsistent {
                        message: format!(
                            "virtual node in {} references {} but FT says its parent is {:?}",
                            frag.id,
                            child,
                            self.fragment_tree.parent(child)
                        ),
                    });
                }
            }
        }
        for frag in &self.fragments {
            if frag.id == FragmentId::ROOT {
                continue;
            }
            match referenced.get(&frag.id) {
                Some(1) => {}
                other => {
                    return Err(FragmentError::Inconsistent {
                        message: format!(
                            "fragment {} referenced by {:?} virtual nodes (expected exactly 1)",
                            frag.id, other
                        ),
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::NodeKind;

    fn tiny_fragmented() -> FragmentedTree {
        // Original tree: <a><b/><c><d/></c></a>; F0 = <a><b/>[F1]</a>, F1 = <c><d/></c>
        let mut t0 = XmlTree::with_root_element("a");
        let r0 = t0.root();
        t0.append_element(r0, "b");
        t0.append_child(r0, NodeKind::virtual_node(1, Some("c".into())));
        let mut t1 = XmlTree::with_root_element("c");
        let r1 = t1.root();
        t1.append_element(r1, "d");

        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId::ROOT, FragmentId(1), LabelPath::parse("c"));
        FragmentedTree {
            fragments: vec![
                Fragment {
                    id: FragmentId::ROOT,
                    tree: t0,
                    root_label: "a".into(),
                    origin: vec![0, 1, 2],
                },
                Fragment {
                    id: FragmentId(1),
                    tree: t1,
                    root_label: "c".into(),
                    origin: vec![2, 3],
                },
            ],
            fragment_tree: ft,
        }
    }

    #[test]
    fn origin_maps_back_to_the_original_tree() {
        let ft = tiny_fragmented();
        let f1 = ft.fragment(FragmentId(1)).unwrap();
        assert_eq!(f1.origin_of(f1.tree.root()).index(), 2);
        let d = f1.tree.find_first("d").unwrap();
        assert_eq!(f1.origin_of(d).index(), 3);
    }

    #[test]
    fn fragment_ids_display_like_the_paper() {
        assert_eq!(FragmentId(3).to_string(), "F3");
        assert_eq!(FragmentId::ROOT.to_string(), "F0");
    }

    #[test]
    fn virtual_children_and_leaf_detection() {
        let ft = tiny_fragmented();
        let root = ft.root_fragment();
        assert_eq!(root.virtual_children().len(), 1);
        assert_eq!(root.virtual_children()[0].1, FragmentId(1));
        assert!(ft.fragment(FragmentId(7)).is_err());
    }

    #[test]
    fn fragment_tree_orders_and_depth() {
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("client/broker"));
        ft.add_child(FragmentId(1), FragmentId(2), LabelPath::parse("market"));
        ft.add_child(FragmentId(0), FragmentId(3), LabelPath::parse("client"));
        assert_eq!(ft.len(), 4);
        assert_eq!(ft.depth(FragmentId(2)), 2);
        let td = ft.top_down_order();
        assert_eq!(td[0], FragmentId(0));
        assert!(
            td.iter().position(|&f| f == FragmentId(1))
                < td.iter().position(|&f| f == FragmentId(2))
        );
        let bu = ft.bottom_up_order();
        assert_eq!(*bu.last().unwrap(), FragmentId(0));
        assert!(
            bu.iter().position(|&f| f == FragmentId(2))
                < bu.iter().position(|&f| f == FragmentId(1))
        );
    }

    #[test]
    fn annotation_from_root_concatenates_edges() {
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("client/broker"));
        ft.add_child(FragmentId(1), FragmentId(2), LabelPath::parse("market"));
        assert_eq!(ft.annotation_from_root(FragmentId(2)).to_string(), "client/broker/market");
        assert_eq!(ft.annotation_from_root(FragmentId(0)).to_string(), "");
        assert_eq!(ft.annotation(FragmentId(1)).unwrap().to_string(), "client/broker");
        assert!(ft.annotation(FragmentId(0)).is_none());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let ft = tiny_fragmented();
        ft.validate().unwrap();
        // Now corrupt it: claim F1's parent is F1.
        let mut bad = ft.clone();
        bad.fragment_tree = FragmentTree::new();
        bad.fragment_tree.add_child(FragmentId(1), FragmentId(1), LabelPath::empty());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn total_real_nodes_excludes_virtual_placeholders() {
        let ft = tiny_fragmented();
        assert_eq!(ft.total_real_nodes(), 4); // a, b, c, d
    }
}
