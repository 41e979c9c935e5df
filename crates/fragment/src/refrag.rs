//! Fragment-level surgery for online re-fragmentation.
//!
//! [`split_fragment`] cuts one fragment in two at an interior element;
//! [`merge_fragment`] splices a child fragment back into its parent. Both
//! are *pure*: they take the current fragments and fragment tree by
//! reference and return fresh values, so a coordinator can build the next
//! deployment epoch copy-on-write and publish nothing if anything fails.
//!
//! The §5 annotations are re-derived **incrementally**: only the edges a
//! split/merge actually touches (the new edge, plus the edges of
//! sub-fragments whose virtual nodes moved between the two fragments) get a
//! fresh label path; every other edge of `FT` keeps its annotation
//! untouched. This is what keeps a re-fragmentation `O(|touched subtree|)`
//! instead of `O(|FT|)`.

use crate::error::{FragmentError, FragmentResult};
use crate::fragmenter::splice;
use crate::model::{Fragment, FragmentId, FragmentTree};
use paxml_xml::{label_path, LabelPath, NodeId, NodeKind};

/// The outcome of [`split_fragment`]: the rewritten original fragment, the
/// newly created sub-fragment, the updated fragment tree, and the
/// sub-fragments whose FT edge moved (their annotations were re-derived).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitOutcome {
    /// The original fragment with the cut subtree replaced by a virtual
    /// placeholder referencing `child`.
    pub parent: Fragment,
    /// The new fragment holding the cut subtree.
    pub child: Fragment,
    /// The fragment tree after the split.
    pub fragment_tree: FragmentTree,
    /// Former sub-fragments of `parent` whose virtual node moved into
    /// `child` — their FT edges were re-parented with fresh annotations.
    pub moved_children: Vec<FragmentId>,
}

/// The outcome of [`merge_fragment`]: the parent with the child's subtree
/// spliced back in, the updated fragment tree, and the child's former
/// sub-fragments (now direct sub-fragments of the parent).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The parent fragment with the child's data inlined in place of the
    /// virtual node.
    pub merged: Fragment,
    /// The fragment tree after the merge (the child is gone).
    pub fragment_tree: FragmentTree,
    /// The child's former sub-fragments, re-parented under the parent with
    /// joined annotations.
    pub lifted_children: Vec<FragmentId>,
}

/// Split `fragment` at `cut`: the subtree rooted at `cut` becomes a new
/// fragment `new_id`, and its place is taken by a virtual placeholder.
///
/// Validation mirrors the initial fragmenter: the cut must be a reachable
/// element of the fragment (not its root, not a virtual placeholder), and
/// `new_id` must not collide with an existing fragment. Sub-fragments whose
/// virtual node lives inside the cut subtree are re-parented under the new
/// fragment; only those edges plus the new edge get re-derived annotations.
pub fn split_fragment(
    fragment: &Fragment,
    ft: &FragmentTree,
    cut: NodeId,
    new_id: FragmentId,
) -> FragmentResult<SplitOutcome> {
    if !fragment.tree.contains(cut) || !fragment.tree.is_reachable(cut) {
        return Err(FragmentError::UnknownCutNode { node: cut.index() });
    }
    if cut == fragment.tree.root() {
        return Err(FragmentError::CannotCutRoot);
    }
    if !fragment.tree.is_element(cut) {
        return Err(FragmentError::CutAtNonElement { node: cut.index() });
    }
    if ft.contains(new_id) {
        return Err(FragmentError::Inconsistent {
            message: format!("split target id {new_id} already exists in the fragment tree"),
        });
    }
    // The new edge's annotation, derived before any mutation: the label path
    // from the fragment's root to the cut node.
    let annotation =
        label_path(&fragment.tree, fragment.tree.root(), cut).unwrap_or_else(LabelPath::empty);

    // --- the new child fragment: a verbatim copy of the cut subtree -------
    let mut child_origin: Vec<u32> = Vec::new();
    let child_tree = fragment.tree.copy_subtree(
        cut,
        |_| None,
        |src, _| child_origin.push(fragment.origin[src.index()]),
    );
    let child_label = fragment.tree.label(cut).unwrap_or_default().to_string();
    let child = Fragment {
        id: new_id,
        tree: child_tree,
        root_label: child_label.clone(),
        origin: child_origin,
    };

    // --- the rewritten parent: cut subtree replaced by a placeholder ------
    let mut parent_tree = fragment.tree.clone();
    let removed: Vec<NodeId> = parent_tree.children(cut).collect();
    for node in removed {
        parent_tree
            .detach(node)
            .map_err(|e| FragmentError::Inconsistent { message: e.to_string() })?;
    }
    parent_tree
        .replace_kind(cut, NodeKind::virtual_node(new_id.index(), Some(child_label)))
        .map_err(|e| FragmentError::Inconsistent { message: e.to_string() })?;
    let parent = Fragment {
        id: fragment.id,
        tree: parent_tree,
        root_label: fragment.root_label.clone(),
        origin: fragment.origin.clone(),
    };

    // --- FT surgery: one new edge, moved virtual nodes re-parented --------
    let mut fragment_tree = ft.clone();
    fragment_tree.add_child(fragment.id, new_id, annotation);
    let mut moved_children = Vec::new();
    for (vnode, sub) in child.virtual_children() {
        let sub_annotation =
            label_path(&child.tree, child.tree.root(), vnode).unwrap_or_else(LabelPath::empty);
        fragment_tree.reparent(sub, new_id, sub_annotation)?;
        moved_children.push(sub);
    }

    Ok(SplitOutcome { parent, child, fragment_tree, moved_children })
}

/// Merge `child` back into `parent`: the child's data replaces the virtual
/// placeholder (preserving document order exactly), the child's
/// sub-fragments become sub-fragments of the parent with joined
/// annotations, and the child disappears from `FT`.
pub fn merge_fragment(
    parent: &Fragment,
    child: &Fragment,
    ft: &FragmentTree,
) -> FragmentResult<MergeOutcome> {
    if ft.parent(child.id) != Some(parent.id) {
        return Err(FragmentError::Inconsistent {
            message: format!(
                "cannot merge {} into {}: FT says its parent is {:?}",
                child.id,
                parent.id,
                ft.parent(child.id)
            ),
        });
    }
    let vnode = parent
        .virtual_children()
        .into_iter()
        .find(|(_, f)| *f == child.id)
        .map(|(n, _)| n)
        .ok_or_else(|| FragmentError::Inconsistent {
            message: format!("{} holds no virtual node for {}", parent.id, child.id),
        })?;

    // --- splice the child's data in place of the placeholder --------------
    let mut tree = parent.tree.clone();
    let mut origin = parent.origin.clone();
    debug_assert_eq!(origin.len(), tree.node_count());
    splice(&mut tree, &mut origin, vnode, child)?;
    let merged = Fragment { id: parent.id, tree, root_label: parent.root_label.clone(), origin };

    // --- FT surgery: lift the child's edges, then drop the child ----------
    let mut fragment_tree = ft.clone();
    let base = ft.annotation(child.id).cloned().unwrap_or_else(LabelPath::empty);
    let mut lifted_children = Vec::new();
    for &sub in ft.children(child.id) {
        let joined = base.join(ft.annotation(sub).unwrap_or(&LabelPath::empty()));
        fragment_tree.reparent(sub, parent.id, joined)?;
        lifted_children.push(sub);
    }
    fragment_tree.remove(child.id)?;

    Ok(MergeOutcome { merged, fragment_tree, lifted_children })
}

/// Re-index a set of fragments into a dense [`FragmentedTree`](crate::model::FragmentedTree).
///
/// After a sequence of splits and merges, fragment ids may have gaps (a
/// merge removes an id, a split allocates past the old maximum), but
/// [`FragmentedTree`](crate::model::FragmentedTree) stores fragments positionally. This translates every
/// id to its rank among the surviving ids — rewriting virtual-node
/// references and rebuilding the fragment tree with its annotations — so
/// the result reassembles and redeploys like a fresh fragmentation. The
/// root fragment keeps id 0 (it is never removed and always sorts first).
pub fn compact_fragmentation(
    fragments: Vec<Fragment>,
    ft: &FragmentTree,
) -> FragmentResult<crate::model::FragmentedTree> {
    let mut ids: Vec<FragmentId> = fragments.iter().map(|f| f.id).collect();
    ids.sort();
    let lookup = |old: FragmentId| -> FragmentResult<FragmentId> {
        ids.binary_search(&old).map(FragmentId).map_err(|_| FragmentError::Inconsistent {
            message: format!("fragment {old} referenced but not present in the set"),
        })
    };
    let mut dense: Vec<Fragment> = Vec::with_capacity(fragments.len());
    for mut f in fragments {
        for (vnode, sub) in f.virtual_children() {
            let new_sub = lookup(sub)?;
            let label = f.tree.label(vnode).map(str::to_string);
            f.tree
                .replace_kind(vnode, NodeKind::virtual_node(new_sub.index(), label))
                .map_err(|e| FragmentError::Inconsistent { message: e.to_string() })?;
        }
        f.id = lookup(f.id)?;
        dense.push(f);
    }
    dense.sort_by_key(|f| f.id);
    let mut dense_ft = FragmentTree::new();
    for f in ft.top_down_order() {
        if let Some(p) = ft.parent(f) {
            let annotation = ft.annotation(f).cloned().unwrap_or_else(LabelPath::empty);
            dense_ft.add_child(lookup(p)?, lookup(f)?, annotation);
        }
    }
    let out = crate::model::FragmentedTree { fragments: dense, fragment_tree: dense_ft };
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::cut_at_labels;
    use paxml_xml::{parse, to_string, XmlTree};

    fn assemble(fragments: Vec<Fragment>, ft: FragmentTree) -> XmlTree {
        compact_fragmentation(fragments, &ft).unwrap().reassemble().unwrap()
    }

    #[test]
    fn split_then_merge_round_trips() {
        let tree = parse("<a><b><c><d/>x</c></b><e/></a>").unwrap();
        let f = cut_at_labels(&tree, &["b"]).unwrap();
        let original = to_string(&tree);

        let f1 = f.fragment(FragmentId(1)).unwrap();
        let cut = f1.tree.find_first("c").unwrap();
        let out = split_fragment(f1, &f.fragment_tree, cut, FragmentId(2)).unwrap();
        assert_eq!(out.fragment_tree.len(), 3);
        assert_eq!(out.fragment_tree.parent(FragmentId(2)), Some(FragmentId(1)));
        assert_eq!(out.fragment_tree.annotation(FragmentId(2)).unwrap().to_string(), "c");
        assert!(out.moved_children.is_empty());
        assert_eq!(to_string(&out.child.tree), "<c><d/>x</c>");

        let back = merge_fragment(&out.parent, &out.child, &out.fragment_tree).unwrap();
        assert_eq!(back.fragment_tree.len(), 2);
        let assembled = assemble(vec![f.root_fragment().clone(), back.merged], back.fragment_tree);
        assert_eq!(to_string(&assembled), original);
    }

    #[test]
    fn split_moves_nested_virtual_children_and_rederives_annotations() {
        // F0=<a>, F1=<b><c><d.../></c></b>, F2=<d>...</d> under F1. Split F1
        // at <c>: F2's virtual node moves into the new fragment.
        let tree = parse("<a><b><c><d><e/></d></c></b></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        let d = tree.find_first("d").unwrap();
        let f = crate::fragmenter::fragment_at(&tree, &[b, d]).unwrap();
        assert_eq!(f.fragment_tree.annotation(FragmentId(2)).unwrap().to_string(), "c/d");

        let f1 = f.fragment(FragmentId(1)).unwrap();
        let cut = f1.tree.find_first("c").unwrap();
        let out = split_fragment(f1, &f.fragment_tree, cut, FragmentId(3)).unwrap();
        assert_eq!(out.moved_children, vec![FragmentId(2)]);
        assert_eq!(out.fragment_tree.parent(FragmentId(2)), Some(FragmentId(3)));
        assert_eq!(out.fragment_tree.parent(FragmentId(3)), Some(FragmentId(1)));
        // Re-derived annotations: F1→F3 is "c", F3→F2 is "d".
        assert_eq!(out.fragment_tree.annotation(FragmentId(3)).unwrap().to_string(), "c");
        assert_eq!(out.fragment_tree.annotation(FragmentId(2)).unwrap().to_string(), "d");
        // The root-to-F2 path is preserved end to end.
        assert_eq!(out.fragment_tree.annotation_from_root(FragmentId(2)).to_string(), "b/c/d");
    }

    #[test]
    fn merge_lifts_grandchildren_with_joined_annotations() {
        let tree = parse("<a><b><c><d><e/></d></c></b></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        let d = tree.find_first("d").unwrap();
        let f = crate::fragmenter::fragment_at(&tree, &[b, d]).unwrap();

        let out = merge_fragment(
            f.fragment(FragmentId(0)).unwrap(),
            f.fragment(FragmentId(1)).unwrap(),
            &f.fragment_tree,
        )
        .unwrap();
        assert_eq!(out.lifted_children, vec![FragmentId(2)]);
        assert!(!out.fragment_tree.contains(FragmentId(1)));
        assert_eq!(out.fragment_tree.parent(FragmentId(2)), Some(FragmentId(0)));
        // Joined annotation: (a→b = "b") ∘ (b→d = "c/d") = "b/c/d".
        assert_eq!(out.fragment_tree.annotation(FragmentId(2)).unwrap().to_string(), "b/c/d");
    }

    #[test]
    fn split_validation_rejects_bad_cuts() {
        let tree = parse("<a><b>hi</b></a>").unwrap();
        let f = cut_at_labels(&tree, &["b"]).unwrap();
        let f1 = f.fragment(FragmentId(1)).unwrap();
        let text = f1.tree.children(f1.tree.root()).next().unwrap();
        assert_eq!(
            split_fragment(f1, &f.fragment_tree, f1.tree.root(), FragmentId(2)),
            Err(FragmentError::CannotCutRoot)
        );
        assert!(matches!(
            split_fragment(f1, &f.fragment_tree, text, FragmentId(2)),
            Err(FragmentError::CutAtNonElement { .. })
        ));
        // Colliding id.
        let c = f.fragment(FragmentId(0)).unwrap();
        let vc = c.tree.virtual_nodes();
        assert!(!vc.is_empty());
        assert!(matches!(
            split_fragment(f1, &f.fragment_tree, f1.tree.root(), FragmentId(1)),
            Err(FragmentError::CannotCutRoot)
        ));
    }

    #[test]
    fn origins_survive_split_and_merge() {
        let tree = parse("<a><b><c><d/></c><e/></b></a>").unwrap();
        let f = cut_at_labels(&tree, &["b"]).unwrap();
        let f1 = f.fragment(FragmentId(1)).unwrap();
        let cut = f1.tree.find_first("c").unwrap();
        let cut_origin = f1.origin_of(cut);
        let out = split_fragment(f1, &f.fragment_tree, cut, FragmentId(2)).unwrap();
        // The child's root maps back to the original <c> node.
        assert_eq!(out.child.origin_of(out.child.tree.root()), cut_origin);
        // The placeholder in the parent keeps the same origin.
        assert_eq!(out.parent.origin_of(cut), cut_origin);
        // Merging restores per-node origins for the spliced data.
        let back = merge_fragment(&out.parent, &out.child, &out.fragment_tree).unwrap();
        let d = back.merged.tree.find_first("d").unwrap();
        let d_orig = tree.find_first("d").unwrap();
        assert_eq!(back.merged.origin_of(d).index(), d_orig.index());
    }
}
