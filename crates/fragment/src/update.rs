//! Fragment updates: the write path of a fragmented store.
//!
//! A production deployment does not stay still between queries: sites edit
//! their fragments. This module defines the update operations a site can
//! apply to one of its fragments *without changing the fragment tree* —
//! subtree inserts and deletes, element relabels and text edits — plus the
//! validation that keeps the fragmentation invariants intact:
//!
//! * the fragment's **root** is never deleted or relabelled (its label is
//!   cached in [`Fragment::root_label`] and in the parent's virtual node);
//! * **virtual nodes** are never touched: deleting or inserting around them
//!   would change the fragment tree `FT`, which is a re-fragmentation, not
//!   an update;
//! * no **ancestor of a virtual node** is relabelled, so the XPath
//!   annotations on the edges of `FT` (the label paths of §5) stay exact and
//!   the pruning optimization stays sound.
//!
//! Inserted nodes receive *origin* identities from the caller-provided
//! `origin_base` (see [`Fragment::origin`]): the coordinator hands out
//! disjoint ranges above the original document's node count, so answers
//! rooted at inserted nodes stay globally comparable. Applying the same op
//! sequence to two copies of a fragment yields bit-identical trees and
//! origin maps — the property the incremental-evaluation tests lean on.

use crate::error::{FragmentError, FragmentResult};
use crate::model::Fragment;
use paxml_xml::{NodeId, XmlTree};
use serde::{Deserialize, Serialize};

/// One update to a single fragment. Node ids address the fragment's own
/// arena ([`Fragment::tree`]); they are stable across updates because
/// deletion only detaches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Graft a whole subtree (no virtual nodes) as the last child of
    /// `parent`. The `i`-th arena slot the graft allocates gets origin id
    /// `origin_base + i`.
    InsertSubtree {
        /// The element node receiving the subtree.
        parent: NodeId,
        /// The subtree to copy in.
        subtree: XmlTree,
        /// First origin id of the inserted range (caller-assigned, disjoint
        /// from every other range and from the original document's ids).
        origin_base: u32,
    },
    /// Detach the subtree rooted at `node` (which must not contain virtual
    /// nodes and must not be the fragment root).
    DeleteSubtree {
        /// Root of the subtree to remove.
        node: NodeId,
    },
    /// Replace the label of an element node.
    Relabel {
        /// The element to relabel.
        node: NodeId,
        /// Its new label.
        label: String,
    },
    /// Replace the value of a text node.
    EditText {
        /// The text node to edit.
        node: NodeId,
        /// Its new value.
        text: String,
    },
}

impl UpdateOp {
    /// Short human-readable tag, for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateOp::InsertSubtree { .. } => "insert",
            UpdateOp::DeleteSubtree { .. } => "delete",
            UpdateOp::Relabel { .. } => "relabel",
            UpdateOp::EditText { .. } => "edit-text",
        }
    }
}

fn invalid(message: impl Into<String>) -> FragmentError {
    FragmentError::InvalidUpdate { message: message.into() }
}

/// Is `node` an ancestor of any virtual node of the fragment? Relabelling
/// such a node would invalidate the label-path annotations of `FT`.
fn on_annotation_path(fragment: &Fragment, node: NodeId) -> bool {
    fragment
        .virtual_children()
        .iter()
        .any(|&(vnode, _)| fragment.tree.ancestors(vnode).any(|a| a == node))
}

/// Validate `op` against `fragment` and apply it, maintaining the origin
/// map. Returns the number of nodes the op inserted (0 for the other ops).
///
/// Validation happens *before* mutation, so a rejected op leaves the
/// fragment untouched.
pub fn apply_update(fragment: &mut Fragment, op: &UpdateOp) -> FragmentResult<usize> {
    let tree = &fragment.tree;
    match op {
        UpdateOp::InsertSubtree { parent, subtree, origin_base } => {
            if !tree.is_reachable(*parent) {
                return Err(invalid(format!("insert parent {parent} is not in the fragment")));
            }
            if !tree.is_element(*parent) || tree.is_virtual(*parent) {
                return Err(invalid("insert parent must be a real element node"));
            }
            // The payload may have crossed the wire: walk it only once its
            // links are known to form a tree.
            subtree.validate().map_err(|e| invalid(format!("inserted subtree: {e}")))?;
            if subtree.all_nodes().any(|n| subtree.is_virtual(n)) {
                return Err(invalid("inserted subtrees must not contain virtual nodes"));
            }
            let (origin, mut next) = (&mut fragment.origin, *origin_base);
            fragment.tree.append_subtree(
                *parent,
                subtree,
                subtree.root(),
                |_| None,
                |_, _| {
                    origin.push(next);
                    next += 1;
                },
            );
            Ok((next - origin_base) as usize)
        }
        UpdateOp::DeleteSubtree { node } => {
            if *node == tree.root() {
                return Err(invalid("cannot delete the fragment root"));
            }
            if !tree.is_reachable(*node) {
                return Err(invalid(format!("delete target {node} is not in the fragment")));
            }
            if tree.pre_order(*node).any(|n| tree.is_virtual(n)) {
                return Err(invalid(
                    "deleting a subtree holding a virtual node would change the fragment tree",
                ));
            }
            fragment.tree.detach(*node).map_err(|e| invalid(e.to_string()))?;
            Ok(0)
        }
        UpdateOp::Relabel { node, label } => {
            if *node == tree.root() {
                return Err(invalid("cannot relabel the fragment root"));
            }
            if !tree.is_reachable(*node) {
                return Err(invalid(format!("relabel target {node} is not in the fragment")));
            }
            if !tree.is_element(*node) || tree.is_virtual(*node) {
                return Err(invalid("only real element nodes can be relabelled"));
            }
            if on_annotation_path(fragment, *node) {
                return Err(invalid(
                    "relabelling an ancestor of a virtual node would invalidate FT annotations",
                ));
            }
            fragment.tree.relabel(*node, label.clone()).map_err(|e| invalid(e.to_string()))?;
            Ok(0)
        }
        UpdateOp::EditText { node, text } => {
            if !tree.is_reachable(*node) {
                return Err(invalid(format!("text-edit target {node} is not in the fragment")));
            }
            fragment
                .tree
                .set_text_value(*node, text.clone())
                .map_err(|e| invalid(e.to_string()))?;
            Ok(0)
        }
    }
}

/// Apply a sequence of ops in order, stopping at (and returning) the first
/// error. Returns the total number of inserted nodes on success.
pub fn apply_all(fragment: &mut Fragment, ops: &[UpdateOp]) -> FragmentResult<usize> {
    let mut inserted = 0;
    for op in ops {
        inserted += apply_update(fragment, op)?;
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmenter::fragment_at;
    use crate::model::FragmentId;
    use paxml_xml::{parse, to_string, TreeBuilder};

    /// `<a><b><c/></b><d>x</d></a>` cut at `b`: F0 = a(d) + virtual, F1 = b(c).
    fn fragmented() -> crate::model::FragmentedTree {
        let tree = parse("<a><b><c/></b><d>x</d></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        fragment_at(&tree, &[b]).unwrap()
    }

    #[test]
    fn insert_extends_tree_and_origin_map() {
        let f = fragmented();
        let mut frag = f.fragment(FragmentId(1)).unwrap().clone();
        let before_nodes = frag.tree.node_count();
        let subtree = TreeBuilder::new("e").leaf("f", "y").build();
        let c = frag.tree.find_first("c").unwrap();
        let inserted = apply_update(
            &mut frag,
            &UpdateOp::InsertSubtree { parent: c, subtree, origin_base: 100 },
        )
        .unwrap();
        assert_eq!(inserted, 3); // e, f, text
        assert_eq!(frag.tree.node_count(), before_nodes + 3);
        assert_eq!(frag.origin.len(), frag.tree.node_count());
        assert_eq!(to_string(&frag.tree), "<b><c><e><f>y</f></e></c></b>");
        // Inserted nodes carry the assigned origin range.
        let origins: Vec<u32> = frag.origin[before_nodes..].to_vec();
        assert_eq!(origins, vec![100, 101, 102]);
    }

    #[test]
    fn identical_op_sequences_yield_identical_fragments() {
        let f = fragmented();
        let mut a = f.fragment(FragmentId(0)).unwrap().clone();
        let mut b = a.clone();
        let d = a.tree.find_first("d").unwrap();
        let text = a.tree.children(d).next().unwrap();
        let ops = vec![
            UpdateOp::InsertSubtree {
                parent: d,
                subtree: TreeBuilder::new("g").build(),
                origin_base: 50,
            },
            UpdateOp::EditText { node: text, text: "z".into() },
            UpdateOp::Relabel { node: d, label: "dd".into() },
        ];
        apply_all(&mut a, &ops).unwrap();
        apply_all(&mut b, &ops).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_and_virtual_nodes_are_protected() {
        let f = fragmented();
        let mut root_frag = f.fragment(FragmentId(0)).unwrap().clone();
        let root = root_frag.tree.root();
        let vnode = root_frag.tree.virtual_nodes()[0];
        assert!(apply_update(&mut root_frag, &UpdateOp::DeleteSubtree { node: root }).is_err());
        assert!(apply_update(&mut root_frag, &UpdateOp::Relabel { node: root, label: "z".into() })
            .is_err());
        // Deleting the virtual node (directly) is rejected.
        assert!(apply_update(&mut root_frag, &UpdateOp::DeleteSubtree { node: vnode }).is_err());
        // Inserting under a virtual node is rejected.
        assert!(apply_update(
            &mut root_frag,
            &UpdateOp::InsertSubtree {
                parent: vnode,
                subtree: TreeBuilder::new("x").build(),
                origin_base: 10,
            }
        )
        .is_err());
    }

    #[test]
    fn annotation_paths_are_protected_from_relabels_and_deletes() {
        // a -> b -> c(virtual cut): b is on the annotation path of the cut.
        let tree = parse("<a><b><c><e/></c></b><d/></a>").unwrap();
        let c = tree.find_first("c").unwrap();
        let f = fragment_at(&tree, &[c]).unwrap();
        let mut root_frag = f.fragment(FragmentId(0)).unwrap().clone();
        let b = root_frag.tree.find_first("b").unwrap();
        let d = root_frag.tree.find_first("d").unwrap();
        // b is an ancestor of the virtual node: relabel rejected, and
        // deleting it would take the virtual node with it — also rejected.
        assert!(apply_update(&mut root_frag, &UpdateOp::Relabel { node: b, label: "z".into() })
            .is_err());
        assert!(apply_update(&mut root_frag, &UpdateOp::DeleteSubtree { node: b }).is_err());
        // d is off the path: both ops fine.
        apply_update(&mut root_frag, &UpdateOp::Relabel { node: d, label: "z".into() }).unwrap();
        assert_eq!(root_frag.tree.label(d), Some("z"));
    }

    #[test]
    fn rejected_ops_leave_the_fragment_untouched() {
        let f = fragmented();
        let mut frag = f.fragment(FragmentId(1)).unwrap().clone();
        let pristine = frag.clone();
        let missing = NodeId::from_index(999);
        for op in [
            UpdateOp::DeleteSubtree { node: missing },
            UpdateOp::Relabel { node: missing, label: "x".into() },
            UpdateOp::EditText { node: missing, text: "x".into() },
            UpdateOp::InsertSubtree {
                parent: missing,
                subtree: TreeBuilder::new("x").build(),
                origin_base: 0,
            },
        ] {
            assert!(apply_update(&mut frag, &op).is_err(), "{} must fail", op.kind());
            assert_eq!(frag, pristine, "{} mutated the fragment before failing", op.kind());
        }
    }

    #[test]
    fn delete_then_reuse_of_node_ids_is_stable() {
        let f = fragmented();
        let mut frag = f.fragment(FragmentId(1)).unwrap().clone();
        let c = frag.tree.find_first("c").unwrap();
        apply_update(&mut frag, &UpdateOp::DeleteSubtree { node: c }).unwrap();
        assert!(!frag.tree.is_reachable(c));
        // Ops addressing the detached node now fail cleanly.
        assert!(apply_update(&mut frag, &UpdateOp::Relabel { node: c, label: "x".into() }).is_err());
        // The arena (and thus ids of surviving nodes) is untouched.
        assert_eq!(frag.tree.find_first("b"), Some(frag.tree.root()));
    }

    #[test]
    fn op_kinds_are_labelled() {
        assert_eq!(UpdateOp::DeleteSubtree { node: NodeId::from_index(1) }.kind(), "delete");
        assert_eq!(
            UpdateOp::EditText { node: NodeId::from_index(1), text: String::new() }.kind(),
            "edit-text"
        );
    }
}
