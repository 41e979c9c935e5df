//! The link-walking traversals equal a recursive reference on random trees:
//! from every reachable node (so sibling subtrees must not leak into a walk
//! rooted below the root), on single-node trees, and on arenas whose indices
//! are out of document order — children appended to earlier parents after
//! later nodes, and subtrees grafted or detached by the fragment store's
//! `apply_update`.

use paxml_fragment::{apply_update, fragment_at, UpdateOp};
use paxml_xml::{NodeId, XmlTree};
use proptest::prelude::*;

const LABELS: &[&str] = &["a", "b", "c"];

/// Document order with each node's depth below the walk's root, by
/// recursion over the child lists.
fn reference_pre(tree: &XmlTree, id: NodeId, depth: usize, out: &mut Vec<(NodeId, usize)>) {
    out.push((id, depth));
    for c in tree.children(id) {
        reference_pre(tree, c, depth + 1, out);
    }
}

/// Children before parents, by recursion over the child lists.
fn reference_post(tree: &XmlTree, id: NodeId, out: &mut Vec<NodeId>) {
    for c in tree.children(id) {
        reference_post(tree, c, out);
    }
    out.push(id);
}

/// Append each node under a randomly chosen earlier node: a later choice of
/// an early parent puts a high arena index before lower ones in document
/// order.
fn build(spec: &[(usize, bool)]) -> XmlTree {
    let mut tree = XmlTree::with_root_element("root");
    let mut nodes = vec![tree.root()];
    for (i, &(parent, text)) in spec.iter().enumerate() {
        let parent = nodes[parent % nodes.len()];
        if text {
            tree.append_text(parent, format!("t{i}"));
        } else {
            nodes.push(tree.append_element(parent, LABELS[i % LABELS.len()]));
        }
    }
    tree
}

/// Replay inserts and deletes through the fragment store's update path.
fn updated(tree: &XmlTree, ops: &[(usize, bool, u8)]) -> XmlTree {
    let mut fragment = fragment_at(tree, &[]).expect("no cut").root_fragment().clone();
    for (k, &(target, insert, size)) in ops.iter().enumerate() {
        let reachable: Vec<NodeId> = fragment.tree.all_nodes().collect();
        let node = reachable[target % reachable.len()];
        let op = if insert {
            if !fragment.tree.is_element(node) {
                continue;
            }
            let mut subtree = XmlTree::with_root_element("ins");
            let mut last = subtree.root();
            for j in 0..size % 4 {
                last = if j % 2 == 0 {
                    subtree.append_element(last, "x")
                } else {
                    subtree.append_element(subtree.root(), "y")
                };
            }
            UpdateOp::InsertSubtree { parent: node, subtree, origin_base: 10_000 * (k as u32 + 1) }
        } else {
            UpdateOp::DeleteSubtree { node }
        };
        // Deleting the root is refused and leaves the fragment untouched.
        let _ = apply_update(&mut fragment, &op);
    }
    fragment.tree
}

/// Every walk from every reachable node equals its reference.
fn check_every_subtree(tree: &XmlTree) -> Result<(), TestCaseError> {
    prop_assert!(tree.validate().is_ok());
    for id in tree.all_nodes() {
        let mut depths = Vec::new();
        reference_pre(tree, id, 0, &mut depths);
        let pre: Vec<NodeId> = depths.iter().map(|&(n, _)| n).collect();
        let mut post = Vec::new();
        reference_post(tree, id, &mut post);
        prop_assert_eq!(&tree.pre_order(id).collect::<Vec<_>>(), &pre);
        prop_assert_eq!(&tree.descendants(id).collect::<Vec<_>>(), &pre[1..]);
        prop_assert_eq!(tree.post_order(id).collect::<Vec<_>>(), post);
        prop_assert_eq!(tree.pre_order_with_depth(id).collect::<Vec<_>>(), depths);
        prop_assert_eq!(tree.subtree_size(id), pre.len());
    }
    Ok(())
}

#[test]
fn single_node_trees_walk_to_themselves() {
    let tree = XmlTree::with_root_element("only");
    let root = tree.root();
    assert_eq!(tree.pre_order(root).collect::<Vec<_>>(), vec![root]);
    assert_eq!(tree.post_order(root).collect::<Vec<_>>(), vec![root]);
    assert_eq!(tree.descendants(root).count(), 0);
    assert_eq!(tree.pre_order_with_depth(root).collect::<Vec<_>>(), vec![(root, 0)]);
    assert_eq!(tree.height(), 0);
}

proptest! {
    #[test]
    fn walks_equal_the_recursive_reference(spec in prop::collection::vec((0usize..64, any::<bool>()), 0..60)) {
        check_every_subtree(&build(&spec))?;
    }

    #[test]
    fn walks_equal_the_reference_after_fragment_updates(
        spec in prop::collection::vec((0usize..64, any::<bool>()), 0..40),
        ops in prop::collection::vec((0usize..64, any::<bool>(), any::<u8>()), 0..12),
    ) {
        check_every_subtree(&updated(&build(&spec), &ops))?;
    }
}
