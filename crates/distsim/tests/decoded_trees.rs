//! `XmlTree::validate` on trees decoded from patched bytes: a tree that
//! crosses the wire carries whatever node ids its bytes held, so `validate`
//! must answer every one of them with a `StructureViolation`, never a panic
//! or an endless walk.

use paxml_distsim::codec::{decode, encode};
use paxml_xml::{NodeId, TreeBuilder, XmlError, XmlTree};

/// A node's links in wire order: parent, first child, last child, next
/// sibling, previous sibling.
type Links = [Option<u32>; 5];

fn links_of(tree: &XmlTree) -> Vec<Links> {
    (0..tree.node_count())
        .map(|i| {
            let node = tree.node(NodeId::from_index(i));
            [
                node.parent(),
                node.first_child(),
                node.last_child(),
                node.next_sibling(),
                node.prev_sibling(),
            ]
            .map(|link| link.map(|id| id.index() as u32))
        })
        .collect()
}

/// The wire bytes of `tree`'s node kinds with `links` and `root` in place of
/// its own.
fn bytes_with(tree: &XmlTree, links: &[Links], root: u32) -> Vec<u8> {
    let mut bytes = encode(&links.len());
    for (i, node_links) in links.iter().enumerate() {
        bytes.extend(encode(tree.kind(NodeId::from_index(i))));
        for link in node_links {
            bytes.extend(encode(link));
        }
    }
    bytes.extend(encode(&root));
    bytes
}

fn validate_patched(tree: &XmlTree, links: &[Links], root: u32) -> Result<(), XmlError> {
    let decoded: XmlTree =
        decode(&bytes_with(tree, links, root)).expect("the patch keeps the layout");
    decoded.validate()
}

fn is_violation(result: Result<(), XmlError>) -> bool {
    matches!(result, Err(XmlError::StructureViolation { .. }))
}

/// `r` with children `a` (holding a text node) and `b`: four nodes.
fn small_tree() -> XmlTree {
    TreeBuilder::new("r").leaf("a", "x").open("b").close().build()
}

#[test]
fn unpatched_bytes_are_the_trees_own_encoding_and_validate() {
    let tree = small_tree();
    let links = links_of(&tree);
    assert_eq!(bytes_with(&tree, &links, 0), encode(&tree));
    assert_eq!(validate_patched(&tree, &links, 0), Ok(()));
}

#[test]
fn a_root_outside_the_arena_is_a_structure_violation() {
    let tree = XmlTree::with_root_element("r");
    assert!(is_violation(validate_patched(&tree, &links_of(&tree), 5)));
}

#[test]
fn every_single_link_rewrite_is_caught() {
    // Each link slot of each node set to every other value: none, each of
    // the four nodes (sibling cycles among them) and one past the arena. A
    // link is determined by the rest of the structure, so every rewrite
    // makes the tree inconsistent, and validate says so without panicking.
    let tree = small_tree();
    let n = tree.node_count() as u32;
    let values = std::iter::once(None).chain((0..=n).map(Some));
    for node in 0..tree.node_count() {
        for slot in 0..5 {
            for value in values.clone() {
                let mut links = links_of(&tree);
                if links[node][slot] == value {
                    continue;
                }
                links[node][slot] = value;
                let result = validate_patched(&tree, &links, 0);
                assert!(is_violation(result), "node {node} slot {slot} = {value:?}");
            }
        }
    }
    for root in 1..=n {
        assert!(is_violation(validate_patched(&tree, &links_of(&tree), root)), "root {root}");
    }
}
