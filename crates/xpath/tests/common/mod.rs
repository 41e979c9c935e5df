//! Random documents, fragments and queries shared by the crate's property
//! tests: `tests/property_pipeline.rs` and the site kernel's unit tests in
//! `src/eval.rs`, which includes this file by path. It names only
//! `paxml_xml` and `proptest`, so it compiles in both places.

#![allow(dead_code)]

use paxml_xml::{NodeId, NodeKind, XmlTree};
use proptest::prelude::*;

pub const LABELS: &[&str] = &["a", "b", "c", "d"];
pub const TEXTS: &[&str] = &["x", "US", "7", "42"];

/// Build a tree from `(parent choice, kind, cut)` triples; a triple with
/// `cut == 0` becomes a virtual leaf standing for a missing sub-fragment
/// (labelled root), so only [`fragment_strategy`] passes zeros.
pub fn build_tree(spec: &[(usize, usize, usize)]) -> XmlTree {
    let mut tree = XmlTree::with_root_element(LABELS[0]);
    let mut elements: Vec<NodeId> = vec![tree.root()];
    for (fragment, &(parent_choice, kind, cut)) in spec.iter().enumerate() {
        let parent = elements[parent_choice % elements.len()];
        let label = LABELS[kind % LABELS.len()];
        if cut == 0 {
            let stub = NodeKind::virtual_node(fragment + 1, Some(label.to_string()));
            tree.append_child(parent, stub);
        } else if kind % 5 == 4 {
            tree.append_child(parent, NodeKind::text(TEXTS[kind % TEXTS.len()]));
        } else {
            elements.push(tree.append_element(parent, label));
        }
    }
    tree
}

pub fn tree_strategy() -> impl Strategy<Value = XmlTree> {
    prop::collection::vec((0usize..500, 0usize..20, Just(1usize)), 3..50)
        .prop_map(|spec| build_tree(&spec))
}

/// A random fragment: about every sixth node is a virtual leaf.
pub fn fragment_strategy() -> impl Strategy<Value = XmlTree> {
    prop::collection::vec((0usize..500, 0usize..20, 0usize..6), 3..50)
        .prop_map(|spec| build_tree(&spec))
}

/// A qualifier of twenty text comparisons: 81 `QVect` entries, more than
/// one word holds.
pub fn wide_qualifier_query() -> String {
    let texts = TEXTS.iter().map(|t| t.to_string()).chain((4..20).map(|i| format!("t{i}")));
    let tests: Vec<String> = texts.map(|t| format!("b/text()=\"{t}\"")).collect();
    format!("//a[{}]", tests.join(" or "))
}

/// A selection path of 33 `//*` steps: 67 `SVect` entries, more than one
/// word holds.
pub fn deep_selection_query() -> String {
    "//*".repeat(33)
}

/// [`query_strategy`] plus the positional shapes it does not generate and
/// the shapes whose vectors outgrow one word.
pub fn kernel_query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        query_strategy(),
        query_strategy(),
        prop::sample::select(vec!["a/b[2]/c", "//b[last()]", "*[b[1]/c]/d", ".[//c]"])
            .prop_map(str::to_string),
        prop::sample::select(vec![wide_qualifier_query(), deep_selection_query()]),
    ]
}

pub fn query_strategy() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        prop::sample::select(LABELS.to_vec()).prop_map(str::to_string),
        Just("*".to_string()),
    ];
    let qual = prop_oneof![
        Just(String::new()),
        prop::sample::select(LABELS.to_vec()).prop_map(|l| format!("[{l}]")),
        (prop::sample::select(LABELS.to_vec()), prop::sample::select(TEXTS.to_vec()))
            .prop_map(|(l, t)| format!("[{l}/text()=\"{t}\"]")),
        (prop::sample::select(LABELS.to_vec()), 0u32..50)
            .prop_map(|(l, n)| format!("[{l} >= {n}]")),
        prop::sample::select(LABELS.to_vec()).prop_map(|l| format!("[not({l})]")),
    ];
    (prop::bool::ANY, prop::collection::vec((step, qual), 1..4)).prop_map(|(desc, steps)| {
        let mut out = String::new();
        if desc {
            out.push_str("//");
        }
        for (i, (s, q)) in steps.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(s);
            out.push_str(q);
        }
        out
    })
}
