//! Node numbering pins for every operation that copies a subtree.
//!
//! Node ids leave the fragmentation layer: fragments ship whole, answers
//! carry origin ids, and [`UpdateOp`]s address a fragment's arena by
//! `NodeId`. So the arena order in which `fragment_at`, `split_fragment`,
//! `merge_fragment` and `UpdateOp::InsertSubtree` lay out their copies is
//! part of the contract. Each case below records, for one result, the arena
//! size, the arena ids in document order and the whole origin map.

use paxml_fragment::{
    apply_update, fragment_at, merge_fragment, split_fragment, Fragment, FragmentId,
    FragmentedTree, UpdateOp,
};
use paxml_xml::{parse, to_string};

/// The clientele document of Fig. 1.
const CLIENTELE: &str = "<clientele>\
<client><name>Anna</name><country>US</country><broker><name>E*trade</name>\
<market><name>NYSE</name><stock><code>IBM</code><buy>$80</buy><qt>50</qt></stock></market>\
<market><name>NASDAQ</name><stock><code>YHOO</code><buy>$33</buy><qt>40</qt></stock>\
<stock><code>GOOG</code><buy>$374</buy><qt>75</qt></stock></market></broker></client>\
<client><name>Kim</name><country>US</country><broker><name>Bache</name>\
<market><name>NASDAQ</name><stock><code>GOOG</code><buy>$370</buy><qt>40</qt></stock></market>\
</broker></client>\
<client><name>Lisa</name><country>Canada</country><broker><name>CIBC</name>\
<market><name>TSE</name><stock><code>GOOG</code><buy>$382</buy><qt>90</qt></stock></market>\
</broker></client></clientele>";

/// Fig. 1's cuts: Anna's broker, its NASDAQ market, Kim's market and
/// Lisa's client (F1–F4 in document order).
fn fig1() -> FragmentedTree {
    let tree = parse(CLIENTELE).unwrap();
    let (brokers, markets) = (tree.find_all("broker"), tree.find_all("market"));
    let clients = tree.find_all("client");
    fragment_at(&tree, &[brokers[0], markets[1], clients[2], markets[2]]).unwrap()
}

/// Arena size, arena ids in document order, and the origin map.
fn layout(fragment: &Fragment) -> (usize, Vec<u32>, Vec<u32>) {
    let tree = &fragment.tree;
    let order = tree.all_nodes().map(|n| n.index() as u32).collect();
    (tree.node_count(), order, fragment.origin.clone())
}

#[test]
fn fragment_at_lays_out_the_fig1_fragments() {
    let fragmented = fig1();
    let expected: [(usize, Vec<u32>, Vec<u32>); 5] = [
        (
            17,
            vec![0, 1, 12, 16, 13, 15, 14, 2, 4, 11, 5, 10, 6, 7, 9, 8, 3],
            vec![0, 1, 36, 54, 37, 39, 41, 42, 44, 43, 40, 38, 2, 4, 6, 5, 3],
        ),
        (
            14,
            vec![0, 1, 13, 2, 4, 12, 5, 6, 11, 7, 10, 8, 9, 3],
            vec![6, 7, 9, 19, 10, 12, 13, 15, 17, 18, 16, 14, 11, 8],
        ),
        (
            17,
            vec![0, 1, 16, 2, 10, 15, 11, 14, 12, 13, 3, 4, 9, 5, 8, 6, 7],
            vec![19, 20, 22, 29, 30, 32, 34, 35, 33, 31, 23, 25, 27, 28, 26, 24, 21],
        ),
        (10, vec![0, 1, 9, 2, 3, 8, 4, 7, 5, 6], vec![44, 45, 47, 48, 50, 52, 53, 51, 49, 46]),
        (
            18,
            vec![0, 1, 17, 2, 16, 3, 4, 15, 5, 6, 14, 7, 8, 13, 9, 12, 10, 11],
            vec![54, 55, 57, 59, 60, 62, 63, 65, 66, 68, 70, 71, 69, 67, 64, 61, 58, 56],
        ),
    ];
    assert_eq!(fragmented.fragment_count(), expected.len());
    for (fragment, expected) in fragmented.fragments.iter().zip(expected) {
        assert_eq!(layout(fragment), expected, "{}", fragment.id);
    }
}

#[test]
fn split_fragment_lays_out_the_cut_subtree() {
    // Cutting F0 at Kim's client moves F3's virtual node into the new child.
    let fragmented = fig1();
    let f0 = fragmented.fragment(FragmentId::ROOT).unwrap();
    let kim = f0.tree.find_all("client")[1];
    let out = split_fragment(f0, &fragmented.fragment_tree, kim, FragmentId(5)).unwrap();
    assert_eq!(
        layout(&out.child),
        (9, vec![0, 1, 8, 2, 7, 3, 4, 6, 5], vec![36, 37, 39, 41, 42, 44, 43, 40, 38])
    );
    assert_eq!(
        to_string(&out.child.tree),
        "<client><name>Kim</name><country>US</country><broker><name>Bache</name>\
         <paxml:fragment-ref fragment=\"3\" root-label=\"market\"/></broker></client>"
    );
    // The parent keeps its arena: the cut subtree is detached, not removed.
    assert_eq!(
        layout(&out.parent),
        (
            17,
            vec![0, 1, 12, 16, 13, 15, 14, 2, 3],
            vec![0, 1, 36, 54, 37, 39, 41, 42, 44, 43, 40, 38, 2, 4, 6, 5, 3],
        )
    );
}

#[test]
fn merge_fragment_appends_the_child_after_the_parent_arena() {
    let fragmented = fig1();
    let f0 = fragmented.fragment(FragmentId::ROOT).unwrap();
    let f1 = fragmented.fragment(FragmentId(1)).unwrap();
    let out = merge_fragment(f0, f1, &fragmented.fragment_tree).unwrap();
    assert_eq!(
        layout(&out.merged),
        (
            30,
            vec![
                0, 1, 12, 16, 13, 15, 14, 17, 18, 19, 20, 28, 21, 22, 27, 23, 26, 24, 25, 29, 2, 4,
                11, 5, 10, 6, 7, 9, 8, 3,
            ],
            vec![
                0, 1, 36, 54, 37, 39, 41, 42, 44, 43, 40, 38, 2, 4, 6, 5, 3, 7, 8, 9, 10, 12, 13,
                15, 17, 18, 16, 14, 11, 19,
            ],
        )
    );
}

#[test]
fn insert_subtree_numbers_the_graft_and_its_origins() {
    let fragmented = fig1();
    let mut f1 = fragmented.fragment(FragmentId(1)).unwrap().clone();
    let nyse = f1.tree.find_first("market").unwrap();
    let subtree = parse(INSERTED).unwrap();
    apply_update(&mut f1, &UpdateOp::InsertSubtree { parent: nyse, subtree, origin_base: 1000 })
        .unwrap();
    assert_eq!(
        layout(&f1),
        (
            24,
            vec![
                0, 1, 13, 2, 4, 12, 5, 6, 11, 7, 10, 8, 9, 14, 15, 23, 16, 19, 22, 20, 21, 17, 18,
                3
            ],
            vec![
                6, 7, 9, 19, 10, 12, 13, 15, 17, 18, 16, 14, 11, 8, 1000, 1001, 1002, 1003, 1004,
                1005, 1006, 1007, 1008, 1009,
            ],
        )
    );
}

/// A subtree with children at three levels, so a copy that visits siblings
/// out of order numbers it differently.
const INSERTED: &str =
    "<stock><code>MSFT</code><lots><lot>1</lot><lot>2</lot></lots><qt>9</qt></stock>";
