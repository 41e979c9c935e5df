//! Cutting a tree into fragments and splicing it back together.

use crate::error::{FragmentError, FragmentResult};
use crate::model::{Fragment, FragmentId, FragmentTree, FragmentedTree};
use paxml_xml::{label_path, LabelPath, NodeId, NodeKind, XmlTree};
use std::collections::{BTreeMap, BTreeSet};

/// Fragment `tree` by cutting at the given nodes: each cut node becomes the
/// root of a new fragment, and its place in the enclosing fragment is taken
/// by a virtual node. Cut nodes may be nested arbitrarily (a cut inside the
/// subtree of another cut produces nested fragments, as in Fig. 1 where `F2`
/// is a sub-fragment of `F1`).
///
/// Fragment ids are assigned in document order of the cut nodes, with the
/// root fragment always receiving `F0`.
pub fn fragment_at(tree: &XmlTree, cuts: &[NodeId]) -> FragmentResult<FragmentedTree> {
    // --- validation --------------------------------------------------------
    let mut cut_set: BTreeSet<NodeId> = BTreeSet::new();
    for &c in cuts {
        if !tree.contains(c) {
            return Err(FragmentError::UnknownCutNode { node: c.index() });
        }
        if c == tree.root() {
            return Err(FragmentError::CannotCutRoot);
        }
        if !tree.is_element(c) {
            return Err(FragmentError::CutAtNonElement { node: c.index() });
        }
        if !cut_set.insert(c) {
            return Err(FragmentError::DuplicateCut { node: c.index() });
        }
    }

    // --- fragment ids in document order ------------------------------------
    let mut fragment_of_cut: BTreeMap<NodeId, FragmentId> = BTreeMap::new();
    let mut cut_roots: Vec<NodeId> = Vec::with_capacity(cut_set.len());
    for n in tree.all_nodes() {
        if cut_set.contains(&n) {
            fragment_of_cut.insert(n, FragmentId(cut_roots.len() + 1));
            cut_roots.push(n);
        }
    }

    // --- build each fragment's tree -----------------------------------------
    // A fragment's tree is a copy of the subtree rooted at its cut node (or
    // the document root for F0) where every *nested* cut node is replaced by
    // a virtual placeholder.
    let mut fragments: Vec<Fragment> = Vec::with_capacity(cut_roots.len() + 1);
    let mut fragment_tree = FragmentTree::new();

    let roots: Vec<(FragmentId, NodeId)> = std::iter::once((FragmentId::ROOT, tree.root()))
        .chain(cut_roots.iter().enumerate().map(|(i, &n)| (FragmentId(i + 1), n)))
        .collect();

    for &(fid, root) in &roots {
        let mut origin: Vec<u32> = Vec::new();
        let tree_copy = tree.copy_subtree(
            root,
            // A child that starts a different fragment leaves a placeholder.
            |c| {
                let fid = fragment_of_cut.get(&c)?;
                Some(NodeKind::virtual_node(fid.index(), tree.label(c).map(str::to_string)))
            },
            |src, _| origin.push(src.index() as u32),
        );
        let root_label = tree.label(root).unwrap_or_default().to_string();
        fragments.push(Fragment { id: fid, tree: tree_copy, root_label, origin });
    }

    // --- fragment tree edges and annotations --------------------------------
    // The parent fragment of a cut node c is the fragment owning c's parent:
    // the nearest ancestor that is a cut node (or the root fragment).
    for (i, &c) in cut_roots.iter().enumerate() {
        let child_id = FragmentId(i + 1);
        let mut parent_fragment = FragmentId::ROOT;
        let mut parent_root = tree.root();
        for anc in tree.ancestors(c) {
            if let Some(&fid) = fragment_of_cut.get(&anc) {
                parent_fragment = fid;
                parent_root = anc;
                break;
            }
        }
        let annotation = label_path(tree, parent_root, c).unwrap_or_else(LabelPath::empty);
        fragment_tree.add_child(parent_fragment, child_id, annotation);
    }

    let out = FragmentedTree { fragments, fragment_tree };
    debug_assert!(out.validate().is_ok());
    Ok(out)
}

/// Splice every sub-fragment back in place of its virtual node, recovering a
/// tree structurally identical to the original (this is what the
/// `NaiveCentralized` baseline does at the query site after shipping all
/// fragments there).
pub fn reassemble(fragmented: &FragmentedTree) -> FragmentResult<XmlTree> {
    reassemble_with_origin(fragmented).map(|(tree, _)| tree)
}

/// Like [`reassemble`], but also return, for every node of the reassembled
/// tree (indexed by its arena index), the arena index of the corresponding
/// node in the *original* tree (via the fragments' origin maps). Needed by
/// the `NaiveCentralized` baseline so its answers carry the same canonical
/// identity as the distributed algorithms'.
pub fn reassemble_with_origin(fragmented: &FragmentedTree) -> FragmentResult<(XmlTree, Vec<u32>)> {
    fragmented.validate()?;
    // The document starts as one placeholder for the root fragment (its
    // origin is filled in by the splice); each splice fills one placeholder
    // and hands back those it copied.
    let mut tree = XmlTree::new(NodeKind::virtual_node(FragmentId::ROOT.index(), None));
    let mut origin = vec![u32::MAX];
    let mut pending = vec![(tree.root(), FragmentId::ROOT)];
    while let Some((vnode, id)) = pending.pop() {
        pending.extend(splice(&mut tree, &mut origin, vnode, fragmented.fragment(id)?)?);
    }
    Ok((tree, origin))
}

/// Splice `child` into `tree` in place of its virtual node `vnode`: the
/// placeholder takes the child root's kind and origin, then each of the
/// child root's children is copied under it in turn, extending `origin` in
/// arena order. Returns the virtual nodes the copy carried along, with the
/// fragments they stand for.
pub(crate) fn splice(
    tree: &mut XmlTree,
    origin: &mut Vec<u32>,
    vnode: NodeId,
    child: &Fragment,
) -> FragmentResult<Vec<(NodeId, FragmentId)>> {
    let root = child.tree.root();
    tree.replace_kind(vnode, child.tree.kind(root).clone())
        .map_err(|e| FragmentError::Inconsistent { message: e.to_string() })?;
    origin[vnode.index()] = child.origin[root.index()];
    let mut placeholders = Vec::new();
    for grandchild in child.tree.children(root) {
        tree.append_subtree(
            vnode,
            &child.tree,
            grandchild,
            |_| None,
            |src, copy| {
                debug_assert_eq!(copy.index(), origin.len());
                origin.push(child.origin[src.index()]);
                if let Some(f) = child.tree.kind(src).virtual_fragment() {
                    placeholders.push((copy, FragmentId(f)));
                }
            },
        );
    }
    Ok(placeholders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::{parse, to_string, TreeBuilder};

    /// The clientele tree of Fig. 1.
    pub(crate) fn clientele() -> XmlTree {
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NYSE")
            .open("stock")
            .leaf("code", "IBM")
            .leaf("buy", "$80")
            .leaf("qt", "50")
            .close()
            .close()
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "YHOO")
            .leaf("buy", "$33")
            .leaf("qt", "40")
            .close()
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "75")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Kim")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "Bache")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$370")
            .leaf("qt", "40")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Lisa")
            .leaf("country", "Canada")
            .open("broker")
            .leaf("name", "CIBC")
            .open("market")
            .leaf("name", "TSE")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$382")
            .leaf("qt", "90")
            .close()
            .close()
            .close()
            .close()
            .build()
    }

    /// The Fig. 1/Fig. 2 fragmentation: F1 = Anna's broker subtree,
    /// F2 = the NASDAQ market inside F1, F3 = Lisa's client subtree,
    /// F4 = Kim's NASDAQ market.
    pub(crate) fn clientele_cuts(tree: &XmlTree) -> Vec<NodeId> {
        let brokers = tree.find_all("broker");
        let markets = tree.find_all("market");
        let clients = tree.find_all("client");
        // Anna's broker, Anna's NASDAQ market (2nd market), Lisa's client,
        // Kim's market.
        vec![brokers[0], markets[1], clients[2], markets[2]]
    }

    #[test]
    fn simple_two_fragment_cut() {
        let tree = parse("<a><b><c/></b><d/></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        let f = fragment_at(&tree, &[b]).unwrap();
        assert_eq!(f.fragment_count(), 2);
        let root = f.root_fragment();
        assert_eq!(
            to_string(&root.tree),
            "<a><paxml:fragment-ref fragment=\"1\" root-label=\"b\"/><d/></a>"
        );
        let f1 = f.fragment(FragmentId(1)).unwrap();
        assert_eq!(to_string(&f1.tree), "<b><c/></b>");
        assert_eq!(f.fragment_tree.annotation(FragmentId(1)).unwrap().to_string(), "b");
    }

    #[test]
    fn fig1_fragmentation_produces_expected_fragment_tree() {
        let tree = clientele();
        let cuts = clientele_cuts(&tree);
        let f = fragment_at(&tree, &cuts).unwrap();
        f.validate().unwrap();
        assert_eq!(f.fragment_count(), 5);

        // Fragment ids follow document order of the cut nodes:
        // F1 = Anna's broker, F2 = NASDAQ market under F1, F3 = Kim's market,
        // F4 = Lisa's client. (The paper's figure numbers them differently
        // but the shape of FT is what matters.)
        let ft = &f.fragment_tree;
        assert_eq!(ft.parent(FragmentId(1)), Some(FragmentId(0)));
        assert_eq!(ft.parent(FragmentId(2)), Some(FragmentId(1)));
        assert_eq!(ft.parent(FragmentId(3)), Some(FragmentId(0)));
        assert_eq!(ft.parent(FragmentId(4)), Some(FragmentId(0)));

        // Annotations (Fig. 6): root→broker-fragment is client/broker,
        // broker-fragment→market-fragment is market, root→Kim's market is
        // client/broker/market, root→Lisa's client is client.
        assert_eq!(ft.annotation(FragmentId(1)).unwrap().to_string(), "client/broker");
        assert_eq!(ft.annotation(FragmentId(2)).unwrap().to_string(), "market");
        assert_eq!(ft.annotation(FragmentId(3)).unwrap().to_string(), "client/broker/market");
        assert_eq!(ft.annotation(FragmentId(4)).unwrap().to_string(), "client");
        assert_eq!(ft.annotation_from_root(FragmentId(2)).to_string(), "client/broker/market");

        // The root fragment holds three virtual nodes (F1, F3's market... no:
        // F1, Kim's market F3, Lisa's client F4).
        assert_eq!(f.root_fragment().virtual_children().len(), 3);
    }

    #[test]
    fn reassembly_round_trips_for_many_cut_choices() {
        let tree = clientele();
        let brokers = tree.find_all("broker");
        let markets = tree.find_all("market");
        let stocks = tree.find_all("stock");
        let clients = tree.find_all("client");
        let choices: Vec<Vec<NodeId>> = vec![
            vec![],
            vec![brokers[0]],
            vec![clients[0], clients[1], clients[2]],
            clientele_cuts(&tree),
            markets.clone(),
            stocks.clone(),
            {
                let mut all = Vec::new();
                all.extend(&brokers);
                all.extend(&markets);
                all.extend(&stocks);
                all
            },
        ];
        for cuts in choices {
            let f = fragment_at(&tree, &cuts).unwrap();
            f.validate().unwrap();
            assert_eq!(f.total_real_nodes(), tree.all_nodes().count());
            let back = f.reassemble().unwrap();
            assert_eq!(
                to_string(&back),
                to_string(&tree),
                "round trip failed for {} cuts",
                f.fragment_count() - 1
            );
        }
    }

    #[test]
    fn nested_cuts_produce_nested_fragments() {
        let tree = parse("<a><b><c><d><e/></d></c></b></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        let d = tree.find_first("d").unwrap();
        let f = fragment_at(&tree, &[b, d]).unwrap();
        assert_eq!(f.fragment_count(), 3);
        assert_eq!(f.fragment_tree.parent(FragmentId(2)), Some(FragmentId(1)));
        assert_eq!(f.fragment_tree.annotation(FragmentId(2)).unwrap().to_string(), "c/d");
        assert_eq!(f.fragment_tree.depth(FragmentId(2)), 2);
        let back = f.reassemble().unwrap();
        assert_eq!(to_string(&back), to_string(&tree));
    }

    #[test]
    fn invalid_cuts_are_rejected() {
        let tree = parse("<a><b>hello</b></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        let text = tree.children(b).next().unwrap();
        assert_eq!(fragment_at(&tree, &[tree.root()]), Err(FragmentError::CannotCutRoot));
        assert_eq!(
            fragment_at(&tree, &[b, b]),
            Err(FragmentError::DuplicateCut { node: b.index() })
        );
        assert_eq!(
            fragment_at(&tree, &[text]),
            Err(FragmentError::CutAtNonElement { node: text.index() })
        );
        assert!(matches!(
            fragment_at(&tree, &[NodeId::from_index(999)]),
            Err(FragmentError::UnknownCutNode { .. })
        ));
    }

    #[test]
    fn reassemble_with_origin_maps_every_node_back() {
        let tree = clientele();
        let cuts = clientele_cuts(&tree);
        let f = fragment_at(&tree, &cuts).unwrap();
        let (back, origin) = reassemble_with_origin(&f).unwrap();
        assert_eq!(to_string(&back), to_string(&tree));
        assert_eq!(origin.len(), back.node_count());
        // Every reassembled node has the same label/text as its origin node.
        for n in back.all_nodes() {
            let o = NodeId::from_index(origin[n.index()] as usize);
            assert_eq!(back.label(n), tree.label(o));
            assert_eq!(back.text_value(n), tree.text_value(o));
        }
        // Origins are a permutation of the original node ids.
        let mut sorted: Vec<u32> = origin.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tree.node_count());
    }

    #[test]
    fn fragment_sizes_sum_to_tree_size_plus_placeholders() {
        let tree = clientele();
        let cuts = clientele_cuts(&tree);
        let f = fragment_at(&tree, &cuts).unwrap();
        let total: usize = f.fragments.iter().map(Fragment::size).sum();
        assert_eq!(total, tree.all_nodes().count() + cuts.len());
    }
}
