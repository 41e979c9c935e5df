//! Update workloads: mixed query/update streams over a fragmented XMark
//! deployment.
//!
//! The paper's experiments are read-only; the incremental-evaluation
//! subsystem needs write traffic. This module generates *valid* random
//! [`UpdateOp`] batches against a fragmented tree: subtree inserts (small
//! XMark-shaped subtrees — persons, items, annotations — whose `country`
//! and `age` values deliberately straddle the Q3/Q4 qualifiers so updates
//! flip answers), subtree deletes, element relabels and text edits. The
//! generator keeps its own **mirror** of the fragments, applies every op it
//! emits, and hands out disjoint origin ranges for inserted nodes — so the
//! emitted stream is exactly reproducible against any other copy of the
//! same fragmentation (the site-held copies of a deployment, a from-scratch
//! reference, …).

use crate::generator::XmarkConfig;
use paxml_fragment::{apply_update, FragmentId, FragmentedTree, UpdateOp};
use paxml_xml::{NodeId, TreeBuilder, XmlTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator of valid random update batches over one fragmentation.
pub struct UpdateWorkload {
    mirror: FragmentedTree,
    rng: StdRng,
    next_origin: u32,
    counter: usize,
    us_fraction: f64,
}

impl UpdateWorkload {
    /// Wrap a fragmented tree. `original_nodes` is the node count of the
    /// unfragmented document — inserted nodes get origin ids above it, so
    /// they never collide with original answers.
    pub fn new(fragmented: &FragmentedTree, original_nodes: usize, seed: u64) -> Self {
        UpdateWorkload {
            mirror: fragmented.clone(),
            rng: StdRng::seed_from_u64(seed),
            next_origin: original_nodes as u32,
            counter: 0,
            us_fraction: XmarkConfig::default().us_fraction,
        }
    }

    /// The generator's own up-to-date copy of the fragments (every emitted
    /// op has already been applied to it). Use it to build a from-scratch
    /// reference deployment.
    pub fn mirror(&self) -> &FragmentedTree {
        &self.mirror
    }

    /// Generate one batch of `op_count` valid ops spread over at most
    /// `max_dirty_fragments` distinct fragments, apply them to the mirror,
    /// and return them. Returns fewer ops (possibly none) if the fragments
    /// run out of editable nodes.
    pub fn next_batch(
        &mut self,
        op_count: usize,
        max_dirty_fragments: usize,
    ) -> Vec<(FragmentId, UpdateOp)> {
        let fragment_count = self.mirror.fragment_count();
        let pool_size = max_dirty_fragments.clamp(1, fragment_count);
        // Pick the dirty-fragment pool for this batch.
        let mut pool: Vec<FragmentId> = Vec::with_capacity(pool_size);
        while pool.len() < pool_size {
            let f = FragmentId(self.rng.gen_range(0..fragment_count));
            if !pool.contains(&f) {
                pool.push(f);
            }
        }
        let mut batch = Vec::with_capacity(op_count);
        let mut attempts = 0;
        while batch.len() < op_count && attempts < op_count * 20 {
            attempts += 1;
            let fragment = pool[self.rng.gen_range(0..pool.len())];
            let Some(op) = self.propose_op(fragment) else { continue };
            // The mirror is the same state as every other copy: an op that
            // applies here applies everywhere.
            if apply_update(&mut self.mirror.fragments[fragment.index()], &op).is_ok() {
                batch.push((fragment, op));
            }
        }
        batch
    }

    /// Propose one op against `fragment` (validity is re-checked by actually
    /// applying it to the mirror).
    fn propose_op(&mut self, fragment: FragmentId) -> Option<UpdateOp> {
        let tree = &self.mirror.fragments[fragment.index()].tree;
        let rng = &mut self.rng;
        match rng.gen_range(0..10u32) {
            // Inserts are the most interesting op (they grow answers), so
            // they get the biggest share.
            0..=3 => {
                let parent = random_node(rng, tree, |t, n| {
                    t.is_reachable(n) && t.is_element(n) && !t.is_virtual(n)
                })?;
                let subtree = self.random_subtree();
                let origin_base = self.next_origin;
                self.next_origin += subtree.node_count() as u32;
                Some(UpdateOp::InsertSubtree { parent, subtree, origin_base })
            }
            4..=5 => {
                let root = tree.root();
                let node = random_node(rng, tree, |t, n| {
                    n != root
                        && t.is_reachable(n)
                        && t.is_element(n)
                        && !t.pre_order(n).any(|d| t.is_virtual(d))
                        // Keep deletions small-ish so streams do not wipe
                        // whole fragments in a few ops.
                        && t.subtree_size(n) <= 24
                })?;
                Some(UpdateOp::DeleteSubtree { node })
            }
            6..=7 => {
                let node =
                    random_node(rng, tree, |t, n| t.is_reachable(n) && t.text_value(n).is_some())?;
                let text = self.random_text();
                Some(UpdateOp::EditText { node, text })
            }
            _ => {
                let root = tree.root();
                let node = random_node(rng, tree, |t, n| {
                    n != root && t.is_reachable(n) && t.is_element(n) && !t.is_virtual(n)
                })?;
                self.counter += 1;
                Some(UpdateOp::Relabel { node, label: format!("renamed{}", self.counter % 3) })
            }
        }
    }

    /// A small XMark-shaped subtree. Persons dominate, with `country`/`age`
    /// values on both sides of the Q3/Q4 qualifiers.
    fn random_subtree(&mut self) -> XmlTree {
        self.counter += 1;
        let n = self.counter;
        match self.rng.gen_range(0..3u32) {
            0 => {
                let country = if self.rng.gen_bool(self.us_fraction) { "US" } else { "Japan" };
                let age = self.rng.gen_range(15..60);
                TreeBuilder::new("person")
                    .leaf("name", format!("Inserted Person{n}"))
                    .leaf("creditcard", format!("9999 0000 0000 {n:04}"))
                    .open("profile")
                    .leaf("age", age.to_string())
                    .close()
                    .open("address")
                    .leaf("country", country)
                    .close()
                    .build()
            }
            1 => TreeBuilder::new("item")
                .leaf("quantity", self.rng.gen_range(1..12).to_string())
                .leaf("name", format!("inserted item {n}"))
                .build(),
            _ => TreeBuilder::new("annotation")
                .leaf("author", format!("person{n}"))
                .open("description")
                .leaf("text", "inserted by the update workload")
                .close()
                .build(),
        }
    }

    fn random_text(&mut self) -> String {
        match self.rng.gen_range(0..4u32) {
            0 => "US".to_string(),
            1 => "Germany".to_string(),
            2 => self.rng.gen_range(10..70).to_string(),
            _ => format!("edited text {}", self.counter),
        }
    }
}

/// A uniformly random node satisfying `keep` (rejection sampling over the
/// arena; `None` when nothing qualifies).
fn random_node(
    rng: &mut StdRng,
    tree: &XmlTree,
    keep: impl Fn(&XmlTree, NodeId) -> bool,
) -> Option<NodeId> {
    let candidates: Vec<NodeId> = tree.all_nodes().filter(|&n| keep(tree, n)).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ft1;

    #[test]
    fn batches_are_valid_and_reproducible() {
        let (tree, fragmented) = ft1(4, 0.5, 7);
        let nodes = tree.all_nodes().count();
        let mut a = UpdateWorkload::new(&fragmented, nodes, 11);
        let mut b = UpdateWorkload::new(&fragmented, nodes, 11);
        for _ in 0..5 {
            let batch_a = a.next_batch(6, 2);
            let batch_b = b.next_batch(6, 2);
            assert_eq!(batch_a.len(), batch_b.len());
            assert!(!batch_a.is_empty());
            for ((fa, oa), (fb, ob)) in batch_a.iter().zip(&batch_b) {
                assert_eq!(fa, fb);
                assert_eq!(oa, ob);
            }
        }
        // The two mirrors evolved identically.
        for (fa, fb) in a.mirror().fragments.iter().zip(&b.mirror().fragments) {
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn emitted_ops_apply_cleanly_to_an_independent_copy() {
        let (tree, fragmented) = ft1(3, 0.4, 3);
        let nodes = tree.all_nodes().count();
        let mut copy = fragmented.clone();
        let mut workload = UpdateWorkload::new(&fragmented, nodes, 5);
        for _ in 0..8 {
            for (fragment, op) in workload.next_batch(5, 2) {
                apply_update(&mut copy.fragments[fragment.index()], &op)
                    .expect("emitted ops are valid against any same-state copy");
            }
        }
        // The copy tracked the mirror exactly, and stayed structurally valid.
        for (fa, fb) in copy.fragments.iter().zip(&workload.mirror().fragments) {
            assert_eq!(fa, fb);
            fa.tree.validate().unwrap();
        }
        copy.validate().unwrap();
    }

    #[test]
    fn dirty_fragment_pool_is_respected() {
        let (tree, fragmented) = ft1(8, 0.8, 9);
        let nodes = tree.all_nodes().count();
        let mut workload = UpdateWorkload::new(&fragmented, nodes, 3);
        for _ in 0..6 {
            let batch = workload.next_batch(10, 2);
            let distinct: std::collections::BTreeSet<FragmentId> =
                batch.iter().map(|(f, _)| *f).collect();
            assert!(distinct.len() <= 2, "batch dirtied {} fragments", distinct.len());
        }
    }

    #[test]
    fn inserted_origins_never_collide_with_original_nodes() {
        let (tree, fragmented) = ft1(3, 0.4, 13);
        let nodes = tree.all_nodes().count();
        let mut workload = UpdateWorkload::new(&fragmented, nodes, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10 {
            for (_, op) in workload.next_batch(6, 3) {
                if let UpdateOp::InsertSubtree { subtree, origin_base, .. } = op {
                    for i in 0..subtree.node_count() as u32 {
                        let origin = origin_base + i;
                        assert!(origin >= nodes as u32);
                        assert!(seen.insert(origin), "origin {origin} reused");
                    }
                }
            }
        }
    }
}
