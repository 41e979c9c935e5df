//! Tree statistics used by the experiments to calibrate "virtual megabytes"
//! and by tests to compare trees structurally.

use crate::node::NodeKind;
use crate::tree::XmlTree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate statistics over the reachable nodes of a tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Number of reachable element nodes.
    pub element_count: usize,
    /// Number of reachable text nodes.
    pub text_count: usize,
    /// Number of reachable virtual nodes.
    pub virtual_count: usize,
    /// Maximum depth (root has depth 0).
    pub height: usize,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Estimated serialized size in bytes (tags + text), a cheap stand-in for
    /// the on-disk size the paper reports in megabytes.
    pub approx_serialized_bytes: usize,
    /// Count of elements per label.
    pub label_histogram: BTreeMap<String, usize>,
}

impl TreeStats {
    /// Compute statistics for the reachable part of `tree`.
    pub fn compute(tree: &XmlTree) -> Self {
        let mut stats = TreeStats {
            element_count: 0,
            text_count: 0,
            virtual_count: 0,
            height: 0,
            text_bytes: 0,
            approx_serialized_bytes: 0,
            label_histogram: BTreeMap::new(),
        };
        for (id, depth) in tree.pre_order_with_depth(tree.root()) {
            match tree.kind(id) {
                NodeKind::Element { label, attributes } => {
                    stats.element_count += 1;
                    // `<label>` + `</label>`
                    stats.approx_serialized_bytes += 2 * label.len() + 5;
                    for (k, v) in attributes {
                        stats.approx_serialized_bytes += k.len() + v.len() + 4;
                    }
                    *stats.label_histogram.entry(label.clone()).or_insert(0) += 1;
                }
                NodeKind::Text { value } => {
                    stats.text_count += 1;
                    stats.text_bytes += value.len();
                    stats.approx_serialized_bytes += value.len();
                }
                NodeKind::Virtual { .. } => {
                    stats.virtual_count += 1;
                    stats.approx_serialized_bytes += 32;
                }
            }
            if depth > stats.height {
                stats.height = depth;
            }
        }
        stats
    }

    /// Total number of reachable nodes.
    pub fn total_nodes(&self) -> usize {
        self.element_count + self.text_count + self.virtual_count
    }

    /// How many elements carry the given label.
    pub fn count_of(&self, label: &str) -> usize {
        self.label_histogram.get(label).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, TreeBuilder};

    #[test]
    fn counts_match_document() {
        let tree = parse("<a x=\"1\"><b>hello</b><b>world</b><c/></a>").unwrap();
        let s = TreeStats::compute(&tree);
        assert_eq!(s.element_count, 4);
        assert_eq!(s.text_count, 2);
        assert_eq!(s.virtual_count, 0);
        assert_eq!(s.total_nodes(), 6);
        assert_eq!(s.height, 2);
        assert_eq!(s.text_bytes, 10);
        assert_eq!(s.count_of("b"), 2);
        assert_eq!(s.count_of("zzz"), 0);
    }

    #[test]
    fn virtual_nodes_are_counted() {
        let tree = TreeBuilder::new("broker").virtual_node(1, None).virtual_node(2, None).build();
        let s = TreeStats::compute(&tree);
        assert_eq!(s.virtual_count, 2);
        assert_eq!(s.element_count, 1);
    }

    #[test]
    fn serialized_size_estimate_tracks_actual_size() {
        let tree = parse("<people><person><name>Anna Smith</name><age>34</age></person></people>")
            .unwrap();
        let s = TreeStats::compute(&tree);
        let actual = crate::to_string(&tree).len();
        // The estimate need not be exact but must be within 2x either way.
        assert!(s.approx_serialized_bytes >= actual / 2);
        assert!(s.approx_serialized_bytes <= actual * 2);
    }

    #[test]
    fn detached_subtrees_are_excluded() {
        let mut tree = parse("<a><b>hello</b><c/></a>").unwrap();
        let b = tree.find_first("b").unwrap();
        tree.detach(b).unwrap();
        let s = TreeStats::compute(&tree);
        assert_eq!(s.element_count, 2);
        assert_eq!(s.text_count, 0);
    }
}
