//! Label paths: sequences of element labels from the root to a node.
//!
//! The fragment-tree XPath annotations of §5 of the paper are exactly such
//! label paths ("the path in T connecting the root of fragment Fj with the
//! root of fragment Fk"), so they live in the XML substrate where both the
//! fragmenter and the pruning optimization can use them.

use crate::node::NodeId;
use crate::tree::XmlTree;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A `/`-separated sequence of element labels, e.g. `client/broker/market`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LabelPath {
    steps: Vec<String>,
}

impl LabelPath {
    /// The empty path (identifies the starting node itself).
    pub fn empty() -> Self {
        LabelPath { steps: Vec::new() }
    }

    /// Parse a `/`-separated path such as `client/broker/market`.
    /// Empty segments are ignored, so a leading `/` is harmless.
    pub fn parse(text: &str) -> Self {
        LabelPath { steps: text.split('/').filter(|s| !s.is_empty()).map(str::to_string).collect() }
    }

    /// The label steps of this path.
    pub fn steps(&self) -> &[String] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is this the empty path?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Append a step, returning the extended path.
    pub fn child(&self, label: impl Into<String>) -> Self {
        let mut steps = self.steps.clone();
        steps.push(label.into());
        LabelPath { steps }
    }

    /// Concatenate two paths.
    pub fn join(&self, other: &LabelPath) -> Self {
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        LabelPath { steps }
    }

    /// Does `self` start with `prefix`?
    pub fn starts_with(&self, prefix: &LabelPath) -> bool {
        self.steps.len() >= prefix.steps.len()
            && self.steps[..prefix.steps.len()] == prefix.steps[..]
    }
}

impl fmt::Display for LabelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.steps.join("/"))
    }
}

/// The label path from the root of `tree` down to (and excluding) `node`:
/// the labels of `node`'s proper ancestors below the root plus nothing for
/// the root itself — i.e. the path you follow *from the root element* to
/// reach `node`'s parent, extended with nothing. Text nodes contribute no
/// label. The node's own label is **not** included.
///
/// For the paper's annotation semantics we typically want the path from one
/// node to another; see [`label_path`].
pub fn path_from_root(tree: &XmlTree, node: NodeId) -> LabelPath {
    label_path(tree, tree.root(), node)
        .expect("every reachable node has the root as an ancestor-or-self")
}

/// The label path connecting `from` (exclusive) to `to` (inclusive):
/// the element labels on the downward path strictly below `from`, ending with
/// `to`'s own label. Returns `None` if `from` is not an ancestor-or-self of
/// `to`. When `from == to` the result is the empty path.
pub fn label_path(tree: &XmlTree, from: NodeId, to: NodeId) -> Option<LabelPath> {
    if from == to {
        return Some(LabelPath::empty());
    }
    let mut labels = Vec::new();
    let mut current = to;
    loop {
        if let Some(l) = tree.label(current) {
            labels.push(l.to_string());
        } else if let Some(root_label) = match tree.kind(current) {
            crate::NodeKind::Virtual { root_label, .. } => root_label.clone(),
            _ => None,
        } {
            labels.push(root_label);
        }
        match tree.parent(current) {
            Some(p) if p == from => {
                labels.reverse();
                return Some(LabelPath { steps: labels });
            }
            Some(p) => current = p,
            None => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn sample() -> XmlTree {
        TreeBuilder::new("clientele")
            .open("client")
            .open("broker")
            .open("market")
            .leaf("name", "NASDAQ")
            .close()
            .close()
            .close()
            .build()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let p = LabelPath::parse("client/broker/market");
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "client/broker/market");
        assert_eq!(LabelPath::parse("/client/broker"), LabelPath::parse("client/broker"));
        assert!(LabelPath::parse("").is_empty());
    }

    #[test]
    fn child_and_join() {
        let p = LabelPath::parse("client").child("broker");
        assert_eq!(p.to_string(), "client/broker");
        let q = p.join(&LabelPath::parse("market/name"));
        assert_eq!(q.to_string(), "client/broker/market/name");
    }

    #[test]
    fn starts_with_prefix() {
        let p = LabelPath::parse("client/broker/market");
        assert!(p.starts_with(&LabelPath::parse("client")));
        assert!(p.starts_with(&LabelPath::parse("client/broker")));
        assert!(p.starts_with(&LabelPath::empty()));
        assert!(!p.starts_with(&LabelPath::parse("broker")));
        assert!(!LabelPath::parse("client").starts_with(&p));
    }

    #[test]
    fn label_path_between_nodes() {
        let t = sample();
        let market = t.find_first("market").unwrap();
        let p = label_path(&t, t.root(), market).unwrap();
        assert_eq!(p.to_string(), "client/broker/market");
        let client = t.find_first("client").unwrap();
        let p = label_path(&t, client, market).unwrap();
        assert_eq!(p.to_string(), "broker/market");
        assert_eq!(label_path(&t, market, market), Some(LabelPath::empty()));
    }

    #[test]
    fn label_path_none_when_not_ancestor() {
        let t = sample();
        let market = t.find_first("market").unwrap();
        let name = t.find_first("name").unwrap();
        assert_eq!(label_path(&t, name, market), None);
    }

    #[test]
    fn path_from_root_matches_full_path() {
        let t = sample();
        let name = t.find_first("name").unwrap();
        assert_eq!(path_from_root(&t, name).to_string(), "client/broker/market/name");
    }
}
