//! Node identifiers and node payloads of the arena tree.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside an [`crate::XmlTree`] arena.
///
/// `NodeId`s are cheap to copy and are only meaningful together with the tree
/// that produced them. They are stable for the lifetime of the tree: nodes
/// are never physically removed from the arena (detaching a subtree only
/// unlinks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index into the arena. Exposed so that other crates (fragmentation,
    /// the distributed simulator) can use node ids as map keys or serialize
    /// them into messages.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `NodeId` from a raw index.
    ///
    /// This does not validate that the index is in bounds for any particular
    /// tree; out-of-bounds ids are caught by the tree accessors.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An element node with a tag name and (possibly empty) attributes.
    Element {
        /// Tag name, e.g. `client`.
        label: String,
        /// Attribute name/value pairs in document order.
        attributes: Vec<(String, String)>,
    },
    /// A text node.
    Text {
        /// The character data.
        value: String,
    },
    /// A *virtual node*: a placeholder standing in for a sub-fragment that is
    /// stored at another site (§2.1 of the paper). The `fragment` field holds
    /// the identifier of the missing fragment as assigned by the
    /// fragmentation layer.
    Virtual {
        /// Identifier of the fragment this placeholder stands for.
        fragment: usize,
        /// Label of the root element of the missing fragment, when known.
        /// Keeping it here lets the XPath-annotation optimization reason
        /// about paths that cross fragment boundaries.
        root_label: Option<String>,
    },
}

impl NodeKind {
    /// Convenience constructor for an element without attributes.
    pub fn element(label: impl Into<String>) -> Self {
        NodeKind::Element { label: label.into(), attributes: Vec::new() }
    }

    /// Convenience constructor for a text node.
    pub fn text(value: impl Into<String>) -> Self {
        NodeKind::Text { value: value.into() }
    }

    /// Convenience constructor for a virtual node.
    pub fn virtual_node(fragment: usize, root_label: Option<String>) -> Self {
        NodeKind::Virtual { fragment, root_label }
    }

    /// Is this an element node?
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// Is this a virtual (placeholder) node?
    pub fn is_virtual(&self) -> bool {
        matches!(self, NodeKind::Virtual { .. })
    }

    /// Element label, if this is an element.
    pub fn label(&self) -> Option<&str> {
        match self {
            NodeKind::Element { label, .. } => Some(label),
            _ => None,
        }
    }

    /// Text content, if this is a text node.
    pub fn text_value(&self) -> Option<&str> {
        match self {
            NodeKind::Text { value } => Some(value),
            _ => None,
        }
    }

    /// The fragment id, if this is a virtual node.
    pub fn virtual_fragment(&self) -> Option<usize> {
        match self {
            NodeKind::Virtual { fragment, .. } => Some(*fragment),
            _ => None,
        }
    }
}

/// A node of the arena: its payload plus the structural links.
///
/// Links use `Option<NodeId>` rather than sentinel values so that corrupted
/// links are impossible to construct by accident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node payload.
    pub kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
}

impl Node {
    pub(crate) fn new(kind: NodeKind) -> Self {
        Node {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            prev_sibling: None,
        }
    }

    /// Parent of this node, if any.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// First child of this node, if any.
    pub fn first_child(&self) -> Option<NodeId> {
        self.first_child
    }

    /// Last child of this node, if any.
    pub fn last_child(&self) -> Option<NodeId> {
        self.last_child
    }

    /// Next sibling in document order, if any.
    pub fn next_sibling(&self) -> Option<NodeId> {
        self.next_sibling
    }

    /// Previous sibling in document order, if any.
    pub fn prev_sibling(&self) -> Option<NodeId> {
        self.prev_sibling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "n17");
    }

    #[test]
    fn kind_predicates() {
        let e = NodeKind::element("broker");
        assert!(e.is_element());
        assert!(!e.is_virtual());
        assert_eq!(e.label(), Some("broker"));
        assert_eq!(e.text_value(), None);

        let t = NodeKind::text("GOOG");
        assert_eq!(t.text_value(), Some("GOOG"));
        assert_eq!(t.label(), None);

        let v = NodeKind::virtual_node(3, Some("market".into()));
        assert!(v.is_virtual());
        assert_eq!(v.virtual_fragment(), Some(3));
        assert_eq!(v.label(), None);
    }

    #[test]
    fn new_node_has_no_links() {
        let n = Node::new(NodeKind::element("a"));
        assert!(n.parent().is_none());
        assert!(n.first_child().is_none());
        assert!(n.last_child().is_none());
        assert!(n.next_sibling().is_none());
        assert!(n.prev_sibling().is_none());
    }

    #[test]
    fn node_ids_order_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }
}
