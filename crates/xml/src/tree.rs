//! The arena-based XML tree.

use crate::error::{XmlError, XmlResult};
use crate::node::{Node, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// An ordered, labelled XML tree stored in a flat arena.
///
/// The tree always has a root node (created by [`XmlTree::new`] or by the
/// parser). Structural mutation goes through [`XmlTree::append_child`],
/// [`XmlTree::detach`], and [`XmlTree::append_subtree`]; these maintain the
/// sibling/child links so that traversals never observe an inconsistent
/// structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XmlTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl XmlTree {
    /// Create a tree consisting of a single root node.
    pub fn new(root_kind: NodeKind) -> Self {
        XmlTree { nodes: vec![Node::new(root_kind)], root: NodeId(0) }
    }

    /// Create a tree whose root is an element with the given label.
    pub fn with_root_element(label: impl Into<String>) -> Self {
        XmlTree::new(NodeKind::element(label))
    }

    /// A copy of this tree whose arena has room for `extra` more nodes, so
    /// that appending that many allocates nothing — where `clone` followed
    /// by appends would double the arena.
    pub fn clone_with_room(&self, extra: usize) -> XmlTree {
        let mut nodes = Vec::with_capacity(self.nodes.len() + extra);
        nodes.extend_from_slice(&self.nodes);
        XmlTree { nodes, root: self.root }
    }

    /// The root node of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes in the arena (including detached ones).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes the arena holds room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Does this id refer to a node of this tree?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    fn check(&self, id: NodeId) -> XmlResult<()> {
        if self.contains(id) {
            Ok(())
        } else {
            Err(XmlError::InvalidNodeId { id: id.index() })
        }
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds; [`XmlTree::contains`] tells
    /// beforehand.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// The kind (payload) of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// Element label of a node, if it is an element.
    #[inline]
    pub fn label(&self, id: NodeId) -> Option<&str> {
        self.node(id).kind.label()
    }

    /// Text value of a node, if it is a text node.
    #[inline]
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        self.node(id).kind.text_value()
    }

    /// Is the node a virtual placeholder?
    #[inline]
    pub fn is_virtual(&self, id: NodeId) -> bool {
        self.node(id).kind.is_virtual()
    }

    /// The label a node presents to a path step: its element label, or — for
    /// a virtual placeholder — the recorded label of the missing fragment's
    /// root. Text nodes (and virtual nodes with no recorded label) have none.
    #[inline]
    pub fn step_label(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { label, .. } => Some(label),
            NodeKind::Virtual { root_label, .. } => root_label.as_deref(),
            NodeKind::Text { .. } => None,
        }
    }

    /// Is the node an element?
    #[inline]
    pub fn is_element(&self, id: NodeId) -> bool {
        self.node(id).kind.is_element()
    }

    /// Parent of a node.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// First child of a node.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).first_child
    }

    /// Next sibling of a node.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).next_sibling
    }

    /// Attribute value on an element node, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attributes, .. } => {
                attributes.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
            }
            _ => None,
        }
    }

    /// The concatenated text of the *direct* text children of `id`.
    ///
    /// This is what the paper's `text()` test reads: for an element like
    /// `<code>GOOG</code>` it returns `"GOOG"`. Returns `None` when the node
    /// has no text children at all.
    pub fn text_of(&self, id: NodeId) -> Option<String> {
        let mut out = String::new();
        let mut found = false;
        for c in self.children(id) {
            if let Some(t) = self.text_value(c) {
                out.push_str(t);
                found = true;
            }
        }
        if found {
            Some(out)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Allocate a new node and append it as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        debug_assert!(self.contains(parent), "parent id out of bounds");
        let id = NodeId(self.nodes.len() as u32);
        let mut node = Node::new(kind);
        node.parent = Some(parent);
        node.prev_sibling = self.node(parent).last_child;
        self.nodes.push(node);
        match self.node(parent).last_child {
            Some(prev) => self.node_mut(prev).next_sibling = Some(id),
            None => self.node_mut(parent).first_child = Some(id),
        }
        self.node_mut(parent).last_child = Some(id);
        id
    }

    /// Append an element child and return its id.
    pub fn append_element(&mut self, parent: NodeId, label: impl Into<String>) -> NodeId {
        self.append_child(parent, NodeKind::element(label))
    }

    /// Append a text child and return its id.
    pub fn append_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.append_child(parent, NodeKind::text(value))
    }

    /// Append an element child that immediately wraps a text node, a very
    /// common shape in the paper's documents (`<name>Anna</name>`).
    pub fn append_leaf(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        text: impl Into<String>,
    ) -> NodeId {
        let e = self.append_element(parent, label);
        self.append_text(e, text);
        e
    }

    /// Set an attribute on an element node (replacing an existing value).
    pub fn set_attribute(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> XmlResult<()> {
        self.check(id)?;
        match &mut self.node_mut(id).kind {
            NodeKind::Element { attributes, .. } => {
                let name = name.into();
                let value = value.into();
                if let Some(slot) = attributes.iter_mut().find(|(k, _)| *k == name) {
                    slot.1 = value;
                } else {
                    attributes.push((name, value));
                }
                Ok(())
            }
            _ => Err(XmlError::StructureViolation {
                message: "attributes can only be set on element nodes".into(),
            }),
        }
    }

    /// Replace the label of an element node (a *relabel* update).
    pub fn relabel(&mut self, id: NodeId, new_label: impl Into<String>) -> XmlResult<()> {
        self.check(id)?;
        match &mut self.node_mut(id).kind {
            NodeKind::Element { label, .. } => {
                *label = new_label.into();
                Ok(())
            }
            _ => Err(XmlError::StructureViolation {
                message: "only element nodes can be relabelled".into(),
            }),
        }
    }

    /// Replace the value of a text node (a *text edit* update).
    pub fn set_text_value(&mut self, id: NodeId, new_value: impl Into<String>) -> XmlResult<()> {
        self.check(id)?;
        match &mut self.node_mut(id).kind {
            NodeKind::Text { value } => {
                *value = new_value.into();
                Ok(())
            }
            _ => Err(XmlError::StructureViolation {
                message: "only text nodes carry an editable value".into(),
            }),
        }
    }

    /// Is `id` reachable from the root? Detached subtrees stay in the arena
    /// but are no longer part of the document.
    pub fn is_reachable(&self, id: NodeId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let mut current = id;
        loop {
            if current == self.root {
                return true;
            }
            match self.parent(current) {
                Some(p) => current = p,
                None => return false,
            }
        }
    }

    /// Detach the subtree rooted at `id` from its parent. The nodes stay in
    /// the arena but become unreachable from the root. Detaching the root is
    /// a structure violation.
    pub fn detach(&mut self, id: NodeId) -> XmlResult<()> {
        self.check(id)?;
        if id == self.root {
            return Err(XmlError::StructureViolation {
                message: "cannot detach the root node".into(),
            });
        }
        let (parent, prev, next) = {
            let n = self.node(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if let Some(p) = parent {
            if self.node(p).first_child == Some(id) {
                self.node_mut(p).first_child = next;
            }
            if self.node(p).last_child == Some(id) {
                self.node_mut(p).last_child = prev;
            }
        }
        if let Some(prev) = prev {
            self.node_mut(prev).next_sibling = next;
        }
        if let Some(next) = next {
            self.node_mut(next).prev_sibling = prev;
        }
        let n = self.node_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
        Ok(())
    }

    /// Copy the subtree of `other` rooted at `other_root` as the last child
    /// of `parent` in this tree, returning the id of the copied root.
    pub fn graft_tree(
        &mut self,
        parent: NodeId,
        other: &XmlTree,
        other_root: NodeId,
    ) -> XmlResult<NodeId> {
        self.check(parent)?;
        other.check(other_root)?;
        Ok(self.append_subtree(parent, other, other_root, |_| None, |_, _| {}))
    }

    /// Extract a deep copy of the subtree rooted at `id` as a standalone tree.
    pub fn extract_subtree(&self, id: NodeId) -> XmlResult<XmlTree> {
        self.check(id)?;
        Ok(self.copy_subtree(id, |_| None, |_, _| {}))
    }

    /// A fresh tree holding a copy of the subtree rooted at `id`. The copy's
    /// root is node 0; the rest is laid out as by
    /// [`XmlTree::append_subtree`], with the same two callbacks.
    pub fn copy_subtree(
        &self,
        id: NodeId,
        placeholder: impl FnMut(NodeId) -> Option<NodeKind>,
        copied: impl FnMut(NodeId, NodeId),
    ) -> XmlTree {
        let mut out = XmlTree::new(self.kind(id).clone());
        let root = out.root();
        out.copy_below(root, self, id, placeholder, copied);
        out
    }

    /// Copy the subtree of `src` rooted at `src_root` as the last child of
    /// `parent`, returning the id of the copied root. This and
    /// [`XmlTree::copy_subtree`] are the one subtree copy of the workspace:
    /// grafts, extracts, fragments, splits, merges, reassembly and inserted
    /// subtrees all go through it, so they all number their copies alike.
    ///
    /// The copy is iterative and appends in one fixed order: the root, then,
    /// repeatedly, pop a copied node off a stack, append all its children in
    /// document order and push them. `copied(src, copy)` reports every node
    /// as it is appended — in arena order, so callers can extend an origin
    /// map. When `placeholder(child)` returns a kind, that child is copied as
    /// a leaf of that kind and its subtree is skipped (the fragmenter's
    /// virtual nodes); it is never asked about `src_root`.
    pub fn append_subtree(
        &mut self,
        parent: NodeId,
        src: &XmlTree,
        src_root: NodeId,
        placeholder: impl FnMut(NodeId) -> Option<NodeKind>,
        copied: impl FnMut(NodeId, NodeId),
    ) -> NodeId {
        let root = self.append_child(parent, src.kind(src_root).clone());
        self.copy_below(root, src, src_root, placeholder, copied);
        root
    }

    /// The body of both copies: `root` already holds `src_root`'s kind.
    fn copy_below(
        &mut self,
        root: NodeId,
        src: &XmlTree,
        src_root: NodeId,
        mut placeholder: impl FnMut(NodeId) -> Option<NodeKind>,
        mut copied: impl FnMut(NodeId, NodeId),
    ) {
        copied(src_root, root);
        let mut stack = vec![(src_root, root)];
        while let Some((from, to)) = stack.pop() {
            for child in src.children(from) {
                match placeholder(child) {
                    Some(kind) => copied(child, self.append_child(to, kind)),
                    None => {
                        let copy = self.append_child(to, src.kind(child).clone());
                        copied(child, copy);
                        stack.push((child, copy));
                    }
                }
            }
        }
    }

    /// Replace the payload of a node (used by the fragmenter to swap a real
    /// subtree for a virtual placeholder).
    pub fn replace_kind(&mut self, id: NodeId, kind: NodeKind) -> XmlResult<NodeKind> {
        self.check(id)?;
        Ok(std::mem::replace(&mut self.node_mut(id).kind, kind))
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Iterator over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Siblings<'_> {
        Siblings { tree: self, next: self.first_child(id) }
    }

    /// Iterator over the element children of `id` in document order.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Iterator over the ancestors of `id`, starting at its parent and ending
    /// at the root.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { tree: self, next: self.parent(id) }
    }

    /// Pre-order (document order) traversal of the subtree rooted at `id`,
    /// including `id` itself. The walk follows the child, sibling and parent
    /// links with O(1) state and never leaves the subtree.
    pub fn pre_order(&self, id: NodeId) -> PreOrder<'_> {
        PreOrder { tree: self, root: id, next: Some((id, 0)) }
    }

    /// Strict descendants of `id` (pre-order, excluding `id`).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        let mut inner = self.pre_order(id);
        inner.next(); // drop the root itself
        Descendants { inner }
    }

    /// Post-order traversal of the subtree rooted at `id` (children before
    /// parents) — the order in which the paper's Stage-1 bottom-up qualifier
    /// evaluation visits nodes. Like [`XmlTree::pre_order`], a link walk with
    /// O(1) state.
    pub fn post_order(&self, id: NodeId) -> PostOrder<'_> {
        PostOrder { tree: self, root: id, next: Some(self.leftmost_leaf(id)) }
    }

    /// The first node of `id`'s subtree in post-order: follow first children
    /// down to a leaf.
    fn leftmost_leaf(&self, mut id: NodeId) -> NodeId {
        while let Some(child) = self.first_child(id) {
            id = child;
        }
        id
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.pre_order(id).count()
    }

    /// Depth of `id` (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Pre-order traversal that also yields each node's depth, computed
    /// incrementally (avoids the `O(n · depth)` cost of calling
    /// [`XmlTree::depth`] per node).
    pub fn pre_order_with_depth(&self, id: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let mut walk = self.pre_order(id);
        std::iter::from_fn(move || walk.step())
    }

    /// Maximum depth over all nodes reachable from the root.
    pub fn height(&self) -> usize {
        self.pre_order_with_depth(self.root).map(|(_, d)| d).max().unwrap_or(0)
    }

    /// All reachable nodes, in document order.
    pub fn all_nodes(&self) -> PreOrder<'_> {
        self.pre_order(self.root)
    }

    /// All virtual nodes reachable from the root, in document order.
    pub fn virtual_nodes(&self) -> Vec<NodeId> {
        self.all_nodes().filter(|&n| self.is_virtual(n)).collect()
    }

    /// Find the first element (in document order) with the given label.
    pub fn find_first(&self, label: &str) -> Option<NodeId> {
        self.all_nodes().find(|&n| self.label(n) == Some(label))
    }

    /// Find every element with the given label, in document order.
    pub fn find_all(&self, label: &str) -> Vec<NodeId> {
        self.all_nodes().filter(|&n| self.label(n) == Some(label)).collect()
    }

    /// Validate the internal structure of the tree: the root and every link
    /// name a node of the arena, the root has no parent and no siblings,
    /// every child points back to its parent, sibling links are consistent,
    /// and there are no cycles. Never panics, whatever the links (a decoded
    /// tree carries whatever ids its bytes held); cost is `O(n)`.
    pub fn validate(&self) -> XmlResult<()> {
        // Range first: the walk below follows links through `node`, which
        // indexes the arena. With every link in range, the walk checks each
        // node's child chain before it steps into it, so it never follows a
        // link it has not checked.
        let violation = |message| Err(XmlError::StructureViolation { message });
        if !self.contains(self.root) {
            return violation(format!("root {} is outside the arena", self.root));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let links = [
                node.parent,
                node.first_child,
                node.last_child,
                node.next_sibling,
                node.prev_sibling,
            ];
            if let Some(id) = links.into_iter().flatten().find(|&id| !self.contains(id)) {
                return violation(format!("node {i} links to {id}, outside the arena"));
            }
        }
        let root = self.node(self.root);
        if root.parent.is_some() || root.next_sibling.is_some() || root.prev_sibling.is_some() {
            return violation(format!("root {} has a parent or a sibling", self.root));
        }
        let mut seen = vec![false; self.nodes.len()];
        for id in self.all_nodes() {
            let idx = id.index();
            if seen[idx] {
                return violation(format!("node {id} reachable twice (cycle or shared child)"));
            }
            seen[idx] = true;
            let mut prev: Option<NodeId> = None;
            for c in self.children(id) {
                let cn = self.node(c);
                if cn.parent != Some(id) {
                    return violation(format!("child {c} of {id} has wrong parent link"));
                }
                if cn.prev_sibling != prev {
                    return violation(format!("sibling chain broken at {c}"));
                }
                prev = Some(c);
            }
            if self.node(id).last_child != prev {
                return violation(format!("last_child link of {id} is stale"));
            }
        }
        Ok(())
    }
}

/// Iterator over a sibling chain.
pub struct Siblings<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl<'a> Iterator for Siblings<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = self.tree.next_sibling(current);
        Some(current)
    }
}

/// Iterator over ancestors, closest first.
pub struct Ancestors<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl<'a> Iterator for Ancestors<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = self.tree.parent(current);
        Some(current)
    }
}

/// Pre-order traversal iterator: a link walk bounded by the subtree root.
pub struct PreOrder<'a> {
    tree: &'a XmlTree,
    root: NodeId,
    /// The node to yield next and its depth below `root`.
    next: Option<(NodeId, usize)>,
}

impl PreOrder<'_> {
    /// Yield the next node with its depth, then move to its successor: the
    /// first child, else the next sibling of the nearest node on the way
    /// back up that has one — never climbing past `root`.
    fn step(&mut self) -> Option<(NodeId, usize)> {
        let (current, depth) = self.next?;
        self.next = match self.tree.first_child(current) {
            Some(child) => Some((child, depth + 1)),
            None => {
                let (mut node, mut depth) = (current, depth);
                loop {
                    if node == self.root {
                        break None;
                    }
                    if let Some(sibling) = self.tree.next_sibling(node) {
                        break Some((sibling, depth));
                    }
                    node =
                        self.tree.parent(node).expect("a non-root node of the walk has a parent");
                    depth -= 1;
                }
            }
        };
        Some((current, depth))
    }
}

impl<'a> Iterator for PreOrder<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        self.step().map(|(id, _)| id)
    }
}

/// Strict-descendant traversal iterator.
pub struct Descendants<'a> {
    inner: PreOrder<'a>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        self.inner.next()
    }
}

/// Post-order traversal iterator: a link walk bounded by the subtree root.
pub struct PostOrder<'a> {
    tree: &'a XmlTree,
    root: NodeId,
    next: Option<NodeId>,
}

impl<'a> Iterator for PostOrder<'a> {
    type Item = NodeId;
    /// After a node come its next sibling's subtree (leftmost leaf first)
    /// or, once the siblings are done, its parent; the walk ends at `root`.
    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = if current == self.root {
            None
        } else {
            match self.tree.next_sibling(current) {
                Some(sibling) => Some(self.tree.leftmost_leaf(sibling)),
                None => self.tree.parent(current),
            }
        };
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XmlTree {
        // <a><b>x</b><c><d/></c></a>
        let mut t = XmlTree::with_root_element("a");
        let root = t.root();
        let b = t.append_element(root, "b");
        t.append_text(b, "x");
        let c = t.append_element(root, "c");
        t.append_element(c, "d");
        t
    }

    #[test]
    fn construction_links_are_consistent() {
        let t = sample();
        t.validate().unwrap();
        assert_eq!(t.node_count(), 5);
        let root = t.root();
        let kids: Vec<_> = t.children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.label(kids[0]), Some("b"));
        assert_eq!(t.label(kids[1]), Some("c"));
        assert_eq!(t.parent(kids[0]), Some(root));
    }

    #[test]
    fn pre_order_is_document_order() {
        let t = sample();
        let labels: Vec<String> = t
            .all_nodes()
            .map(|n| match t.kind(n) {
                NodeKind::Element { label, .. } => label.clone(),
                NodeKind::Text { value } => format!("#{value}"),
                NodeKind::Virtual { fragment, .. } => format!("V{fragment}"),
            })
            .collect();
        assert_eq!(labels, vec!["a", "b", "#x", "c", "d"]);
    }

    #[test]
    fn post_order_visits_children_first() {
        let t = sample();
        let order: Vec<Option<String>> =
            t.post_order(t.root()).map(|n| t.label(n).map(|s| s.to_string())).collect();
        // text node has None label
        assert_eq!(
            order,
            vec![None, Some("b".into()), Some("d".into()), Some("c".into()), Some("a".into())]
        );
    }

    #[test]
    fn descendants_excludes_self() {
        let t = sample();
        assert_eq!(t.descendants(t.root()).count(), 4);
        assert_eq!(t.subtree_size(t.root()), 5);
    }

    #[test]
    fn ancestors_and_depth() {
        let t = sample();
        let d = t.find_first("d").unwrap();
        assert_eq!(t.depth(d), 2);
        let labels: Vec<_> = t.ancestors(d).map(|n| t.label(n).unwrap().to_string()).collect();
        assert_eq!(labels, vec!["c", "a"]);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn text_of_concatenates_direct_text_children() {
        let t = sample();
        let b = t.find_first("b").unwrap();
        assert_eq!(t.text_of(b), Some("x".to_string()));
        let c = t.find_first("c").unwrap();
        assert_eq!(t.text_of(c), None);
    }

    #[test]
    fn detach_unlinks_subtree() {
        let mut t = sample();
        let b = t.find_first("b").unwrap();
        t.detach(b).unwrap();
        t.validate().unwrap();
        let root = t.root();
        let kids: Vec<_> = t.children(root).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(t.label(kids[0]), Some("c"));
        // Arena still holds the node but it is unreachable.
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.all_nodes().count(), 3);
    }

    #[test]
    fn detach_root_is_an_error() {
        let mut t = sample();
        let err = t.detach(t.root()).unwrap_err();
        assert!(matches!(err, XmlError::StructureViolation { .. }));
    }

    #[test]
    fn detach_middle_child_repairs_sibling_chain() {
        let mut t = XmlTree::with_root_element("r");
        let root = t.root();
        let a = t.append_element(root, "a");
        let b = t.append_element(root, "b");
        let c = t.append_element(root, "c");
        t.detach(b).unwrap();
        t.validate().unwrap();
        let kids: Vec<_> = t.children(root).collect();
        assert_eq!(kids, vec![a, c]);
        assert_eq!(t.next_sibling(a), Some(c));
        assert_eq!(t.node(c).prev_sibling(), Some(a));
    }

    #[test]
    fn graft_copies_deeply() {
        let src = sample();
        let mut dst = XmlTree::with_root_element("root");
        let r = dst.root();
        let copied = dst.graft_tree(r, &src, src.root()).unwrap();
        dst.validate().unwrap();
        assert_eq!(dst.label(copied), Some("a"));
        assert_eq!(dst.subtree_size(copied), 5);
        // document order preserved
        let labels: Vec<_> =
            dst.pre_order(copied).filter_map(|n| dst.label(n).map(String::from)).collect();
        assert_eq!(labels, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn extract_subtree_round_trips() {
        let t = sample();
        let c = t.find_first("c").unwrap();
        let sub = t.extract_subtree(c).unwrap();
        assert_eq!(sub.label(sub.root()), Some("c"));
        assert_eq!(sub.all_nodes().count(), 2);
        sub.validate().unwrap();
    }

    #[test]
    fn replace_kind_swaps_payload() {
        let mut t = sample();
        let c = t.find_first("c").unwrap();
        let old = t.replace_kind(c, NodeKind::virtual_node(7, Some("c".into()))).unwrap();
        assert_eq!(old.label(), Some("c"));
        assert!(t.is_virtual(c));
        assert_eq!(t.virtual_nodes(), vec![c]);
    }

    #[test]
    fn relabel_and_set_text_value_mutate_in_place() {
        let mut t = sample();
        let b = t.find_first("b").unwrap();
        t.relabel(b, "renamed").unwrap();
        assert_eq!(t.label(b), Some("renamed"));
        let text = t.children(b).next().unwrap();
        t.set_text_value(text, "edited").unwrap();
        assert_eq!(t.text_of(b), Some("edited".to_string()));
        // Wrong node kinds are rejected.
        assert!(t.relabel(text, "nope").is_err());
        assert!(t.set_text_value(b, "nope").is_err());
        t.validate().unwrap();
    }

    #[test]
    fn reachability_tracks_detachment() {
        let mut t = sample();
        let c = t.find_first("c").unwrap();
        let d = t.find_first("d").unwrap();
        assert!(t.is_reachable(t.root()));
        assert!(t.is_reachable(d));
        t.detach(c).unwrap();
        assert!(!t.is_reachable(c));
        assert!(!t.is_reachable(d), "nodes inside a detached subtree are unreachable");
        assert!(!t.is_reachable(NodeId::from_index(999)));
    }

    #[test]
    fn attributes_set_and_get() {
        let mut t = XmlTree::with_root_element("item");
        let r = t.root();
        t.set_attribute(r, "id", "i1").unwrap();
        t.set_attribute(r, "id", "i2").unwrap();
        t.set_attribute(r, "category", "tools").unwrap();
        assert_eq!(t.attribute(r, "id"), Some("i2"));
        assert_eq!(t.attribute(r, "category"), Some("tools"));
        assert_eq!(t.attribute(r, "missing"), None);
        let txt = t.append_text(r, "x");
        assert!(t.set_attribute(txt, "a", "b").is_err());
    }

    #[test]
    fn find_all_returns_document_order() {
        let mut t = XmlTree::with_root_element("r");
        let root = t.root();
        let a1 = t.append_element(root, "x");
        let inner = t.append_element(a1, "x");
        let a2 = t.append_element(root, "x");
        assert_eq!(t.find_all("x"), vec![a1, inner, a2]);
        assert_eq!(t.find_first("x"), Some(a1));
        assert_eq!(t.find_first("zzz"), None);
    }

    #[test]
    fn deep_tree_does_not_overflow_stack() {
        // 50_000-deep chain exercises the iterative traversals and graft.
        let mut t = XmlTree::with_root_element("n0");
        let mut cur = t.root();
        for i in 1..50_000 {
            cur = t.append_element(cur, format!("n{i}"));
        }
        assert_eq!(t.all_nodes().count(), 50_000);
        assert_eq!(t.post_order(t.root()).count(), 50_000);
        assert_eq!(t.height(), 49_999);
        let sub = t.extract_subtree(t.root()).unwrap();
        assert_eq!(sub.all_nodes().count(), 50_000);
    }
}
