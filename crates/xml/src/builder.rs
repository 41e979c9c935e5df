//! A fluent builder for constructing XML trees in tests, examples and the
//! workload generator.

use crate::node::{NodeId, NodeKind};
use crate::tree::XmlTree;

/// Builds an [`XmlTree`] with a cursor-style API.
///
/// ```
/// use paxml_xml::TreeBuilder;
///
/// let tree = TreeBuilder::new("clientele")
///     .open("client")
///         .leaf("name", "Anna")
///         .leaf("country", "US")
///     .close()
///     .open("client")
///         .leaf("name", "Kim")
///     .close()
///     .build();
/// assert_eq!(tree.find_all("client").len(), 2);
/// ```
#[derive(Debug)]
pub struct TreeBuilder {
    tree: XmlTree,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    /// Start a document whose root element has the given label.
    pub fn new(root_label: impl Into<String>) -> Self {
        let tree = XmlTree::with_root_element(root_label);
        let root = tree.root();
        TreeBuilder { tree, stack: vec![root] }
    }

    fn cursor(&self) -> NodeId {
        *self.stack.last().expect("builder stack is never empty")
    }

    /// Open a new child element; subsequent calls add children to it until
    /// [`TreeBuilder::close`] is called.
    pub fn open(mut self, label: impl Into<String>) -> Self {
        let id = self.tree.append_element(self.cursor(), label);
        self.stack.push(id);
        self
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if called more times than [`TreeBuilder::open`], i.e. if it
    /// would close the root.
    pub fn close(mut self) -> Self {
        assert!(self.stack.len() > 1, "TreeBuilder::close called on the root element");
        self.stack.pop();
        self
    }

    /// Add an empty child element without changing the cursor.
    pub fn element(mut self, label: impl Into<String>) -> Self {
        self.tree.append_element(self.cursor(), label);
        self
    }

    /// Add a child element wrapping a single text node (`<label>text</label>`).
    pub fn leaf(mut self, label: impl Into<String>, text: impl Into<String>) -> Self {
        self.tree.append_leaf(self.cursor(), label, text);
        self
    }

    /// Add a text child to the current element.
    pub fn text(mut self, value: impl Into<String>) -> Self {
        self.tree.append_text(self.cursor(), value);
        self
    }

    /// Add an attribute to the current element.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.tree
            .set_attribute(self.cursor(), name, value)
            .expect("builder cursor always points at an element");
        self
    }

    /// Add a virtual placeholder child (used in fragment-construction tests).
    pub fn virtual_node(mut self, fragment: usize, root_label: Option<String>) -> Self {
        self.tree.append_child(self.cursor(), NodeKind::virtual_node(fragment, root_label));
        self
    }

    /// Graft a copy of another tree as a child of the current element.
    pub fn subtree(mut self, other: &XmlTree) -> Self {
        let cursor = self.cursor();
        self.tree.append_subtree(cursor, other, other.root(), |_| None, |_, _| {});
        self
    }

    /// Run a closure with mutable access to the underlying tree and the
    /// current cursor — an escape hatch for loops in generators.
    pub fn with(mut self, f: impl FnOnce(&mut XmlTree, NodeId)) -> Self {
        let cursor = self.cursor();
        f(&mut self.tree, cursor);
        self
    }

    /// Finish building. Any elements still open are implicitly closed.
    pub fn build(self) -> XmlTree {
        debug_assert!(self.tree.validate().is_ok());
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_string;

    #[test]
    fn builder_produces_expected_document() {
        let tree = TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .close()
            .build();
        assert_eq!(
            to_string(&tree),
            "<clientele><client><name>Anna</name><country>US</country></client></clientele>"
        );
    }

    #[test]
    fn open_close_nesting_matches_depth() {
        let tree = TreeBuilder::new("a")
            .open("b")
            .open("c")
            .leaf("d", "x")
            .close()
            .close()
            .element("e")
            .build();
        let d = tree.find_first("d").unwrap();
        assert_eq!(tree.depth(d), 3);
        let e = tree.find_first("e").unwrap();
        assert_eq!(tree.depth(e), 1);
    }

    #[test]
    fn unclosed_elements_are_ok_at_build_time() {
        let tree = TreeBuilder::new("a").open("b").open("c").build();
        assert_eq!(tree.all_nodes().count(), 3);
        tree.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "close called on the root")]
    fn closing_the_root_panics() {
        let _ = TreeBuilder::new("a").close();
    }

    #[test]
    fn attributes_and_virtual_nodes() {
        let tree = TreeBuilder::new("broker")
            .attr("id", "b1")
            .virtual_node(4, Some("market".into()))
            .build();
        assert_eq!(tree.attribute(tree.root(), "id"), Some("b1"));
        assert_eq!(tree.virtual_nodes().len(), 1);
    }

    #[test]
    fn subtree_grafts_a_copy() {
        let inner = TreeBuilder::new("market").leaf("name", "NASDAQ").build();
        let outer = TreeBuilder::new("broker").subtree(&inner).subtree(&inner).build();
        assert_eq!(outer.find_all("market").len(), 2);
        assert_eq!(outer.find_all("name").len(), 2);
    }

    #[test]
    fn with_allows_programmatic_children() {
        let tree = TreeBuilder::new("people")
            .with(|t, cursor| {
                for i in 0..5 {
                    t.append_leaf(cursor, "person", format!("p{i}"));
                }
            })
            .build();
        assert_eq!(tree.find_all("person").len(), 5);
    }
}
