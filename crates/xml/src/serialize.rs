//! Serialization of [`XmlTree`]s back to XML text.

use crate::node::{NodeId, NodeKind};
use crate::tree::XmlTree;

/// How virtual nodes are rendered. They have no XML equivalent, so the
/// serializer emits a self-closing marker element carrying the fragment id;
/// this keeps serialization total (useful for debugging fragments).
const VIRTUAL_ELEMENT_NAME: &str = "paxml:fragment-ref";

/// Serialize a tree compactly.
pub fn to_string(tree: &XmlTree) -> String {
    serialize(tree, None)
}

/// Serialize a tree with two-space indentation.
pub fn to_string_pretty(tree: &XmlTree) -> String {
    serialize(tree, Some(2))
}

/// Serialize a tree, indenting child elements by `indent` spaces per
/// nesting level, or on a single line when `indent` is `None`.
fn serialize(tree: &XmlTree, indent: Option<usize>) -> String {
    let mut out = String::new();
    // An explicit stack, so a deep document costs heap, not call stack: each
    // entry opens a node or closes an element whose children went on lines
    // of their own.
    let mut stack = vec![Step::Open(tree.root(), 0)];
    while let Some(step) = stack.pop() {
        let (id, depth) = match step {
            Step::Open(id, depth) => (id, depth),
            Step::Close(id, depth) => {
                pad(&mut out, indent, depth);
                close_tag(&mut out, tree.label(id).unwrap_or_default());
                continue;
            }
        };
        match tree.kind(id) {
            NodeKind::Element { label, attributes } => {
                pad(&mut out, indent, depth);
                out.push('<');
                out.push_str(label);
                for (name, value) in attributes {
                    out.push(' ');
                    out.push_str(name);
                    out.push_str("=\"");
                    out.push_str(&escape_attr(value));
                    out.push('"');
                }
                if tree.first_child(id).is_none() {
                    out.push_str("/>");
                    continue;
                }
                out.push('>');
                if tree.children(id).all(|c| matches!(tree.kind(c), NodeKind::Text { .. })) {
                    // Keep `<name>Anna</name>` on one line even when pretty-printing.
                    for c in tree.children(id) {
                        out.push_str(&escape_text(tree.text_value(c).unwrap_or_default()));
                    }
                    close_tag(&mut out, label);
                } else {
                    stack.push(Step::Close(id, depth));
                    let mut child = tree.node(id).last_child();
                    while let Some(c) = child {
                        stack.push(Step::Open(c, depth + 1));
                        child = tree.node(c).prev_sibling();
                    }
                }
            }
            NodeKind::Text { value } => {
                pad(&mut out, indent, depth);
                out.push_str(&escape_text(value));
            }
            NodeKind::Virtual { fragment, root_label } => {
                pad(&mut out, indent, depth);
                out.push('<');
                out.push_str(VIRTUAL_ELEMENT_NAME);
                out.push_str(&format!(" fragment=\"{fragment}\""));
                if let Some(l) = root_label {
                    out.push_str(&format!(" root-label=\"{}\"", escape_attr(l)));
                }
                out.push_str("/>");
            }
        }
    }
    out
}

/// One entry of [`serialize`]'s stack: a node and its depth.
enum Step {
    Open(NodeId, usize),
    Close(NodeId, usize),
}

/// Start a new, indented line when pretty-printing.
fn pad(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&" ".repeat(width * depth));
    }
}

fn close_tag(out: &mut String, label: &str) {
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

fn escape_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

fn escape_attr(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::NodeKind;
    use crate::XmlTree;

    #[test]
    fn compact_round_trip() {
        let src = "<a x=\"1\"><b>hi</b><c/></a>";
        let tree = parse(src).unwrap();
        assert_eq!(to_string(&tree), src);
    }

    #[test]
    fn pretty_print_indents_nested_elements() {
        let tree = parse("<a><b><c>x</c></b><d/></a>").unwrap();
        let pretty = to_string_pretty(&tree);
        assert!(pretty.contains("\n  <b>"));
        assert!(pretty.contains("\n    <c>x</c>"));
        // Pretty output re-parses to the same structure.
        let reparsed = parse(&pretty).unwrap();
        assert_eq!(reparsed.all_nodes().count(), tree.all_nodes().count());
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut tree = XmlTree::with_root_element("a");
        let r = tree.root();
        tree.set_attribute(r, "q", "say \"hi\" & <bye>").unwrap();
        tree.append_text(r, "1 < 2 & 3 > 2");
        let s = to_string(&tree);
        assert!(s.contains("&quot;hi&quot;"));
        assert!(s.contains("&amp;"));
        assert!(s.contains("1 &lt; 2 &amp; 3 &gt; 2"));
        let back = parse(&s).unwrap();
        assert_eq!(back.text_of(back.root()), Some("1 < 2 & 3 > 2".into()));
        assert_eq!(back.attribute(back.root(), "q"), Some("say \"hi\" & <bye>"));
    }

    #[test]
    fn virtual_nodes_serialize_as_marker_elements() {
        let mut tree = XmlTree::with_root_element("broker");
        let r = tree.root();
        tree.append_child(r, NodeKind::virtual_node(2, Some("market".into())));
        let s = to_string(&tree);
        assert!(s.contains("paxml:fragment-ref"));
        assert!(s.contains("fragment=\"2\""));
        assert!(s.contains("root-label=\"market\""));
    }

    #[test]
    fn deep_document_serializes_on_a_small_stack() {
        // As deep as `parse`'s own deep-document test, on a 2 MiB thread.
        let depth = 20_000;
        let mut src: String = (0..depth - 1).map(|i| format!("<n{i}>")).collect();
        src.push_str(&format!("<n{}/>", depth - 1));
        src.extend((0..depth - 1).rev().map(|i| format!("</n{i}>")));
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
            let tree = parse(&src).unwrap();
            assert_eq!(to_string(&tree), src);
            assert_eq!(to_string_pretty(&tree).lines().count(), 2 * depth - 1);
        });
        worker.unwrap().join().unwrap();
    }

    #[test]
    fn empty_elements_use_self_closing_form() {
        let tree = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_string(&tree), "<a><b/></a>");
    }
}
