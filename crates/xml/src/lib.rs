//! # paxml-xml — the XML tree substrate
//!
//! An arena-based, in-memory XML tree used by every other crate of the
//! `paxml` workspace, together with a parser and serializer for the XML
//! subset the paper needs (elements, attributes, text, comments and
//! processing instructions are accepted on input; comments/PIs are dropped).
//!
//! The paper (Cong, Fan, Kementsietsidis, SIGMOD 2007) models an XML document
//! as an ordered, labelled tree. Distribution is modelled by *fragmenting*
//! such a tree; the missing sub-fragments are replaced by **virtual nodes**
//! (§2.1 of the paper). Virtual nodes are first-class citizens of this crate
//! ([`NodeKind::Virtual`]) so that the fragmentation layer does not need a
//! parallel tree representation.
//!
//! ## Quick example
//!
//! ```
//! use paxml_xml::{XmlTree, NodeKind};
//!
//! let tree = paxml_xml::parse("<clientele><client><name>Anna</name></client></clientele>").unwrap();
//! let root = tree.root();
//! assert_eq!(tree.label(root), Some("clientele"));
//! assert_eq!(tree.node_count(), 4); // clientele, client, name, text("Anna")
//! let names: Vec<_> = tree
//!     .descendants(root)
//!     .filter(|&n| tree.label(n) == Some("name"))
//!     .collect();
//! assert_eq!(names.len(), 1);
//! assert_eq!(tree.text_of(names[0]), Some("Anna".to_string()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod node;
mod parse;
mod path;
mod serialize;
mod stats;
mod summary;
mod tree;

pub use builder::TreeBuilder;
pub use error::{XmlError, XmlResult};
pub use node::{Node, NodeId, NodeKind};
pub use parse::{parse, Parser};
pub use path::{label_path, path_from_root, LabelPath};
pub use serialize::{to_string, to_string_pretty};
pub use stats::TreeStats;
pub use summary::{text_number, AtomKey, LabelSummary, RecentLabels};
pub use tree::{Ancestors, Descendants, PostOrder, PreOrder, Siblings, XmlTree};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn round_trip_small_document() {
        let src = "<a><b>hi</b><c x=\"1\"/></a>";
        let tree = parse(src).unwrap();
        let out = to_string(&tree);
        let tree2 = parse(&out).unwrap();
        assert_eq!(tree.node_count(), tree2.node_count());
        assert_eq!(stats::TreeStats::compute(&tree), stats::TreeStats::compute(&tree2));
    }
}
