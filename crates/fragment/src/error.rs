//! Error types for fragmentation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Result alias for the crate.
pub type FragmentResult<T> = Result<T, FragmentError>;

/// Errors raised while fragmenting or reassembling trees. They travel
/// between site and coordinator (a site's rejected install), so they
/// serialize.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragmentError {
    /// A cut point was the root of the tree (the root always stays in the
    /// root fragment).
    CannotCutRoot,
    /// The same node was given as a cut point more than once.
    DuplicateCut {
        /// Arena index of the duplicated cut node.
        node: usize,
    },
    /// A cut point does not exist in the tree.
    UnknownCutNode {
        /// The offending arena index.
        node: usize,
    },
    /// A cut point is not an element node (text nodes cannot root fragments).
    CutAtNonElement {
        /// The offending arena index.
        node: usize,
    },
    /// A fragment id was used that is not part of this fragmented tree.
    UnknownFragment {
        /// The offending fragment id.
        fragment: usize,
    },
    /// An update operation was rejected (it addressed a missing node, the
    /// fragment root, a virtual node, or an annotation-path node).
    InvalidUpdate {
        /// Human-readable description.
        message: String,
    },
    /// A fragment a site was sent fails [`Fragment::check`](crate::Fragment::check):
    /// its tree is malformed or its origin map does not cover its nodes.
    /// The site does not install it.
    Malformed {
        /// The fragment's id.
        fragment: usize,
        /// What is wrong with it.
        message: String,
    },
    /// The fragmented tree is internally inconsistent (e.g. a virtual node
    /// references a fragment that does not exist) — only reachable by
    /// corrupting the structure by hand.
    Inconsistent {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for FragmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentError::CannotCutRoot => write!(f, "cannot cut at the root of the tree"),
            FragmentError::DuplicateCut { node } => write!(f, "duplicate cut point n{node}"),
            FragmentError::UnknownCutNode { node } => write!(f, "unknown cut node n{node}"),
            FragmentError::CutAtNonElement { node } => {
                write!(f, "cut point n{node} is not an element node")
            }
            FragmentError::UnknownFragment { fragment } => {
                write!(f, "unknown fragment F{fragment}")
            }
            FragmentError::InvalidUpdate { message } => {
                write!(f, "invalid fragment update: {message}")
            }
            FragmentError::Malformed { fragment, message } => {
                write!(f, "malformed fragment F{fragment}: {message}")
            }
            FragmentError::Inconsistent { message } => {
                write!(f, "inconsistent fragmented tree: {message}")
            }
        }
    }
}

impl std::error::Error for FragmentError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(FragmentError::CannotCutRoot.to_string().contains("root"));
        assert!(FragmentError::DuplicateCut { node: 4 }.to_string().contains("n4"));
        assert!(FragmentError::UnknownFragment { fragment: 9 }.to_string().contains("F9"));
    }
}
