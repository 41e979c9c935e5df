//! Globally unique residual-variable names.
//!
//! During the per-fragment partial evaluation, every unknown value gets a
//! variable. The paper writes them `x₁…`, `y₁…`, `z₁…`; here each variable
//! carries the coordinates of the value it stands for, so that unification
//! across fragments (Procedure `evalFT`) is just a lookup. The paper's PaX2
//! adds `qz₁…` placeholders inside one fragment traversal; the site kernel
//! needs none (see `paxml_xpath::eval::combined_pass`).

use paxml_fragment::FragmentId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the per-node qualifier vectors a variable refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QualVecKind {
    /// The `QV` vector (value of every `QVect` entry at the node itself).
    Qv,
    /// The `QDV` vector (value at the node or at some descendant).
    Qdv,
}

/// A residual variable of the distributed evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PaxVar {
    /// The paper's `x`/`y` variables: entry `entry` of the `QV`/`QDV` vector
    /// at the *root of fragment `fragment`*, introduced by the parent
    /// fragment for the virtual node standing in for `fragment`.
    Qual {
        /// The sub-fragment whose root vector is unknown.
        fragment: FragmentId,
        /// Which vector the entry belongs to.
        vector: QualVecKind,
        /// Entry index within `QVect(Q)`.
        entry: usize,
    },
    /// The paper's `z` variables: entry `entry` of the `SV` vector of the
    /// *parent of fragment `fragment`'s root* — the unknown ancestor summary
    /// a non-root fragment starts its top-down pass with.
    Sel {
        /// The fragment whose ancestor summary is unknown.
        fragment: FragmentId,
        /// Entry index within `SVect(Q)` (0 = the empty prefix).
        entry: usize,
    },
    /// The paper's `qz` variables of PaX2: the value of `QVect` entry
    /// `entry` at node `node` of fragment `fragment`. Never minted: the
    /// variant stays only because the frozen `benchmark/src/shadow.rs` names
    /// it; the ROADMAP item "one formula representation" drops it.
    Local {
        /// The fragment the node belongs to.
        fragment: FragmentId,
        /// Arena index of the node within the fragment.
        node: u32,
        /// Entry index within `QVect(Q)`.
        entry: u32,
    },
}

impl fmt::Display for PaxVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaxVar::Qual { fragment, vector, entry } => {
                let v = match vector {
                    QualVecKind::Qv => "x",
                    QualVecKind::Qdv => "xd",
                };
                write!(f, "{v}[{fragment}.{entry}]")
            }
            PaxVar::Sel { fragment, entry } => write!(f, "z[{fragment}.{entry}]"),
            PaxVar::Local { fragment, node, entry } => {
                write!(f, "qz[{fragment}.n{node}.{entry}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn variables_are_distinct_per_coordinates() {
        let mut set = BTreeSet::new();
        for fragment in [FragmentId(1), FragmentId(2)] {
            for entry in 0..3 {
                set.insert(PaxVar::Qual { fragment, vector: QualVecKind::Qv, entry });
                set.insert(PaxVar::Qual { fragment, vector: QualVecKind::Qdv, entry });
                set.insert(PaxVar::Sel { fragment, entry });
                set.insert(PaxVar::Local { fragment, node: 7, entry: entry as u32 });
            }
        }
        assert_eq!(set.len(), 2 * 3 * 4);
    }

    #[test]
    fn display_is_compact_and_informative() {
        let v = PaxVar::Qual { fragment: FragmentId(2), vector: QualVecKind::Qv, entry: 8 };
        assert_eq!(v.to_string(), "x[F2.8]");
        let v = PaxVar::Sel { fragment: FragmentId(1), entry: 0 };
        assert_eq!(v.to_string(), "z[F1.0]");
        let v = PaxVar::Local { fragment: FragmentId(3), node: 12, entry: 4 };
        assert_eq!(v.to_string(), "qz[F3.n12.4]");
    }
}
