//! The two-tier vector representation: packed bits until a variable
//! appears, explicit formulas afterwards.
//!
//! At every node not adjacent to a virtual node, all of the paper's vector
//! entries are constants; only the `O(k)` nodes near virtual nodes (for `k`
//! virtual nodes per fragment) carry residual formulas. [`CompactVector`]
//! materializes the constant case as a [`BitVector`] — `⌈len/64⌉` words on
//! the wire instead of a `Vec` of enum-tagged [`BoolExpr`]s — and falls back
//! to formulas only where unknowns actually flow.
//!
//! Canonical form: the `Formulas` arm is only used when at least one entry
//! is non-constant, so `Bits` vs `Formulas` is decidable from the content
//! and equality is structural.

use crate::bits::BitVector;
use crate::env::Assignment;
use crate::expr::BoolExpr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::hash::Hash;

/// A fixed-length vector of truth values, packed as bits while every entry
/// is a known constant and as formulas once a variable is introduced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompactVector<V: Ord> {
    /// Every entry is a known constant — the overwhelmingly common case,
    /// and the only case a leaf (variable-free) fragment ever ships.
    Bits(BitVector),
    /// At least one entry still mentions a variable.
    Formulas(Vec<BoolExpr<V>>),
}

impl<V: Clone + Eq + Ord + Hash> CompactVector<V> {
    /// A vector of `len` entries, all `false`.
    pub fn all_false(len: usize) -> Self {
        CompactVector::Bits(BitVector::all_false(len))
    }

    /// A vector of `len` entries, all `true`.
    pub fn all_true(len: usize) -> Self {
        CompactVector::Bits(BitVector::all_true(len))
    }

    /// A vector of known constants.
    pub fn from_bools(bools: &[bool]) -> Self {
        CompactVector::Bits(BitVector::from_bools(bools))
    }

    /// A vector of fresh variables `fresh(i)` — what the paper introduces
    /// for each virtual node.
    pub fn fresh_variables(len: usize, fresh: impl Fn(usize) -> V) -> Self {
        CompactVector::Formulas((0..len).map(|i| BoolExpr::Var(fresh(i))).collect())
    }

    /// Build from explicit formulas, normalizing to `Bits` when every entry
    /// is constant.
    pub fn from_exprs(entries: Vec<BoolExpr<V>>) -> Self {
        if entries.iter().all(|e| e.as_const().is_some()) {
            let mut bits = BitVector::all_false(entries.len());
            for (i, e) in entries.iter().enumerate() {
                if e.as_const() == Some(true) {
                    bits.set(i, true);
                }
            }
            CompactVector::Bits(bits)
        } else {
            CompactVector::Formulas(entries)
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            CompactVector::Bits(b) => b.len(),
            CompactVector::Formulas(f) => f.len(),
        }
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry as an owned formula (a `Const` on the bits path — no
    /// allocation).
    pub fn expr(&self, index: usize) -> BoolExpr<V> {
        match self {
            CompactVector::Bits(b) => BoolExpr::Const(b.get(index)),
            CompactVector::Formulas(f) => f[index].clone(),
        }
    }

    /// The entry's truth value, when it is a constant.
    pub fn const_at(&self, index: usize) -> Option<bool> {
        match self {
            CompactVector::Bits(b) => Some(b.get(index)),
            CompactVector::Formulas(f) => f[index].as_const(),
        }
    }

    /// Overwrite an entry, promoting to the `Formulas` arm when a
    /// non-constant formula lands in a bits vector and demoting back to
    /// `Bits` when the last symbolic entry is overwritten by a constant —
    /// the canonical-form invariant holds either way.
    pub fn set(&mut self, index: usize, value: BoolExpr<V>) {
        match self {
            CompactVector::Bits(b) => match value.as_const() {
                Some(v) => b.set(index, v),
                None => {
                    let mut entries: Vec<BoolExpr<V>> = b.iter().map(BoolExpr::Const).collect();
                    entries[index] = value;
                    *self = CompactVector::Formulas(entries);
                }
            },
            CompactVector::Formulas(f) => {
                let demote = value.as_const().is_some()
                    && f.iter().enumerate().all(|(i, e)| i == index || e.as_const().is_some());
                f[index] = value;
                if demote {
                    *self = Self::from_exprs(std::mem::take(f));
                }
            }
        }
    }

    /// Are all entries constants?
    pub fn is_fully_resolved(&self) -> bool {
        match self {
            CompactVector::Bits(_) => true,
            CompactVector::Formulas(f) => f.iter().all(|e| e.as_const().is_some()),
        }
    }

    /// If fully resolved, the vector of plain booleans.
    pub fn as_bools(&self) -> Option<Vec<bool>> {
        match self {
            CompactVector::Bits(b) => Some(b.to_bools()),
            CompactVector::Formulas(f) => f.iter().map(BoolExpr::as_const).collect(),
        }
    }

    /// Apply a partial truth-value lookup to every entry, demoting back to
    /// `Bits` when the result is fully resolved.
    pub fn assign_with(&self, lookup: &impl Fn(&V) -> Option<bool>) -> Self {
        match self {
            CompactVector::Bits(_) => self.clone(),
            CompactVector::Formulas(f) => {
                Self::from_exprs(f.iter().map(|e| e.assign_with(lookup)).collect())
            }
        }
    }

    /// Apply an [`Assignment`] to every entry.
    pub fn assign(&self, env: &Assignment<V>) -> Self {
        self.assign_with(&|v| env.get(v))
    }

    /// Resolve every entry to a definite truth value under `lookup`,
    /// treating undecidable entries as `false` (the coordinator's unification
    /// default: a vector the pruning removed can never decide an answer).
    pub fn resolve_bits(&self, lookup: &impl Fn(&V) -> Option<bool>) -> BitVector {
        match self {
            CompactVector::Bits(b) => b.clone(),
            CompactVector::Formulas(f) => {
                let mut bits = BitVector::all_false(f.len());
                for (i, e) in f.iter().enumerate() {
                    if e.eval_with(lookup) == Some(true) {
                        bits.set(i, true);
                    }
                }
                bits
            }
        }
    }

    /// All variables mentioned anywhere in the vector (empty on the bits
    /// path).
    pub fn variables(&self) -> BTreeSet<V> {
        match self {
            CompactVector::Bits(_) => BTreeSet::new(),
            CompactVector::Formulas(f) => {
                let mut out = BTreeSet::new();
                for e in f {
                    out.extend(e.variables());
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type CV = CompactVector<&'static str>;

    #[test]
    fn constant_vectors_stay_bits() {
        let mut v = CV::all_false(5);
        assert!(matches!(v, CompactVector::Bits(_)));
        v.set(2, BoolExpr::Const(true));
        assert!(matches!(v, CompactVector::Bits(_)));
        assert_eq!(v.const_at(2), Some(true));
        assert_eq!(v.as_bools(), Some(vec![false, false, true, false, false]));
        assert!(v.is_fully_resolved());
        assert!(v.variables().is_empty());
    }

    #[test]
    fn introducing_a_variable_promotes() {
        let mut v = CV::all_false(3);
        v.set(1, BoolExpr::var("x"));
        assert!(matches!(v, CompactVector::Formulas(_)));
        assert_eq!(v.expr(0), BoolExpr::Const(false));
        assert_eq!(v.expr(1), BoolExpr::var("x"));
        assert!(!v.is_fully_resolved());
        assert_eq!(v.as_bools(), None);
        assert_eq!(v.variables().len(), 1);
        // Overwriting the last symbolic entry with a constant demotes back
        // to the canonical bits form.
        v.set(1, BoolExpr::Const(true));
        assert!(matches!(v, CompactVector::Bits(_)));
        assert_eq!(v, CompactVector::from_bools(&[false, true, false]));
    }

    #[test]
    fn assign_demotes_back_to_bits() {
        let mut v = CV::all_false(3);
        v.set(0, BoolExpr::var("x"));
        v.set(2, BoolExpr::and(BoolExpr::var("x"), BoolExpr::var("y")));
        let partial = v.assign_with(&|name| (*name == "x").then_some(true));
        assert!(matches!(partial, CompactVector::Formulas(_)));
        assert_eq!(partial.const_at(0), Some(true));
        let full = partial.assign_with(&|_| Some(false));
        assert!(matches!(full, CompactVector::Bits(_)));
        assert_eq!(full.as_bools(), Some(vec![true, false, false]));
    }

    #[test]
    fn resolve_bits_defaults_unknowns_to_false() {
        let v = CV::fresh_variables(3, |_| "u");
        let bits = v.resolve_bits(&|_| None);
        assert_eq!(bits.to_bools(), vec![false, false, false]);
        let bits = v.resolve_bits(&|_| Some(true));
        assert_eq!(bits.to_bools(), vec![true, true, true]);
    }
}
