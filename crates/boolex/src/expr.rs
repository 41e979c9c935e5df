//! Boolean formulas over generic variables, with simplifying constructors.

use crate::env::Assignment;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

/// A Boolean formula over variables of type `V`.
///
/// `V` is usually a small value identifying a `(fragment, vector, entry)`
/// slot; see `paxml-core`. All constructors simplify eagerly:
///
/// * constants are folded (`true ∧ f = f`, `false ∧ f = false`, …),
/// * nested conjunctions/disjunctions are flattened,
/// * duplicate operands are removed,
/// * double negation is removed.
///
/// Eager simplification matters for the paper's communication bound: a
/// residual formula produced while evaluating a fragment mentions only
/// variables of that fragment's virtual nodes, so after simplification its
/// size stays `O(k)` where `k` is the number of virtual nodes — never
/// proportional to the fragment's data size.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BoolExpr<V> {
    /// A known truth value.
    Const(bool),
    /// An unknown, named by a variable.
    Var(V),
    /// Negation.
    Not(Box<BoolExpr<V>>),
    /// Conjunction of two or more operands (invariant: no nested `And`, no
    /// constants, no duplicates, at least two operands).
    And(Vec<BoolExpr<V>>),
    /// Disjunction of two or more operands (same invariants as `And`).
    Or(Vec<BoolExpr<V>>),
}

impl<V> From<bool> for BoolExpr<V> {
    fn from(b: bool) -> Self {
        BoolExpr::Const(b)
    }
}

impl<V: Clone + Eq + Ord + Hash> BoolExpr<V> {
    /// The constant `true` or `false`.
    pub fn constant(value: bool) -> Self {
        BoolExpr::Const(value)
    }

    /// A single variable.
    pub fn var(v: V) -> Self {
        BoolExpr::Var(v)
    }

    /// Negation with simplification (`¬¬f = f`, `¬true = false`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(operand: BoolExpr<V>) -> Self {
        match operand {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(inner) => *inner,
            other => BoolExpr::Not(Box::new(other)),
        }
    }

    /// Conjunction with simplification.
    ///
    /// The constant cases are handled without any allocation: this is the
    /// innermost operation of the per-node vector computations, where almost
    /// every operand is already a known truth value.
    pub fn and(a: BoolExpr<V>, b: BoolExpr<V>) -> Self {
        match (a, b) {
            (BoolExpr::Const(false), _) | (_, BoolExpr::Const(false)) => BoolExpr::Const(false),
            (BoolExpr::Const(true), x) | (x, BoolExpr::Const(true)) => x,
            (a, b) => Self::and_all([a, b]),
        }
    }

    /// Disjunction with simplification (constant cases allocation-free).
    pub fn or(a: BoolExpr<V>, b: BoolExpr<V>) -> Self {
        match (a, b) {
            (BoolExpr::Const(true), _) | (_, BoolExpr::Const(true)) => BoolExpr::Const(true),
            (BoolExpr::Const(false), x) | (x, BoolExpr::Const(false)) => x,
            (a, b) => Self::or_all([a, b]),
        }
    }

    /// N-ary conjunction with simplification. An empty conjunction is `true`.
    pub fn and_all(operands: impl IntoIterator<Item = BoolExpr<V>>) -> Self {
        let mut flat: Vec<BoolExpr<V>> = Vec::new();
        for op in operands {
            match op {
                BoolExpr::Const(true) => {}
                BoolExpr::Const(false) => return BoolExpr::Const(false),
                BoolExpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Self::dedup(&mut flat);
        match flat.len() {
            0 => BoolExpr::Const(true),
            1 => flat.pop().expect("length checked"),
            _ => BoolExpr::And(flat),
        }
    }

    /// N-ary disjunction with simplification. An empty disjunction is `false`.
    pub fn or_all(operands: impl IntoIterator<Item = BoolExpr<V>>) -> Self {
        let mut flat: Vec<BoolExpr<V>> = Vec::new();
        for op in operands {
            match op {
                BoolExpr::Const(false) => {}
                BoolExpr::Const(true) => return BoolExpr::Const(true),
                BoolExpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Self::dedup(&mut flat);
        match flat.len() {
            0 => BoolExpr::Const(false),
            1 => flat.pop().expect("length checked"),
            _ => BoolExpr::Or(flat),
        }
    }

    /// Remove duplicate operands while keeping the first occurrence's order.
    /// Small operand lists (the overwhelmingly common case) are deduplicated
    /// with a quadratic scan to avoid allocating a set; larger lists sort a
    /// permutation of indices, so no operand is ever cloned either way.
    fn dedup(operands: &mut Vec<BoolExpr<V>>) {
        if operands.len() <= 1 {
            return;
        }
        if operands.len() <= 8 {
            let mut i = 1;
            while i < operands.len() {
                if operands[..i].contains(&operands[i]) {
                    operands.remove(i);
                } else {
                    i += 1;
                }
            }
            return;
        }
        // Sort indices by operand; within a run of equal operands only the
        // first occurrence (smallest original index) survives.
        let mut order: Vec<usize> = (0..operands.len()).collect();
        order.sort_unstable_by(|&a, &b| operands[a].cmp(&operands[b]).then(a.cmp(&b)));
        let mut keep = vec![true; operands.len()];
        for pair in order.windows(2) {
            if operands[pair[0]] == operands[pair[1]] {
                keep[pair[1]] = false;
            }
        }
        let mut index = 0;
        operands.retain(|_| {
            let k = keep[index];
            index += 1;
            k
        });
    }

    /// Is this formula a constant? Returns the constant value if so.
    pub fn as_const(&self) -> Option<bool> {
        match self {
            BoolExpr::Const(b) => Some(*b),
            _ => None,
        }
    }

    /// Is this formula the constant `true`?
    pub fn is_true(&self) -> bool {
        matches!(self, BoolExpr::Const(true))
    }

    /// Does the formula still contain unknowns?
    pub fn has_variables(&self) -> bool {
        match self {
            BoolExpr::Const(_) => false,
            BoolExpr::Var(_) => true,
            BoolExpr::Not(f) => f.has_variables(),
            BoolExpr::And(fs) | BoolExpr::Or(fs) => fs.iter().any(|f| f.has_variables()),
        }
    }

    /// The set of variables mentioned by the formula.
    pub fn variables(&self) -> BTreeSet<V> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<V>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(v) => {
                out.insert(v.clone());
            }
            BoolExpr::Not(f) => f.collect_variables(out),
            BoolExpr::And(fs) | BoolExpr::Or(fs) => {
                for f in fs {
                    f.collect_variables(out);
                }
            }
        }
    }

    /// Number of syntax-tree nodes — used by tests asserting the
    /// communication bound (formulas shipped between sites stay small).
    pub fn size(&self) -> usize {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => 1,
            BoolExpr::Not(f) => 1 + f.size(),
            BoolExpr::And(fs) | BoolExpr::Or(fs) => {
                1 + fs.iter().map(BoolExpr::size).sum::<usize>()
            }
        }
    }

    /// Evaluate under a (possibly partial) assignment. Returns `None` when a
    /// variable needed to decide the value is missing from the assignment.
    ///
    /// Short-circuits: an `Or` with one operand known `true` is `true` even
    /// if other operands mention unassigned variables (and dually for `And`),
    /// matching how `evalFT` can conclude early.
    pub fn eval(&self, env: &Assignment<V>) -> Option<bool> {
        self.eval_with(&|v| env.get(v))
    }

    /// [`BoolExpr::eval`] with a generic variable lookup — lets callers
    /// resolve variables from dense (bitset) environments without building a
    /// `BTreeMap` first.
    pub fn eval_with(&self, env: &impl Fn(&V) -> Option<bool>) -> Option<bool> {
        match self {
            BoolExpr::Const(b) => Some(*b),
            BoolExpr::Var(v) => env(v),
            BoolExpr::Not(f) => f.eval_with(env).map(|b| !b),
            BoolExpr::And(fs) => {
                let mut all_known = true;
                for f in fs {
                    match f.eval_with(env) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(true)
                } else {
                    None
                }
            }
            BoolExpr::Or(fs) => {
                let mut all_known = true;
                for f in fs {
                    match f.eval_with(env) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    /// Substitute truth values for the variables present in `env`, leaving
    /// the remaining variables symbolic, and re-simplify. This is the core
    /// operation of the paper's `evalFT` and of Stage 2/3 unification.
    pub fn assign(&self, env: &Assignment<V>) -> BoolExpr<V> {
        self.assign_with(&|v| env.get(v))
    }

    /// [`BoolExpr::assign`] with a generic variable lookup — the dense
    /// (bitset) environments of the coordinator resolve variables without
    /// materializing a map.
    pub fn assign_with(&self, env: &impl Fn(&V) -> Option<bool>) -> BoolExpr<V> {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Var(v) => match env(v) {
                Some(b) => BoolExpr::Const(b),
                None => BoolExpr::Var(v.clone()),
            },
            BoolExpr::Not(f) => Self::not(f.assign_with(env)),
            BoolExpr::And(fs) => Self::and_all(fs.iter().map(|f| f.assign_with(env))),
            BoolExpr::Or(fs) => Self::or_all(fs.iter().map(|f| f.assign_with(env))),
        }
    }

    /// Rename every variable through `f`, preserving structure.
    pub fn map_vars<W, F>(&self, f: &F) -> BoolExpr<W>
    where
        W: Clone + Eq + Ord + Hash,
        F: Fn(&V) -> W,
    {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Var(v) => BoolExpr::Var(f(v)),
            BoolExpr::Not(inner) => BoolExpr::not(inner.map_vars(f)),
            BoolExpr::And(fs) => BoolExpr::and_all(fs.iter().map(|x| x.map_vars(f))),
            BoolExpr::Or(fs) => BoolExpr::or_all(fs.iter().map(|x| x.map_vars(f))),
        }
    }
}

impl<V: fmt::Display> fmt::Display for BoolExpr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Var(v) => write!(f, "{v}"),
            BoolExpr::Not(inner) => write!(f, "¬({inner})"),
            BoolExpr::And(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = BoolExpr<&'static str>;

    #[test]
    fn constant_folding_in_and() {
        let x = E::var("x");
        assert_eq!(E::and(E::constant(true), x.clone()), x);
        assert_eq!(E::and(E::constant(false), x.clone()), E::constant(false));
        assert_eq!(E::and(x.clone(), E::constant(true)), x);
        assert_eq!(E::and_all(Vec::<E>::new()), E::constant(true));
    }

    #[test]
    fn constant_folding_in_or() {
        let x = E::var("x");
        assert_eq!(E::or(E::constant(false), x.clone()), x);
        assert_eq!(E::or(E::constant(true), x.clone()), E::constant(true));
        assert_eq!(E::or_all(Vec::<E>::new()), E::constant(false));
    }

    #[test]
    fn double_negation_and_constant_negation() {
        let x = E::var("x");
        assert_eq!(E::not(E::not(x.clone())), x);
        assert_eq!(E::not(E::constant(true)), E::constant(false));
        assert_eq!(E::not(E::constant(false)), E::constant(true));
    }

    #[test]
    fn nested_connectives_are_flattened_and_deduped() {
        let x = E::var("x");
        let y = E::var("y");
        let z = E::var("z");
        let f = E::and(E::and(x.clone(), y.clone()), E::and(y.clone(), z.clone()));
        match &f {
            BoolExpr::And(ops) => assert_eq!(ops.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        let g = E::or(E::or(x.clone(), x.clone()), x.clone());
        assert_eq!(g, x);
    }

    #[test]
    fn variables_and_size() {
        let f = E::and(E::var("a"), E::or(E::var("b"), E::not(E::var("a"))));
        let vars: Vec<_> = f.variables().into_iter().collect();
        assert_eq!(vars, vec!["a", "b"]);
        assert!(f.has_variables());
        assert!(f.size() >= 5);
        assert!(!E::constant(true).has_variables());
    }

    #[test]
    fn eval_with_total_assignment() {
        let f = E::and(E::var("a"), E::or(E::var("b"), E::not(E::var("c"))));
        let mut env = Assignment::new();
        env.set("a", true);
        env.set("b", false);
        env.set("c", false);
        assert_eq!(f.eval(&env), Some(true));
        env.set("c", true);
        assert_eq!(f.eval(&env), Some(false));
    }

    #[test]
    fn eval_short_circuits_with_partial_assignment() {
        let f = E::or(E::var("known"), E::var("unknown"));
        let mut env = Assignment::new();
        env.set("known", true);
        assert_eq!(f.eval(&env), Some(true));
        let g = E::and(E::var("known2"), E::var("unknown"));
        let mut env = Assignment::new();
        env.set("known2", false);
        assert_eq!(g.eval(&env), Some(false));
        // But a genuinely undecidable formula yields None.
        let h = E::and(E::var("unknown"), E::constant(true));
        assert_eq!(h.eval(&Assignment::new()), None);
    }

    #[test]
    fn assign_partially_then_fully() {
        let f = E::and(E::var("z1"), E::var("y8"));
        let mut env = Assignment::new();
        env.set("y8", true);
        let g = f.assign(&env);
        assert_eq!(g, E::var("z1"));
        let mut env2 = Assignment::new();
        env2.set("z1", true);
        assert_eq!(g.assign(&env2), E::constant(true));
    }

    #[test]
    fn map_vars_renames() {
        let f = E::and(E::var("a"), E::not(E::var("b")));
        let g: BoolExpr<String> = f.map_vars(&|v| format!("F1.{v}"));
        let vars: Vec<_> = g.variables().into_iter().collect();
        assert_eq!(vars, vec!["F1.a".to_string(), "F1.b".to_string()]);
    }

    #[test]
    fn display_is_readable() {
        let f = E::and(E::var("z1"), E::not(E::var("y8")));
        let s = f.to_string();
        assert!(s.contains("z1"));
        assert!(s.contains("∧"));
        assert!(s.contains("¬"));
    }

    #[test]
    fn or_of_x_and_not_x_is_not_collapsed_but_evaluates_correctly() {
        // We deliberately do not implement full tautology detection — the
        // paper does not need it — but evaluation must still be correct.
        let f = E::or(E::var("x"), E::not(E::var("x")));
        let mut env = Assignment::new();
        env.set("x", false);
        assert_eq!(f.eval(&env), Some(true));
        env.set("x", true);
        assert_eq!(f.eval(&env), Some(true));
    }
}
