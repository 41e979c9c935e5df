//! A hash-consing arena for Boolean formulas — the symbolic-path
//! representation of the evaluation kernel.
//!
//! [`crate::BoolExpr`] is a pointer tree (`Box`/`Vec` per node); every
//! `assign` walks and *re-allocates* the whole tree, and every
//! `or_all`/`and_all` deep-clones operands into a dedup set. Near virtual
//! nodes — the only places where formulas actually occur — the same `O(k)`
//! sub-formulas are combined over and over, so the tree representation pays
//! the same allocations repeatedly.
//!
//! [`FormulaArena`] stores every distinct sub-formula **once** as an
//! interned node addressed by a 4-byte [`ExprId`]. Structural sharing makes
//! equality a integer compare, deduplication a sort of ids, and `assign`
//! memoizable per node: each distinct sub-formula is rewritten at most once
//! per environment no matter how often it is shared.
//!
//! Constants are the two fixed ids [`ExprId::FALSE`] and [`ExprId::TRUE`];
//! the simplifying constructors fold constants eagerly (exactly like the
//! `BoolExpr` smart constructors), so a non-constant id always denotes a
//! formula that mentions at least one variable.

use crate::expr::BoolExpr;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// An interned formula: an index into a [`FormulaArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The constant `false` (present in every arena).
    pub const FALSE: ExprId = ExprId(0);
    /// The constant `true` (present in every arena).
    pub const TRUE: ExprId = ExprId(1);

    /// The constant with the given truth value.
    pub fn of_const(value: bool) -> ExprId {
        if value {
            ExprId::TRUE
        } else {
            ExprId::FALSE
        }
    }

    /// The truth value, when this id denotes a constant.
    pub fn as_const(self) -> Option<bool> {
        match self {
            ExprId::FALSE => Some(false),
            ExprId::TRUE => Some(true),
            _ => None,
        }
    }

    /// Does this id denote a constant?
    pub fn is_const(self) -> bool {
        self.0 < 2
    }
}

/// One interned node. The `And`/`Or` operand lists hold the invariants of
/// the `BoolExpr` constructors: no nested connective of the same kind, no
/// constants, no duplicates, at least two operands — plus a new one made
/// possible by interning: operands are sorted by id, so two conjunctions of
/// the same operands intern to the same node regardless of build order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node<V> {
    Const(bool),
    Var(V),
    Not(ExprId),
    And(Box<[ExprId]>),
    Or(Box<[ExprId]>),
}

/// A hash-consing formula arena over variables of type `V`.
pub struct FormulaArena<V> {
    nodes: Vec<Node<V>>,
    intern: HashMap<Node<V>, ExprId>,
}

impl<V: Clone + Eq + Hash + Ord> Default for FormulaArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Eq + Hash + Ord> FormulaArena<V> {
    /// An arena holding just the two constants.
    pub fn new() -> Self {
        let mut arena = FormulaArena { nodes: Vec::new(), intern: HashMap::new() };
        arena.intern(Node::Const(false));
        arena.intern(Node::Const(true));
        arena
    }

    /// Number of distinct interned formulas (including the two constants).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false — the constants are interned at construction.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn intern(&mut self, node: Node<V>) -> ExprId {
        if let Some(&id) = self.intern.get(&node) {
            return id;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(node.clone());
        self.intern.insert(node, id);
        id
    }

    /// Intern a variable.
    pub fn var(&mut self, v: V) -> ExprId {
        self.intern(Node::Var(v))
    }

    /// Negation with simplification (`¬¬f = f`, `¬const` folds).
    pub fn not(&mut self, operand: ExprId) -> ExprId {
        if let Some(b) = operand.as_const() {
            return ExprId::of_const(!b);
        }
        if let Node::Not(inner) = self.nodes[operand.0 as usize] {
            return inner;
        }
        self.intern(Node::Not(operand))
    }

    /// Binary conjunction; the constant cases never touch the intern table.
    pub fn and(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (a.as_const(), b.as_const()) {
            (Some(false), _) | (_, Some(false)) => ExprId::FALSE,
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => self.and_all([a, b]),
        }
    }

    /// Binary disjunction; the constant cases never touch the intern table.
    pub fn or(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (a.as_const(), b.as_const()) {
            (Some(true), _) | (_, Some(true)) => ExprId::TRUE,
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => self.or_all([a, b]),
        }
    }

    /// N-ary conjunction with flattening, constant folding and id-level
    /// deduplication (a sort of `u32`s — no formula is ever cloned).
    pub fn and_all(&mut self, operands: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut flat: Vec<ExprId> = Vec::new();
        for op in operands {
            match op {
                ExprId::TRUE => {}
                ExprId::FALSE => return ExprId::FALSE,
                _ => match &self.nodes[op.0 as usize] {
                    Node::And(inner) => flat.extend(inner.iter().copied()),
                    _ => flat.push(op),
                },
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => ExprId::TRUE,
            1 => flat[0],
            _ => self.intern(Node::And(flat.into_boxed_slice())),
        }
    }

    /// N-ary disjunction with flattening, constant folding and id-level
    /// deduplication.
    pub fn or_all(&mut self, operands: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut flat: Vec<ExprId> = Vec::new();
        for op in operands {
            match op {
                ExprId::FALSE => {}
                ExprId::TRUE => return ExprId::TRUE,
                _ => match &self.nodes[op.0 as usize] {
                    Node::Or(inner) => flat.extend(inner.iter().copied()),
                    _ => flat.push(op),
                },
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => ExprId::FALSE,
            1 => flat[0],
            _ => self.intern(Node::Or(flat.into_boxed_slice())),
        }
    }

    /// The operands of a disjunction (sorted by id), or `None` when `id` is
    /// not one.
    pub fn or_operands(&self, id: ExprId) -> Option<&[ExprId]> {
        match &self.nodes[id.0 as usize] {
            Node::Or(operands) => Some(operands),
            _ => None,
        }
    }

    /// Substitute truth values for variables (unmapped variables stay
    /// symbolic) and re-simplify. `memo` caches rewrites per node id for one
    /// environment; pass the same map while the environment is unchanged and
    /// a fresh one afterwards. Shared sub-formulas are rewritten once.
    pub fn assign(
        &mut self,
        id: ExprId,
        lookup: &impl Fn(&V) -> Option<bool>,
        memo: &mut HashMap<ExprId, ExprId>,
    ) -> ExprId {
        if id.is_const() {
            return id;
        }
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let result = match self.nodes[id.0 as usize].clone() {
            Node::Const(b) => ExprId::of_const(b),
            Node::Var(v) => match lookup(&v) {
                Some(b) => ExprId::of_const(b),
                None => id,
            },
            Node::Not(inner) => {
                let inner = self.assign(inner, lookup, memo);
                self.not(inner)
            }
            Node::And(ops) => {
                let mapped: Vec<ExprId> =
                    ops.iter().map(|&op| self.assign(op, lookup, memo)).collect();
                self.and_all(mapped)
            }
            Node::Or(ops) => {
                let mapped: Vec<ExprId> =
                    ops.iter().map(|&op| self.assign(op, lookup, memo)).collect();
                self.or_all(mapped)
            }
        };
        memo.insert(id, result);
        result
    }

    /// Import a [`BoolExpr`] tree (re-simplifying through the interning
    /// constructors; constants cost nothing).
    pub fn from_expr(&mut self, expr: &BoolExpr<V>) -> ExprId {
        match expr {
            BoolExpr::Const(b) => ExprId::of_const(*b),
            BoolExpr::Var(v) => self.var(v.clone()),
            BoolExpr::Not(inner) => {
                let inner = self.from_expr(inner);
                self.not(inner)
            }
            BoolExpr::And(ops) => {
                let mapped: Vec<ExprId> = ops.iter().map(|op| self.from_expr(op)).collect();
                self.and_all(mapped)
            }
            BoolExpr::Or(ops) => {
                let mapped: Vec<ExprId> = ops.iter().map(|op| self.from_expr(op)).collect();
                self.or_all(mapped)
            }
        }
    }

    /// Export an interned formula as a self-contained [`BoolExpr`] tree —
    /// the wire form for the `O(k)` residual formulas that actually leave a
    /// site.
    pub fn to_expr(&self, id: ExprId) -> BoolExpr<V> {
        match &self.nodes[id.0 as usize] {
            Node::Const(b) => BoolExpr::Const(*b),
            Node::Var(v) => BoolExpr::Var(v.clone()),
            Node::Not(inner) => BoolExpr::Not(Box::new(self.to_expr(*inner))),
            Node::And(ops) => BoolExpr::And(ops.iter().map(|&op| self.to_expr(op)).collect()),
            Node::Or(ops) => BoolExpr::Or(ops.iter().map(|&op| self.to_expr(op)).collect()),
        }
    }

    /// Collect the variables mentioned by a formula.
    pub fn variables(&self, id: ExprId, out: &mut BTreeSet<V>) {
        match &self.nodes[id.0 as usize] {
            Node::Const(_) => {}
            Node::Var(v) => {
                out.insert(v.clone());
            }
            Node::Not(inner) => self.variables(*inner, out),
            Node::And(ops) | Node::Or(ops) => {
                for &op in ops.iter() {
                    self.variables(op, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Arena = FormulaArena<&'static str>;

    #[test]
    fn constants_are_fixed_ids() {
        let arena = Arena::new();
        assert_eq!(ExprId::of_const(false), ExprId::FALSE);
        assert_eq!(ExprId::of_const(true), ExprId::TRUE);
        assert_eq!(ExprId::FALSE.as_const(), Some(false));
        assert!(!arena.is_empty());
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn interning_shares_structure() {
        let mut arena = Arena::new();
        let x = arena.var("x");
        let y = arena.var("y");
        let a = arena.and(x, y);
        let b = arena.and(y, x); // sorted operands → same node
        assert_eq!(a, b);
        assert_eq!(arena.var("x"), x);
        let before = arena.len();
        let _ = arena.and(x, y);
        assert_eq!(arena.len(), before, "re-building an existing formula allocates nothing");
    }

    #[test]
    fn constant_folding_matches_bool_expr() {
        let mut arena = Arena::new();
        let x = arena.var("x");
        assert_eq!(arena.and(ExprId::TRUE, x), x);
        assert_eq!(arena.and(ExprId::FALSE, x), ExprId::FALSE);
        assert_eq!(arena.or(ExprId::FALSE, x), x);
        assert_eq!(arena.or(ExprId::TRUE, x), ExprId::TRUE);
        let nn = arena.not(x);
        assert_eq!(arena.not(nn), x);
        assert_eq!(arena.and_all([]), ExprId::TRUE);
        assert_eq!(arena.or_all([]), ExprId::FALSE);
        assert_eq!(arena.and_all([x, x, x]), x);
    }

    #[test]
    fn assign_resolves_and_memoizes() {
        let mut arena = Arena::new();
        let x = arena.var("x");
        let y = arena.var("y");
        let ny = arena.not(y);
        let f = arena.and(x, ny); // x ∧ ¬y
        let mut memo = HashMap::new();
        let g = arena.assign(f, &|v| (*v == "y").then_some(false), &mut memo);
        assert_eq!(g, x);
        let h = arena.assign(f, &|v| (*v == "y").then_some(false), &mut memo);
        assert_eq!(h, x, "memoized result is stable");
        let mut memo2 = HashMap::new();
        let all = arena.assign(f, &|_| Some(true), &mut memo2);
        assert_eq!(all, ExprId::FALSE);
    }

    #[test]
    fn round_trips_through_bool_expr() {
        let mut arena = Arena::new();
        type E = BoolExpr<&'static str>;
        let e = E::or(E::and(E::var("a"), E::not(E::var("b"))), E::var("c"));
        let id = arena.from_expr(&e);
        let back = arena.to_expr(id);
        // Semantically identical under every total assignment.
        for bits in 0..8u32 {
            let env = crate::Assignment::from_iter([
                ("a", bits & 1 != 0),
                ("b", bits & 2 != 0),
                ("c", bits & 4 != 0),
            ]);
            assert_eq!(back.eval(&env), e.eval(&env));
        }
        let mut vars = BTreeSet::new();
        arena.variables(id, &mut vars);
        assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }
}
