//! Property tests: the interned-arena / compact-vector kernel is
//! semantically identical to the reference `BoolExpr` trees (one per vector
//! entry) on random formulas.
//!
//! Every operation pair (build, n-ary connectives, assign, vector assign) is
//! checked by evaluating both results under *every* total
//! assignment of the variable universe — bit-identical truth tables, not
//! just structural plausibility.

use paxml_boolex::{Assignment, BoolExpr, CompactVector, ExprId, FormulaArena};
use proptest::prelude::*;
use std::collections::HashMap;

type E = BoolExpr<u8>;

const VARS: u8 = 6;

/// Random formulas over variables 0..VARS, built through the simplifying
/// constructors (exactly how the kernel builds them).
fn arb_expr() -> impl Strategy<Value = E> {
    let leaf =
        prop_oneof![any::<bool>().prop_map(BoolExpr::Const), (0..VARS).prop_map(BoolExpr::var),];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(BoolExpr::not),
            prop::collection::vec(inner.clone(), 0..4).prop_map(BoolExpr::and_all),
            prop::collection::vec(inner, 0..4).prop_map(BoolExpr::or_all),
        ]
    })
}

/// The total assignment encoded by the low VARS bits of `bits`.
fn total_env(bits: u32) -> Assignment<u8> {
    Assignment::from_iter((0..VARS).map(|v| (v, bits & (1 << v) != 0)))
}

/// Truth table of a formula over the full variable universe.
fn truth_table(e: &E) -> Vec<bool> {
    (0..1u32 << VARS)
        .map(|bits| e.eval(&total_env(bits)).expect("total assignment decides everything"))
        .collect()
}

proptest! {
    #[test]
    fn arena_round_trip_preserves_the_truth_table(e in arb_expr()) {
        let mut arena: FormulaArena<u8> = FormulaArena::new();
        let id = arena.from_expr(&e);
        let back = arena.to_expr(id);
        prop_assert_eq!(truth_table(&back), truth_table(&e));
        // The arena's constant folding agrees with the legacy constructors'.
        prop_assert_eq!(id.as_const(), e.as_const());
    }

    #[test]
    fn arena_assign_matches_bool_expr_assign(
        e in arb_expr(),
        assigned_mask in 0u32..1 << VARS,
        values in 0u32..1 << VARS,
    ) {
        let lookup = |v: &u8| -> Option<bool> {
            (assigned_mask & (1 << v) != 0).then(|| values & (1 << v) != 0)
        };
        let legacy = e.assign_with(&lookup);

        let mut arena: FormulaArena<u8> = FormulaArena::new();
        let id = arena.from_expr(&e);
        let mut memo = HashMap::new();
        let assigned = arena.assign(id, &lookup, &mut memo);
        let arena_result = arena.to_expr(assigned);

        prop_assert_eq!(truth_table(&arena_result), truth_table(&legacy));
        // Both representations agree on whether the result is decided.
        prop_assert_eq!(assigned.as_const(), legacy.as_const());
    }

    #[test]
    fn arena_connectives_match_bool_expr_connectives(ops in prop::collection::vec(arb_expr(), 0..5)) {
        let legacy_and = E::and_all(ops.clone());
        let legacy_or = E::or_all(ops.clone());

        let mut arena: FormulaArena<u8> = FormulaArena::new();
        let ids: Vec<ExprId> = ops.iter().map(|e| arena.from_expr(e)).collect();
        let arena_and = arena.and_all(ids.clone());
        let arena_or = arena.or_all(ids);

        prop_assert_eq!(truth_table(&arena.to_expr(arena_and)), truth_table(&legacy_and));
        prop_assert_eq!(truth_table(&arena.to_expr(arena_or)), truth_table(&legacy_or));
    }

    #[test]
    fn compact_vector_matches_formula_vector(
        entries in prop::collection::vec(arb_expr(), 1..6),
        assigned_mask in 0u32..1 << VARS,
        values in 0u32..1 << VARS,
    ) {
        let compact = CompactVector::from_exprs(entries.clone());
        prop_assert_eq!(compact.len(), entries.len());

        // Canonical form: bits iff every entry is constant.
        let all_const = entries.iter().all(|e| e.as_const().is_some());
        prop_assert_eq!(matches!(compact, CompactVector::Bits(_)), all_const);

        for (i, entry) in entries.iter().enumerate() {
            prop_assert_eq!(truth_table(&compact.expr(i)), truth_table(entry));
        }

        // Assignment agrees entry-wise and re-canonicalizes.
        let lookup = |v: &u8| -> Option<bool> {
            (assigned_mask & (1 << v) != 0).then(|| values & (1 << v) != 0)
        };
        let env = Assignment::from_iter(
            (0..VARS).filter_map(|v| lookup(&v).map(|value| (v, value))),
        );
        let entries_assigned: Vec<E> = entries.iter().map(|e| e.assign(&env)).collect();
        let compact_assigned = compact.assign_with(&lookup);
        for (i, entry) in entries_assigned.iter().enumerate() {
            prop_assert_eq!(truth_table(&compact_assigned.expr(i)), truth_table(entry));
        }
        prop_assert_eq!(
            matches!(compact_assigned, CompactVector::Bits(_)),
            entries_assigned.iter().all(|e| e.as_const().is_some()),
            "assign must demote to bits exactly when fully resolved"
        );
    }
}
