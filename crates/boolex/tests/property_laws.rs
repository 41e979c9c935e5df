//! Property-based tests of the residual-formula engine: the simplifying
//! constructors must never change the *meaning* of a formula, and
//! assignment must commute with evaluation. These invariants are what the
//! correctness of the whole partial-evaluation pipeline rests on.

use paxml_boolex::{Assignment, BoolExpr, CompactVector};
use proptest::prelude::*;

type Var = u8;
type Expr = BoolExpr<Var>;

/// A random formula over variables 0..4, depth ≤ 4.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![any::<bool>().prop_map(Expr::constant), (0u8..4).prop_map(Expr::var),];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or(a, b)),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::and_all),
            prop::collection::vec(inner, 0..4).prop_map(Expr::or_all),
        ]
    })
}

/// A total assignment for variables 0..4.
fn assignment_strategy() -> impl Strategy<Value = Assignment<Var>> {
    prop::collection::vec(any::<bool>(), 4).prop_map(|values| {
        Assignment::from_iter(values.into_iter().enumerate().map(|(i, b)| (i as u8, b)))
    })
}

/// Evaluate a formula naively (no short-circuiting, no reliance on the
/// simplifier) — the independent reference for the laws below.
fn naive_eval(e: &Expr, env: &Assignment<Var>) -> bool {
    match e {
        BoolExpr::Const(b) => *b,
        BoolExpr::Var(v) => env.get(v).expect("total assignment"),
        BoolExpr::Not(inner) => !naive_eval(inner, env),
        BoolExpr::And(parts) => parts.iter().all(|p| naive_eval(p, env)),
        BoolExpr::Or(parts) => parts.iter().any(|p| naive_eval(p, env)),
    }
}

proptest! {
    #[test]
    fn constructors_preserve_semantics(e in expr_strategy(), env in assignment_strategy()) {
        // Rebuilding the formula through the smart constructors (which
        // flatten, fold constants and deduplicate) must not change its value.
        fn rebuild(e: &Expr) -> Expr {
            match e {
                BoolExpr::Const(b) => Expr::constant(*b),
                BoolExpr::Var(v) => Expr::var(*v),
                BoolExpr::Not(inner) => Expr::not(rebuild(inner)),
                BoolExpr::And(parts) => Expr::and_all(parts.iter().map(rebuild)),
                BoolExpr::Or(parts) => Expr::or_all(parts.iter().map(rebuild)),
            }
        }
        let rebuilt = rebuild(&e);
        prop_assert_eq!(naive_eval(&e, &env), naive_eval(&rebuilt, &env));
        // eval() agrees with the naive evaluator under a total assignment.
        prop_assert_eq!(e.eval(&env), Some(naive_eval(&e, &env)));
    }

    #[test]
    fn assign_then_eval_equals_eval(e in expr_strategy(), env in assignment_strategy()) {
        // Substituting the assignment must produce a constant with the same
        // value as evaluating directly.
        let assigned = e.assign(&env);
        prop_assert_eq!(assigned.as_const(), Some(naive_eval(&e, &env)));
        prop_assert!(!assigned.has_variables());
    }

    #[test]
    fn partial_assignment_never_changes_the_final_value(
        e in expr_strategy(),
        env in assignment_strategy(),
        keep in prop::collection::vec(any::<bool>(), 4),
    ) {
        // Splitting an assignment into two rounds (as the coordinator does
        // across stages) gives the same result as applying it at once.
        let mut first = Assignment::new();
        let mut second = Assignment::new();
        for (var, value) in env.iter() {
            if keep[*var as usize] {
                first.set(*var, value);
            } else {
                second.set(*var, value);
            }
        }
        let staged = e.assign(&first).assign(&second);
        prop_assert_eq!(staged.as_const(), Some(naive_eval(&e, &env)));
    }

    #[test]
    fn simplification_never_grows_formulas(e in expr_strategy()) {
        // The smart constructors only ever shrink or keep the size — the
        // property behind the O(|Q|) message-size bound.
        fn rebuild(e: &Expr) -> Expr {
            match e {
                BoolExpr::Const(b) => Expr::constant(*b),
                BoolExpr::Var(v) => Expr::var(*v),
                BoolExpr::Not(inner) => Expr::not(rebuild(inner)),
                BoolExpr::And(parts) => Expr::and_all(parts.iter().map(rebuild)),
                BoolExpr::Or(parts) => Expr::or_all(parts.iter().map(rebuild)),
            }
        }
        prop_assert!(rebuild(&e).size() <= e.size());
    }

    #[test]
    fn vector_assignment_is_entrywise(
        entries in prop::collection::vec(expr_strategy(), 1..6),
        env in assignment_strategy(),
    ) {
        let vector = CompactVector::from_exprs(entries.clone());
        let assigned = vector.assign(&env);
        for (i, entry) in entries.iter().enumerate() {
            prop_assert_eq!(assigned.expr(i), entry.assign(&env));
        }
        prop_assert!(assigned.is_fully_resolved());
        prop_assert_eq!(assigned.as_bools().map(|b| b.len()), Some(entries.len()));
    }
}
