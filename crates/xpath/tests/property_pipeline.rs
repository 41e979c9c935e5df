//! Property-based tests of the query pipeline (parse → display → reparse,
//! normalize, compile) and of the equivalence between the two independent
//! evaluators of this crate (the vector-based two-pass algorithm and the
//! naive set-based oracle) over random documents and random queries — and of
//! the site kernel: over random *fragments* (trees with virtual nodes) the
//! PaX2 visit computes what PaX3's two visits compute.

mod common;

use common::{fragment_strategy, kernel_query_strategy, query_strategy, tree_strategy};
use paxml_boolex::{BoolExpr, CompactVector, FormulaArena};
use paxml_xml::NodeId;
use paxml_xpath::eval::{combined_pass, qualifier_pass, selection_pass, QualVectors};
use paxml_xpath::{centralized, compile, compile_text, normalize, parse, semantics};
use proptest::prelude::*;

/// Two residual formulas denote the same function when they intern to one
/// id: the arena sorts and deduplicates operands, so formulas built in a
/// different order meet — stricter than comparing truth tables, and what the
/// identical-bytes-on-the-wire criterion needs.
fn same_formula(a: &BoolExpr<String>, b: &BoolExpr<String>) -> bool {
    let mut arena = FormulaArena::new();
    arena.from_expr(a) == arena.from_expr(b)
}

fn same_vector(a: &CompactVector<String>, b: &CompactVector<String>) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| same_formula(&a.expr(i), &b.expr(i)))
}

proptest! {
    #[test]
    fn display_round_trips_to_the_same_ast(query in query_strategy()) {
        let parsed = parse(&query).expect("generated queries are valid");
        let reparsed = parse(&parsed.to_string()).expect("display output parses");
        prop_assert_eq!(&parsed, &reparsed, "display round trip changed the AST for {}", query);
        // Normalization and compilation are deterministic and agree across
        // the round trip.
        let n1 = normalize(&parsed);
        let n2 = normalize(&reparsed);
        prop_assert_eq!(&n1, &n2);
        let c1 = compile(&n1).unwrap();
        let c2 = compile(&n2).unwrap();
        prop_assert_eq!(c1.svect_len(), c2.svect_len());
        prop_assert_eq!(c1.qvect_len(), c2.qvect_len());
    }

    #[test]
    fn compiled_vectors_stay_linear_in_the_query(query in query_strategy()) {
        let parsed = parse(&query).expect("generated queries are valid");
        let compiled = compile_text(&query).unwrap();
        // |SVect| + |QVect| = O(|Q|): allow a small constant factor.
        let budget = 4 * parsed.size() + 4;
        prop_assert!(
            compiled.svect_len() + compiled.qvect_len() <= budget,
            "vectors too large for {}: {} + {} > {}",
            query, compiled.svect_len(), compiled.qvect_len(), budget
        );
    }

    #[test]
    fn two_pass_evaluator_matches_the_oracle(
        tree in tree_strategy(),
        query in query_strategy(),
    ) {
        let mut oracle = semantics::oracle_eval(&tree, &query).unwrap();
        oracle.sort();
        let fast = centralized::evaluate(&tree, &query).unwrap();
        prop_assert_eq!(oracle, fast.answers, "disagreement on {}", query);
    }

    #[test]
    fn evaluation_cost_is_linear_in_tree_and_query(
        tree in tree_strategy(),
        query in query_strategy(),
    ) {
        let compiled = compile_text(&query).unwrap();
        let result = centralized::evaluate_compiled(&tree, &compiled);
        let nodes = tree.all_nodes().count() as u64;
        let per_node = compiled.per_node_ops() + 4;
        // O(|T|·|Q|) with a small constant (folding over children counts a
        // couple of extra operations per edge).
        prop_assert!(
            result.ops <= 4 * nodes * per_node,
            "ops {} exceed 4·|T|·|Q| = {}",
            result.ops, 4 * nodes * per_node
        );
    }

    #[test]
    fn combined_pass_matches_qualifier_then_selection_pass(
        tree in fragment_strategy(),
        query in kernel_query_strategy(),
        root_fragment in prop::bool::ANY,
    ) {
        let q = compile_text(&query).unwrap();
        let root = tree.root();
        let fresh = |node: NodeId| {
            let stub = tree.kind(node).virtual_fragment().expect("asked for virtual nodes only");
            QualVectors {
                qv: CompactVector::fresh_variables(q.qvect_len(), |i| format!("F{stub}.qv{i}")),
                qdv: CompactVector::fresh_variables(q.qvect_len(), |i| format!("F{stub}.qdv{i}")),
            }
        };
        // The root fragment starts from known facts, any other from a
        // fresh-variable ancestor summary.
        let (init, context) = if root_fragment {
            (CompactVector::all_false(q.init_len()), Some(root))
        } else {
            (CompactVector::fresh_variables(q.init_len(), |i| format!("z{i}")), None)
        };

        let quals = qualifier_pass::<String>(&tree, root, &q, fresh);
        let mut qual_value =
            |v: NodeId, e| quals.node_qv[v.index()].as_ref().expect("swept").expr(e);
        let two = selection_pass::<String>(&tree, root, &q, init.clone(), context, &mut qual_value);
        let one = combined_pass::<String>(&tree, root, &q, init, context, fresh, |_, _| {
            unreachable!("the kernel mints no placeholder")
        });

        prop_assert_eq!(&one.answers, &two.answers, "answers differ for {}", query);
        prop_assert_eq!(&one.root, &quals.root, "root vectors differ for {}", query);
        prop_assert_eq!(one.candidates.len(), two.candidates.len());
        for ((n1, f1), (n2, f2)) in one.candidates.iter().zip(&two.candidates) {
            prop_assert_eq!(n1, n2);
            prop_assert!(same_formula(f1, f2), "candidate {:?} of {}: {} vs {}", n1, query, f1, f2);
        }
        prop_assert_eq!(one.virtual_vectors.len(), two.virtual_vectors.len());
        for ((n1, v1), (n2, v2)) in one.virtual_vectors.iter().zip(&two.virtual_vectors) {
            prop_assert_eq!(n1, n2);
            prop_assert!(same_vector(v1, v2), "summary at {:?} of {} differs", n1, query);
        }
        prop_assert!(one.ops <= quals.ops + two.ops, "{} > {} + {}", one.ops, quals.ops, two.ops);
    }
}
