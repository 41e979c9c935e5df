//! The centralized two-pass evaluator.
//!
//! This is the `O(|T|·|Q|)` algorithm the paper uses as its reference point
//! (\[11\] Gottlob–Koch–Pichler style): one bottom-up pass to evaluate all
//! qualifier sub-queries and one top-down pass to evaluate the selection
//! path. It is the site kernel ([`combined_pass`]) run over the whole
//! unfragmented tree — what a one-fragment PaX2 visit computes — so no
//! variable and no formula ever arises. It is used
//!
//! * directly, as the local evaluation step of the `NaiveCentralized`
//!   baseline (ship every fragment to the query site, reassemble, evaluate),
//! * as the correctness oracle for the distributed algorithms (together with
//!   the even simpler [`crate::semantics`] evaluator), and
//! * to measure the "best-known centralized algorithm" cost that the paper's
//!   *total computation* guarantee is stated against.

use crate::compile::{compile, CompiledQuery};
use crate::error::XPathResult;
use crate::eval::{combined_pass, evaluation_context, initial_vector};
use crate::normalize::normalize;
use crate::parse;
use crate::Query;
use paxml_boolex::CompactVector;
use paxml_xml::{NodeId, XmlTree};
use serde::{Deserialize, Serialize};

/// Variables never occur in centralized evaluation; this uninhabited-in-
/// practice type documents that (we use `u8` rather than an empty enum so
/// the vectors stay serializable without extra bounds).
type NoVar = u8;

/// Outcome of a centralized evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralizedResult {
    /// The answer nodes, in document order.
    pub answers: Vec<NodeId>,
    /// Elementary operations performed (nodes visited × vector entries) —
    /// the unit in which the paper states its computation bounds.
    pub ops: u64,
}

/// Evaluate a compiled query over a whole (unfragmented) tree.
pub fn evaluate_compiled(tree: &XmlTree, query: &CompiledQuery) -> CentralizedResult {
    // The init vector carries the root's own positional facts after the
    // SVect entries (empty tail for queries without positional predicates).
    let root = tree.root();
    let init = initial_vector(query, tree.label(root).unwrap_or_default());
    let out = combined_pass::<NoVar>(
        tree,
        root,
        query,
        CompactVector::from_bools(&init),
        evaluation_context(query, root),
        |_| unreachable!("an unfragmented tree has no virtual nodes"),
        |_, _| unreachable!("the kernel mints no placeholder"),
    );
    debug_assert!(out.candidates.is_empty(), "no residual candidates without fragmentation");

    let mut answers = out.answers;
    answers.sort();
    CentralizedResult { answers, ops: out.ops }
}

/// Parse, normalize, compile and evaluate a query given as text.
pub fn evaluate(tree: &XmlTree, query_text: &str) -> XPathResult<CentralizedResult> {
    let query = parse(query_text)?;
    Ok(evaluate_query(tree, &query))
}

/// Normalize, compile and evaluate an already-parsed query.
pub fn evaluate_query(tree: &XmlTree, query: &Query) -> CentralizedResult {
    let compiled = compile(&normalize(query)).expect("parsed queries always compile");
    evaluate_compiled(tree, &compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::TreeBuilder;

    fn clientele() -> XmlTree {
        // The full Fig. 1 tree (three clients, four markets).
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NYSE")
            .open("stock")
            .leaf("code", "IBM")
            .leaf("buy", "$80")
            .leaf("qt", "50")
            .close()
            .close()
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "YHOO")
            .leaf("buy", "$33")
            .leaf("qt", "40")
            .close()
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "75")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Kim")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "Bache")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$370")
            .leaf("qt", "40")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Lisa")
            .leaf("country", "Canada")
            .open("broker")
            .leaf("name", "CIBC")
            .open("market")
            .leaf("name", "TSE")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$382")
            .leaf("qt", "90")
            .close()
            .close()
            .close()
            .close()
            .build()
    }

    fn texts(tree: &XmlTree, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|n| tree.text_of(*n).unwrap_or_default()).collect()
    }

    #[test]
    fn relative_path_selects_client_names() {
        let tree = clientele();
        let r = evaluate(&tree, "client/name").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["Anna", "Kim", "Lisa"]);
    }

    #[test]
    fn example_2_1_selects_nasdaq_brokers_of_us_clients() {
        let tree = clientele();
        let r = evaluate(
            &tree,
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name",
        )
        .unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["E*trade", "Bache"]);
    }

    #[test]
    fn introduction_query_goog_but_not_yhoo() {
        let tree = clientele();
        // Brokers trading GOOG but not YHOO: Bache (Kim) and CIBC (Lisa);
        // E*trade trades both so it is excluded.
        let r = evaluate(
            &tree,
            "//broker[//stock/code/text()=\"goog\" or //stock/code/text()=\"GOOG\"]\
             [not(//stock/code/text()=\"YHOO\")]/name",
        )
        .unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["Bache", "CIBC"]);
    }

    #[test]
    fn boolean_query_as_qualifier_on_root() {
        let tree = clientele();
        // [//stock/code/text() = "GOOG"] — true at the root, so the root is
        // selected; with a code that does not exist the answer is empty.
        let r = evaluate(&tree, ".[//stock/code/text()=\"GOOG\"]").unwrap();
        assert_eq!(r.answers, vec![tree.root()]);
        let r = evaluate(&tree, ".[//stock/code/text()=\"MSFT\"]").unwrap();
        assert!(r.answers.is_empty());
    }

    #[test]
    fn val_comparisons_on_prices_and_quantities() {
        let tree = clientele();
        let r = evaluate(&tree, "//stock[buy/val() > 380]/code").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["GOOG"]); // only Lisa's $382
        let r = evaluate(&tree, "//stock[qt >= 50]/code").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["IBM", "GOOG", "GOOG"]);
        let r = evaluate(&tree, "//stock[buy/val() <= 33]/code").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["YHOO"]);
    }

    #[test]
    fn absolute_query_anchors_at_the_root_element() {
        let tree = clientele();
        let r = evaluate(&tree, "/clientele/client/name").unwrap();
        assert_eq!(r.answers.len(), 3);
        // A wrong root label selects nothing.
        let r = evaluate(&tree, "/portfolio/client/name").unwrap();
        assert!(r.answers.is_empty());
    }

    #[test]
    fn descendant_axis_in_the_middle_of_a_path() {
        let tree = clientele();
        let r = evaluate(&tree, "client//code").unwrap();
        assert_eq!(r.answers.len(), 5);
        let r = evaluate(&tree, "client//market/name").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["NYSE", "NASDAQ", "NASDAQ", "TSE"]);
    }

    #[test]
    fn wildcard_steps() {
        let tree = clientele();
        let r = evaluate(&tree, "client/*/name").unwrap();
        // name children of any child of client: the broker names.
        assert_eq!(texts(&tree, &r.answers), vec!["E*trade", "Bache", "CIBC"]);
    }

    #[test]
    fn disjunction_and_negation_in_qualifiers() {
        let tree = clientele();
        let r = evaluate(&tree, "client[country/text()=\"Canada\" or country/text()=\"US\"]/name")
            .unwrap();
        assert_eq!(r.answers.len(), 3);
        let r = evaluate(&tree, "client[not(country/text()=\"US\")]/name").unwrap();
        assert_eq!(texts(&tree, &r.answers), vec!["Lisa"]);
    }

    #[test]
    fn queries_with_no_answers_report_zero_but_still_do_work() {
        let tree = clientele();
        let r = evaluate(&tree, "client/nonexistent").unwrap();
        assert!(r.answers.is_empty());
        assert!(r.ops > 0);
    }

    #[test]
    fn ops_scale_with_tree_size() {
        let tree = clientele();
        let small = evaluate(&tree, "client/name").unwrap();
        let mut big_builder = TreeBuilder::new("clientele");
        for _ in 0..10 {
            big_builder = big_builder.subtree(&tree);
        }
        let big_tree = big_builder.build();
        let big = evaluate(&big_tree, "clientele/client/name").unwrap();
        assert!(big.ops > small.ops * 5);
    }
}
