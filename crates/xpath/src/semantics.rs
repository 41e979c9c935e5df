//! A deliberately naive, set-based reference semantics for the class X.
//!
//! This module exists purely as a *correctness oracle*: it implements the
//! denotational semantics of §2.2 ("val(Q, v) yields the set of nodes of T
//! reachable via Q from v") as directly as possible, with no attention to
//! efficiency, so that the optimized evaluators (centralized two-pass, PaX3,
//! PaX2) can be checked against an independent implementation in unit,
//! integration and property-based tests.

use crate::ast::{Atom, CmpOp, PosPred};
use crate::compile::{PosFilter, PosTest};
use crate::error::XPathResult;
use crate::normalize::{normalize, NormItem, NormPath, NormQual, NormQuery};
use crate::parse;
use paxml_xml::{NodeId, XmlTree};
use std::collections::BTreeSet;

/// A context node: either a real node or the implicit document node sitting
/// above the root element (used to anchor absolute queries).
type Ctx = Option<NodeId>;

/// Evaluate a query given as text. Returns the answer set in document order.
pub fn oracle_eval(tree: &XmlTree, query_text: &str) -> XPathResult<Vec<NodeId>> {
    let query = parse(query_text)?;
    Ok(oracle_eval_query(tree, &normalize(&query)))
}

/// Evaluate a normalized query.
pub fn oracle_eval_query(tree: &XmlTree, query: &NormQuery) -> Vec<NodeId> {
    let initial: BTreeSet<Ctx> = if query.absolute {
        std::iter::once(None).collect()
    } else {
        std::iter::once(Some(tree.root())).collect()
    };
    let result = eval_items(tree, &query.path.items, &initial);
    // Keep document order and drop the (non-selectable) document node.
    let selected: BTreeSet<NodeId> = result.into_iter().flatten().collect();
    tree.all_nodes().filter(|n| selected.contains(n)).collect()
}

/// Children of a context node.
fn ctx_children(tree: &XmlTree, ctx: Ctx) -> Vec<NodeId> {
    match ctx {
        None => vec![tree.root()],
        Some(n) => tree.children(n).collect(),
    }
}

/// Descendant-or-self closure of a context node.
fn ctx_descendants_or_self(tree: &XmlTree, ctx: Ctx) -> Vec<Ctx> {
    match ctx {
        None => std::iter::once(None).chain(tree.all_nodes().map(Some)).collect(),
        Some(n) => tree.pre_order(n).map(Some).collect(),
    }
}

/// The node test a positional item at `items[at]` counts against: the
/// nearest preceding step item (positions and qualifiers of the same step
/// are transparent, `//` has no single step to count).
fn preceding_pos_test(items: &[NormItem], at: usize) -> Option<PosTest> {
    for item in items[..at].iter().rev() {
        match item {
            NormItem::Label(l) => return Some(PosTest::Label(l.clone())),
            NormItem::Wildcard => return Some(PosTest::AnyElement),
            NormItem::Qualifier(_) | NormItem::Position(_) => continue,
            NormItem::DescendantOrSelf => return None,
        }
    }
    None
}

/// Is `v` at an accepted position among the test-matching children of its
/// parent? A root element counts as the only child of the document node.
fn position_accepted(tree: &XmlTree, v: NodeId, test: &PosTest, pred: PosPred) -> bool {
    let filter = PosFilter { test: test.clone(), preds: vec![pred] };
    match tree.parent(v) {
        Some(p) => crate::eval::position_accepts(tree, p, &filter)
            .find(|&(c, _)| c == v)
            .map(|(_, accepted)| accepted)
            .expect("node among its siblings"),
        None => filter.test.matches(tree.step_label(v)) && filter.accepts(1, 1),
    }
}

/// Evaluate a sequence of normalized items over a set of context nodes.
fn eval_items(tree: &XmlTree, items: &[NormItem], context: &BTreeSet<Ctx>) -> BTreeSet<Ctx> {
    let mut current: BTreeSet<Ctx> = context.clone();
    for (at, item) in items.iter().enumerate() {
        match item {
            NormItem::Label(l) => {
                let mut next = BTreeSet::new();
                for &ctx in &current {
                    for c in ctx_children(tree, ctx) {
                        if tree.label(c) == Some(l.as_str()) {
                            next.insert(Some(c));
                        }
                    }
                }
                current = next;
            }
            NormItem::Wildcard => {
                let mut next = BTreeSet::new();
                for &ctx in &current {
                    for c in ctx_children(tree, ctx) {
                        if tree.is_element(c) {
                            next.insert(Some(c));
                        }
                    }
                }
                current = next;
            }
            NormItem::DescendantOrSelf => {
                let mut next = BTreeSet::new();
                for &ctx in &current {
                    next.extend(ctx_descendants_or_self(tree, ctx));
                }
                current = next;
            }
            NormItem::Qualifier(q) => {
                current.retain(|&ctx| eval_qual(tree, q, ctx));
            }
            NormItem::Position(pred) => {
                let test = preceding_pos_test(items, at);
                current.retain(|&ctx| match (&test, ctx) {
                    (Some(t), Some(v)) => position_accepted(tree, v, t, *pred),
                    _ => false,
                });
            }
        }
    }
    current
}

/// Does the qualifier hold at the context node?
fn eval_qual(tree: &XmlTree, q: &NormQual, ctx: Ctx) -> bool {
    match q {
        NormQual::Path(p) => {
            !eval_items(tree, &p.items, &std::iter::once(ctx).collect()).is_empty()
        }
        NormQual::Atom(atom) => ctx.is_some_and(|v| atom_holds(tree, atom, v)),
        NormQual::Not(inner) => !eval_qual(tree, inner, ctx),
        NormQual::And(parts) => parts.iter().all(|p| eval_qual(tree, p, ctx)),
        NormQual::Or(parts) => parts.iter().any(|p| eval_qual(tree, p, ctx)),
    }
}

/// Does the atomic test hold at `v`? Text tests read `v`'s text children.
fn atom_holds(tree: &XmlTree, atom: &Atom, v: NodeId) -> bool {
    let mut texts = tree.children(v).filter_map(|c| tree.text_value(c));
    match atom {
        Atom::Text(s) => texts.any(|t| t == s),
        Atom::Val(op, n) => texts.any(|t| numeric_matches(t, *op, *n)),
        Atom::Attr(a) => tree.attribute(v, a).is_some(),
        Atom::AttrText(a, s) => tree.attribute(v, a) == Some(s.as_str()),
        Atom::AttrVal(a, op, n) => {
            tree.attribute(v, a).is_some_and(|t| numeric_matches(t, *op, *n))
        }
    }
}

/// Check a `val() op num` comparison the same way the vector evaluator does:
/// trim whitespace, tolerate a leading `$`, fail closed on non-numbers.
pub fn numeric_matches(text: &str, op: CmpOp, num: f64) -> bool {
    let t = text.trim();
    let t = t.strip_prefix('$').unwrap_or(t);
    t.parse::<f64>().map(|v| op.apply(v, num)).unwrap_or(false)
}

/// Evaluate a *qualifier* (Boolean query) at a given node — the oracle for
/// ParBoX-style Boolean evaluation.
pub fn oracle_eval_qualifier(tree: &XmlTree, q: &NormQual, node: NodeId) -> bool {
    eval_qual(tree, q, Some(node))
}

/// Re-export of [`NormPath`]-level evaluation for tests that want to probe
/// qualifier paths directly.
pub fn oracle_eval_path_at(tree: &XmlTree, path: &NormPath, node: NodeId) -> Vec<NodeId> {
    let ctx: BTreeSet<Ctx> = std::iter::once(Some(node)).collect();
    let out = eval_items(tree, &path.items, &ctx);
    let selected: BTreeSet<NodeId> = out.into_iter().flatten().collect();
    tree.all_nodes().filter(|n| selected.contains(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized;
    use paxml_xml::TreeBuilder;

    fn sample() -> XmlTree {
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "75")
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

    #[test]
    fn oracle_selects_expected_nodes() {
        let t = sample();
        let names = oracle_eval(&t, "client/name").unwrap();
        assert_eq!(names.len(), 2);
        let answers = oracle_eval(&t, "client[country/text()='US']/broker/name").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(t.text_of(answers[0]), Some("E*trade".into()));
    }

    #[test]
    fn oracle_handles_absolute_and_descendant_queries() {
        let t = sample();
        assert_eq!(oracle_eval(&t, "/clientele/client").unwrap().len(), 2);
        assert_eq!(oracle_eval(&t, "//code").unwrap().len(), 2);
        assert_eq!(oracle_eval(&t, "//stock[buy/val() > 380]/code").unwrap().len(), 1);
        assert_eq!(oracle_eval(&t, "/wrong/client").unwrap().len(), 0);
        // `//clientele` must select the root element itself.
        assert_eq!(oracle_eval(&t, "//clientele").unwrap(), vec![t.root()]);
    }

    #[test]
    fn oracle_agrees_with_centralized_on_a_query_battery() {
        let t = sample();
        for q in [
            "client/name",
            "client/broker/name",
            "//name",
            "//market/name",
            "/clientele//stock/code",
            "client[country/text()='US']/broker[market/name/text()='NASDAQ']/name",
            "client[not(country/text()='US')]/name",
            "//stock[qt > 80]/code",
            "//stock[buy/val() >= 374 and qt < 100]/code",
            "client[broker[market/name/text()='TSE']]/name",
            "*/*/name",
            ".[//code/text()='GOOG']",
            "client[country/text()='US' or country/text()='Canada']/name",
            "//*[code/text()='GOOG']/buy",
            "nonexistent/path",
            "//clientele/client/name",
            "client//name",
        ] {
            let oracle = oracle_eval(&t, q).unwrap();
            let fast = centralized::evaluate(&t, q).unwrap();
            assert_eq!(oracle, fast.answers, "disagreement on query {q}");
        }
    }

    fn attributed() -> XmlTree {
        TreeBuilder::new("site")
            .open("people")
            .open("person")
            .attr("id", "p1")
            .attr("age", "31")
            .leaf("name", "Anna")
            .leaf("name", "Annie")
            .close()
            .open("person")
            .attr("id", "p2")
            .leaf("name", "Lisa")
            .close()
            .open("person")
            .leaf("name", "Kim")
            .close()
            .close()
            .open("items")
            .open("item")
            .attr("price", "$12.50")
            .leaf("name", "pen")
            .close()
            .open("item")
            .attr("price", "7")
            .leaf("name", "ink")
            .close()
            .close()
            .build()
    }

    #[test]
    fn oracle_agrees_with_centralized_on_widened_constructs() {
        let t = attributed();
        for q in [
            // Attribute steps and qualifiers.
            "people/person[@id]/name",
            "people/person/@id",
            "//person[@id = \"p2\"]/name",
            "//item[@price > 10]/name",
            "//person[@age >= 31 and @id]/name",
            "//person[not(@id)]/name",
            ".[//person/@id]",
            "people[person/@id = \"p1\"]//name",
            // Positional predicates.
            "people/person[1]/name",
            "people/person[2]/name",
            "people/person[last()]/name",
            "people/person[1]/name[last()]",
            "people/person[4]/name",
            "//person[2]",
            "/site[1]/people/person[1][@id]/name",
            "people/*[2]/name",
            "people/person[name[2]]/name[1]",
            ".[people/person[3]]",
            "people/person[1][last()]",
            // Numeric text() comparisons and explicit axes.
            "//person[@age]/name[text() = \"Anna\"]",
            "descendant-or-self::person/name[1]",
            "people/child::person[2]/attribute::id",
            "site/people",
        ] {
            let oracle = oracle_eval(&t, q).unwrap();
            let fast = centralized::evaluate(&t, q).unwrap();
            assert_eq!(oracle, fast.answers, "disagreement on query {q}");
        }
        // Spot-check a few answers to anchor the semantics, not just the
        // agreement between the two implementations.
        let first = oracle_eval(&t, "people/person[1]/name[last()]").unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(t.text_of(first[0]), Some("Annie".into()));
        assert_eq!(oracle_eval(&t, "people/person[last()]/name").unwrap().len(), 1);
        assert_eq!(oracle_eval(&t, "//item[@price > 10]/name").unwrap().len(), 1);
        assert_eq!(oracle_eval(&t, "people/person[@id]/name").unwrap().len(), 3);
    }

    #[test]
    fn qualifier_oracle_checks_boolean_queries() {
        let t = sample();
        let q = crate::parse(".[//stock/code/text()='GOOG']").unwrap();
        let norm = normalize(&q);
        match &norm.path.items[0] {
            NormItem::Qualifier(qual) => {
                assert!(oracle_eval_qualifier(&t, qual, t.root()));
                let clients = t.find_all("client");
                assert!(oracle_eval_qualifier(&t, qual, clients[0]));
                let names = t.find_all("name");
                assert!(!oracle_eval_qualifier(&t, qual, names[0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn path_oracle_returns_reachable_nodes() {
        let t = sample();
        let q = crate::parse("broker/market/name").unwrap();
        let norm = normalize(&q);
        let clients = t.find_all("client");
        let from_first = oracle_eval_path_at(&t, &norm.path, clients[0]);
        assert_eq!(from_first.len(), 1);
        assert_eq!(t.text_of(from_first[0]), Some("NASDAQ".into()));
    }

    #[test]
    fn numeric_matcher_handles_dollar_and_garbage() {
        assert!(numeric_matches("$374", CmpOp::Gt, 300.0));
        assert!(numeric_matches(" 40 ", CmpOp::Eq, 40.0));
        assert!(!numeric_matches("abc", CmpOp::Eq, 0.0));
        assert!(!numeric_matches("", CmpOp::Ge, 0.0));
    }
}
