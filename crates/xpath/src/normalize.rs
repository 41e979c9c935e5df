//! Normalization of X queries into the paper's normal form (§2.2):
//!
//! every query becomes a sequence `β₁/…/βₙ` where each `βᵢ` is a label `A`,
//! the wildcard `∗`, the descendant-or-self marker `//`, or a qualifier item
//! `ε[q]`, and consecutive `ε[q]` items are merged into a single one whose
//! qualifier is the conjunction of the originals.
//!
//! Qualifiers are normalized the same way, with one rule for every atomic
//! test: `Q/text() = "str"` becomes `normalize(Q)/ε[text() = "str"]`, exactly
//! as in the paper's `normalize(·)` rules, and `val()` and the attribute
//! tests of [`Atom`] follow it.

use crate::ast::{Atom, PathExpr, PosPred, Qualifier, Query};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One item `βᵢ` of a normalized path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NormItem {
    /// A label test `A`.
    Label(String),
    /// The wildcard `∗`.
    Wildcard,
    /// The descendant-or-self marker `//`.
    DescendantOrSelf,
    /// A qualifier item `ε[q]`.
    Qualifier(NormQual),
    /// A positional predicate on the step item preceding it. Normalization
    /// canonicalizes predicate order: position items always come directly
    /// after their step (before any qualifier items of the same step), which
    /// is sound because positional counting is independent of the step's
    /// other predicates.
    Position(PosPred),
}

/// A normalized path: the sequence of items.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NormPath {
    /// The items `β₁ … βₙ`.
    pub items: Vec<NormItem>,
}

/// A normalized qualifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NormQual {
    /// Existence of a downward path from the context node. Its atomic
    /// tests appear as trailing `ε[…]` items of this path, mirroring the
    /// paper's normal form.
    Path(NormPath),
    /// An atomic test at the context node.
    Atom(Atom),
    /// Negation.
    Not(Box<NormQual>),
    /// Conjunction (flattened).
    And(Vec<NormQual>),
    /// Disjunction (flattened).
    Or(Vec<NormQual>),
}

/// A normalized query: the normalized path plus the absolute/relative flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormQuery {
    /// Was the query absolute (leading `/` or `//`)?
    pub absolute: bool,
    /// The normalized path.
    pub path: NormPath,
}

/// Normalize a parsed query. Runs in time linear in `|Q|`.
pub fn normalize(query: &Query) -> NormQuery {
    let mut items = Vec::new();
    normalize_path(&query.path, &mut items);
    let items = merge_qualifier_runs(items);
    NormQuery { absolute: query.absolute, path: NormPath { items } }
}

fn normalize_path(path: &PathExpr, out: &mut Vec<NormItem>) {
    match path {
        PathExpr::Empty => {
            // ε contributes no item: it is the identity of `/`.
        }
        PathExpr::Label(l) => out.push(NormItem::Label(l.clone())),
        PathExpr::Wildcard => out.push(NormItem::Wildcard),
        PathExpr::Child(a, b) => {
            normalize_path(a, out);
            normalize_path(b, out);
        }
        PathExpr::Descendant(a, b) => {
            normalize_path(a, out);
            out.push(NormItem::DescendantOrSelf);
            normalize_path(b, out);
        }
        PathExpr::Qualified(p, q) => {
            normalize_path(p, out);
            match &**q {
                Qualifier::Position(pred) => {
                    // Canonical order: the position item goes directly after
                    // its step, in front of any qualifier items already
                    // attached to it (`a[q][2]` and `a[2][q]` normalize
                    // identically; qualifier runs can then still merge).
                    let mut at = out.len();
                    while at > 0 && matches!(out[at - 1], NormItem::Qualifier(_)) {
                        at -= 1;
                    }
                    out.insert(at, NormItem::Position(*pred));
                }
                other => out.push(NormItem::Qualifier(norm_qual(other))),
            }
        }
    }
}

fn norm_qual(q: &Qualifier) -> NormQual {
    match q {
        Qualifier::Path(p) => norm_test(p, None),
        Qualifier::Test(p, atom) => norm_test(p, Some(atom)),
        Qualifier::Position(_) => {
            // A bare position used as a Boolean qualifier has no context to
            // count in; the parser never produces this shape (positions are
            // attached to steps), so treat it as trivially true.
            debug_assert!(false, "Qualifier::Position outside a step");
            NormQual::And(Vec::new())
        }
        Qualifier::Not(inner) => NormQual::Not(Box::new(norm_qual(inner))),
        Qualifier::And(a, b) => {
            let mut parts = Vec::new();
            flatten_and(a, &mut parts);
            flatten_and(b, &mut parts);
            NormQual::And(parts)
        }
        Qualifier::Or(a, b) => {
            let mut parts = Vec::new();
            flatten_or(a, &mut parts);
            flatten_or(b, &mut parts);
            NormQual::Or(parts)
        }
    }
}

/// `[Q]` or `[Q/atom]`: the paper's rule `Q/atom` → `normalize(Q)/ε[atom]`.
/// With `Q = ε` only the atom is left, and `[.]` is trivially true.
fn norm_test(path: &PathExpr, atom: Option<&Atom>) -> NormQual {
    let mut items = Vec::new();
    normalize_path(path, &mut items);
    match (items.is_empty(), atom) {
        (true, None) => NormQual::And(Vec::new()),
        (true, Some(atom)) => NormQual::Atom(atom.clone()),
        (false, atom) => {
            items.extend(atom.map(|a| NormItem::Qualifier(NormQual::Atom(a.clone()))));
            NormQual::Path(NormPath { items: merge_qualifier_runs(items) })
        }
    }
}

fn flatten_and(q: &Qualifier, out: &mut Vec<NormQual>) {
    match q {
        Qualifier::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(norm_qual(other)),
    }
}

fn flatten_or(q: &Qualifier, out: &mut Vec<NormQual>) {
    match q {
        Qualifier::Or(a, b) => {
            flatten_or(a, out);
            flatten_or(b, out);
        }
        other => out.push(norm_qual(other)),
    }
}

/// The paper's last normalization rule: a run `ε[q₁]/…/ε[qₖ]` collapses into
/// a single `ε[q₁ ∧ … ∧ qₖ]`.
fn merge_qualifier_runs(items: Vec<NormItem>) -> Vec<NormItem> {
    let mut out: Vec<NormItem> = Vec::with_capacity(items.len());
    for item in items {
        match (out.last_mut(), item) {
            (Some(NormItem::Qualifier(existing)), NormItem::Qualifier(new)) => {
                let merged = match std::mem::replace(existing, NormQual::And(Vec::new())) {
                    NormQual::And(mut parts) => {
                        match new {
                            NormQual::And(more) => parts.extend(more),
                            other => parts.push(other),
                        }
                        NormQual::And(parts)
                    }
                    prev => {
                        let mut parts = vec![prev];
                        match new {
                            NormQual::And(more) => parts.extend(more),
                            other => parts.push(other),
                        }
                        NormQual::And(parts)
                    }
                };
                *existing = merged;
            }
            (_, item) => out.push(item),
        }
    }
    out
}

impl fmt::Display for NormItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormItem::Label(l) => write!(f, "{l}"),
            NormItem::Wildcard => write!(f, "*"),
            NormItem::DescendantOrSelf => write!(f, "//"),
            NormItem::Qualifier(q) => write!(f, "e[{q}]"),
            NormItem::Position(p) => write!(f, "pos({p})"),
        }
    }
}

impl fmt::Display for NormPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for item in &self.items {
            if !first && !matches!(item, NormItem::DescendantOrSelf) {
                write!(f, "/")?;
            }
            // `//` already carries its separating role.
            if matches!(item, NormItem::DescendantOrSelf) {
                write!(f, "//")?;
                first = true;
                continue;
            }
            write!(f, "{item}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Display for NormQual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormQual::Path(p) => write!(f, "{p}"),
            NormQual::Atom(atom) => write!(f, "{atom}"),
            NormQual::Not(q) => write!(f, "not({q})"),
            NormQual::And(qs) => {
                if qs.is_empty() {
                    return write!(f, "true");
                }
                write!(f, "(")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            NormQual::Or(qs) => {
                write!(f, "(")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for NormQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let leading_descendant =
            matches!(self.path.items.first(), Some(NormItem::DescendantOrSelf));
        if self.absolute && !leading_descendant {
            write!(f, "/")?;
        }
        write!(f, "{}", self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, CmpOp};

    fn norm(text: &str) -> NormQuery {
        normalize(&parse(text).unwrap())
    }

    #[test]
    fn example_2_1_normal_form() {
        // normalize(Q) = client/ε[country/ε[text()="us"]]/broker/
        //                ε[market/name/ε[text()="nasdaq"]]/name
        let n =
            norm("client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name");
        let items = &n.path.items;
        assert_eq!(items.len(), 5);
        assert_eq!(items[0], NormItem::Label("client".into()));
        assert!(matches!(items[1], NormItem::Qualifier(_)));
        assert_eq!(items[2], NormItem::Label("broker".into()));
        assert!(matches!(items[3], NormItem::Qualifier(_)));
        assert_eq!(items[4], NormItem::Label("name".into()));

        // The first qualifier is country/ε[text()="US"].
        if let NormItem::Qualifier(NormQual::Path(p)) = &items[1] {
            assert_eq!(p.items.len(), 2);
            assert_eq!(p.items[0], NormItem::Label("country".into()));
            assert!(
                matches!(&p.items[1], NormItem::Qualifier(NormQual::Atom(Atom::Text(s))) if s == "US")
            );
        } else {
            panic!("expected a path qualifier, got {:?}", items[1]);
        }
    }

    #[test]
    fn consecutive_qualifiers_merge() {
        let n = norm("client[a][b]/name");
        let items = &n.path.items;
        assert_eq!(items.len(), 3);
        match &items[1] {
            NormItem::Qualifier(NormQual::And(parts)) => assert_eq!(parts.len(), 2),
            other => panic!("expected merged qualifier, got {other:?}"),
        }
    }

    #[test]
    fn qualifier_on_dot_merges_with_preceding_step_qualifier() {
        // a[x]/.[y] has the ε collapse away leaving a run of two qualifiers.
        let n = norm("a[x]/.[y]");
        assert_eq!(n.path.items.len(), 2);
        match &n.path.items[1] {
            NormItem::Qualifier(NormQual::And(parts)) => assert_eq!(parts.len(), 2),
            other => panic!("expected merged qualifier, got {other:?}"),
        }
    }

    #[test]
    fn descendant_axis_becomes_separate_item() {
        let n = norm("/sites/site/open_auctions//annotation");
        let kinds: Vec<String> = n.path.items.iter().map(|i| i.to_string()).collect();
        assert_eq!(kinds, vec!["sites", "site", "open_auctions", "//", "annotation"]);
        assert!(!n.path.items.iter().any(|i| matches!(i, NormItem::Qualifier(_))));
        assert!(n.absolute);
    }

    #[test]
    fn leading_descendant_in_absolute_query() {
        let n = norm("//broker/name");
        let kinds: Vec<String> = n.path.items.iter().map(|i| i.to_string()).collect();
        assert_eq!(kinds, vec!["//", "broker", "name"]);
    }

    #[test]
    fn text_comparison_becomes_trailing_epsilon_item() {
        let n = norm("x[code/text() = \"GOOG\"]");
        match &n.path.items[1] {
            NormItem::Qualifier(NormQual::Path(p)) => {
                assert_eq!(p.items.len(), 2);
                assert!(
                    matches!(&p.items[1], NormItem::Qualifier(NormQual::Atom(Atom::Text(s))) if s == "GOOG")
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn val_comparison_on_context_node() {
        let n = norm("person[profile/age > 20]");
        match &n.path.items[1] {
            NormItem::Qualifier(NormQual::Path(p)) => match p.items.last().unwrap() {
                NormItem::Qualifier(NormQual::Atom(Atom::Val(op, num))) => {
                    assert_eq!(*op, CmpOp::Gt);
                    assert_eq!(*num, 20.0);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_connectives_flatten() {
        let n = norm("x[a and b and c or d]");
        match &n.path.items[1] {
            NormItem::Qualifier(NormQual::Or(parts)) => {
                assert_eq!(parts.len(), 2);
                match &parts[0] {
                    NormQual::And(ps) => assert_eq!(ps.len(), 3),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_is_preserved() {
        let n = norm(
            "//broker[//stock/code/text()=\"goog\" and not(//stock/code/text()=\"yhoo\")]/name",
        );
        match &n.path.items[2] {
            NormItem::Qualifier(NormQual::And(parts)) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], NormQual::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dot_only_query_normalizes_to_empty_path() {
        let n = norm(".");
        assert!(n.path.items.is_empty());
        let n = norm(".[a]");
        assert_eq!(n.path.items.len(), 1);
    }

    #[test]
    fn display_of_normal_form_is_informative() {
        let n = norm("client[country/text() = \"US\"]/name");
        let s = n.to_string();
        assert!(s.contains("client"));
        assert!(s.contains("e["));
        assert!(s.contains("text() = \"US\""));
        let n = norm("//a/b");
        assert_eq!(n.to_string(), "//a/b");
    }

    #[test]
    fn text_is_on_context_via_dot() {
        let n = norm("code[text() = 'GOOG']");
        match &n.path.items[1] {
            NormItem::Qualifier(NormQual::Atom(Atom::Text(s))) => assert_eq!(s, "GOOG"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
