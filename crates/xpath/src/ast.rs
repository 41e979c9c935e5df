//! Surface abstract syntax for the XPath fragment **X** of §2.2 of the paper:
//!
//! ```text
//! Q := ε | A | * | Q//Q | Q/Q | Q[q]
//! q := Q | q/text() = str | q/val() op num | ¬q | q ∧ q | q ∨ q
//! ```
//!
//! The surface AST mirrors the grammar directly; the normal form used by the
//! evaluation algorithms lives in [`crate::normalize`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Arithmetic comparison operators allowed in `val() op num` qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` (the paper writes `≠`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two numbers.
    pub fn apply(self, left: f64, right: f64) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }

    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A path expression `Q` of the grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PathExpr {
    /// `ε` — the empty path (self). Written `.` in the concrete syntax.
    Empty,
    /// A label test `A`.
    Label(String),
    /// The wildcard `*`.
    Wildcard,
    /// `Q/Q` — child composition.
    Child(Box<PathExpr>, Box<PathExpr>),
    /// `Q//Q` — descendant-or-self composition.
    Descendant(Box<PathExpr>, Box<PathExpr>),
    /// `Q[q]` — qualification.
    Qualified(Box<PathExpr>, Box<Qualifier>),
}

/// A positional predicate `[n]` / `[last()]` — a widening beyond the
/// paper's fragment X. `t[k]` holds at a node `v` iff `v` is the `k`-th
/// (1-based) child among its parent's children matching the step's node test
/// `t`; `[last()]` selects the last such child. Counting is by node test
/// only — independent of the step's other predicates and of predicate order
/// (a documented deviation from full XPath).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PosPred {
    /// `[n]` — the n-th matching sibling (1-based).
    Index(u32),
    /// `[last()]` — the last matching sibling.
    Last,
}

impl fmt::Display for PosPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosPred::Index(n) => write!(f, "{n}"),
            PosPred::Last => write!(f, "last()"),
        }
    }
}

/// An atomic test at the node a qualifier path reaches — the paper's
/// `text() = str` and `val() op num`, widened with attribute tests. Both the
/// surface AST ([`Qualifier::Test`]) and the normal form
/// ([`NormQual::Atom`](crate::NormQual::Atom)) carry it unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Atom {
    /// `text() = "str"`: some text child carries exactly this string.
    Text(String),
    /// `val() op num`: some text child parses as a number satisfying the
    /// comparison.
    Val(CmpOp, f64),
    /// `@attr`: the node carries the attribute.
    Attr(String),
    /// `@attr = "str"`: the attribute exists with exactly this value.
    AttrText(String, String),
    /// `@attr op num`: the attribute exists and parses as a number
    /// satisfying the comparison.
    AttrVal(String, CmpOp, f64),
}

/// A qualifier `q` of the grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Qualifier {
    /// Existential path test: `[Q]` holds at `v` iff some node is reachable
    /// from `v` via `Q`.
    Path(PathExpr),
    /// `[Q/atom]`: some node reachable via `Q` passes the atomic test
    /// (`[atom]` when `Q` is `ε`).
    Test(PathExpr, Atom),
    /// A positional predicate on the step it qualifies (see [`PosPred`]).
    Position(PosPred),
    /// `¬ q` (written `not(q)` or `!q` in the concrete syntax).
    Not(Box<Qualifier>),
    /// `q ∧ q` (written `and` or `&&`).
    And(Box<Qualifier>, Box<Qualifier>),
    /// `q ∨ q` (written `or` or `||`).
    Or(Box<Qualifier>, Box<Qualifier>),
}

/// A complete query: a path expression plus whether it is *absolute*.
///
/// The paper evaluates queries "at the root `r` of `T`". Following standard
/// XPath, a query written with a leading `/` or `//` is anchored at an
/// implicit document node *above* the root element (so `/sites/site` selects
/// `site` children of the `sites` root element), whereas a relative query
/// such as `client/name` starts its first step at the children of the
/// context node. Both forms appear in the paper (the clientele examples are
/// relative, the XMark experiment queries are absolute).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Did the query start with `/` or `//`?
    pub absolute: bool,
    /// The path expression.
    pub path: PathExpr,
}

impl PathExpr {
    /// `a/b` composition helper.
    pub fn child(self, next: PathExpr) -> PathExpr {
        PathExpr::Child(Box::new(self), Box::new(next))
    }

    /// `a//b` composition helper.
    pub fn descendant(self, next: PathExpr) -> PathExpr {
        PathExpr::Descendant(Box::new(self), Box::new(next))
    }

    /// `a[q]` helper.
    pub fn qualified(self, q: Qualifier) -> PathExpr {
        PathExpr::Qualified(Box::new(self), Box::new(q))
    }

    /// A label step.
    pub fn label(name: impl Into<String>) -> PathExpr {
        PathExpr::Label(name.into())
    }

    /// Number of AST nodes — `|Q|` in the paper's complexity bounds.
    pub fn size(&self) -> usize {
        match self {
            PathExpr::Empty | PathExpr::Label(_) | PathExpr::Wildcard => 1,
            PathExpr::Child(a, b) | PathExpr::Descendant(a, b) => 1 + a.size() + b.size(),
            PathExpr::Qualified(p, q) => 1 + p.size() + q.size(),
        }
    }
}

impl Qualifier {
    /// Conjunction helper.
    pub fn and(self, other: Qualifier) -> Qualifier {
        Qualifier::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Qualifier) -> Qualifier {
        Qualifier::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> Qualifier {
        Qualifier::Not(Box::new(self))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Qualifier::Path(p) => 1 + p.size(),
            Qualifier::Test(p, _) => 2 + p.size(),
            Qualifier::Position(_) => 1,
            Qualifier::Not(q) => 1 + q.size(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl Query {
    /// Total size `|Q|` of the query.
    pub fn size(&self) -> usize {
        self.path.size()
    }
}

// ---------------------------------------------------------------------------
// Display: renders a query back to concrete syntax (ASCII operators).
// ---------------------------------------------------------------------------

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathExpr::Empty => write!(f, "."),
            PathExpr::Label(l) => write!(f, "{l}"),
            PathExpr::Wildcard => write!(f, "*"),
            PathExpr::Child(a, b) => write!(f, "{a}/{b}"),
            PathExpr::Descendant(a, b) => write!(f, "{a}//{b}"),
            PathExpr::Qualified(p, q) => write!(f, "{p}[{q}]"),
        }
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qualifier::Path(p) => write!(f, "{p}"),
            Qualifier::Test(PathExpr::Empty, atom) => write!(f, "{atom}"),
            Qualifier::Test(p, atom) => write!(f, "{p}/{atom}"),
            Qualifier::Position(p) => write!(f, "{p}"),
            Qualifier::Not(q) => write!(f, "not({q})"),
            Qualifier::And(a, b) => write!(f, "({a} and {b})"),
            Qualifier::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Text(s) => write!(f, "text() = \"{s}\""),
            Atom::Val(op, n) => write!(f, "val() {op} {n}"),
            Atom::Attr(a) => write!(f, "@{a}"),
            Atom::AttrText(a, s) => write!(f, "@{a} = \"{s}\""),
            Atom::AttrVal(a, op, n) => write!(f, "@{a} {op} {n}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered = self.path.to_string();
        if self.absolute {
            // An absolute query with a leading `//` is parsed as
            // `Descendant(Empty, …)` which renders as `.//…`; strip the dot
            // so the concrete syntax round-trips as `//…`. Other absolute
            // queries get a plain `/` prefix.
            if let Some(stripped) = rendered.strip_prefix("./") {
                write!(f, "/{stripped}")
            } else {
                write!(f, "/{rendered}")
            }
        } else {
            write!(f, "{rendered}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_apply_covers_all_operators() {
        assert!(CmpOp::Eq.apply(2.0, 2.0));
        assert!(!CmpOp::Eq.apply(2.0, 3.0));
        assert!(CmpOp::Ne.apply(2.0, 3.0));
        assert!(CmpOp::Lt.apply(2.0, 3.0));
        assert!(CmpOp::Le.apply(3.0, 3.0));
        assert!(CmpOp::Gt.apply(21.0, 20.0));
        assert!(CmpOp::Ge.apply(20.0, 20.0));
        assert_eq!(CmpOp::Ge.symbol(), ">=");
    }

    #[test]
    fn size_counts_ast_nodes() {
        // //broker[//stock/code/text()="goog"]/name
        let stock_path =
            PathExpr::Empty.descendant(PathExpr::label("stock")).child(PathExpr::label("code"));
        let qual = Qualifier::Test(stock_path, Atom::Text("goog".into()));
        let q = PathExpr::Empty
            .descendant(PathExpr::label("broker"))
            .qualified(qual)
            .child(PathExpr::label("name"));
        assert!(q.size() > 8);
    }

    #[test]
    fn helpers_build_expected_shapes() {
        let p = PathExpr::label("client").child(PathExpr::label("name"));
        assert_eq!(
            p,
            PathExpr::Child(
                Box::new(PathExpr::Label("client".into())),
                Box::new(PathExpr::Label("name".into()))
            )
        );
        let q = Qualifier::Path(PathExpr::label("a")).and(Qualifier::Path(PathExpr::label("b")));
        assert!(matches!(q, Qualifier::And(_, _)));
        let n = Qualifier::Path(PathExpr::label("a")).negate();
        assert!(matches!(n, Qualifier::Not(_)));
    }

    #[test]
    fn display_renders_readable_syntax() {
        let q = Query {
            absolute: false,
            path: PathExpr::label("client")
                .qualified(Qualifier::Test(PathExpr::label("country"), Atom::Text("US".into())))
                .child(PathExpr::label("name")),
        };
        let s = q.to_string();
        assert!(s.contains("client["));
        assert!(s.contains("country/text() = \"US\""));
        assert!(s.ends_with("/name"));
    }
}
