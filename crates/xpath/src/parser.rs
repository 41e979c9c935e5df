//! Recursive-descent parser for the class X of XPath queries.
//!
//! Accepted concrete syntax (ASCII spellings of the paper's notation):
//!
//! ```text
//! query      := path
//! path       := ('/' | '//')? (step ('/' | '//'))* (step | ending)
//! step       := axis? ('.' | NAME | '*') ('[' (position | qualifier) ']')*
//! axis       := ('child' | 'descendant-or-self' | 'attribute') '::'
//! ending     := ('@' | 'attribute::') NAME | 'text' '(' ')' | 'val' '(' ')'
//! position   := NUMBER | 'last' '(' ')'
//! qualifier  := and (('or' | '||' | '∨') and)*
//! and        := unary (('and' | '&&' | '∧') unary)*
//! unary      := ('not' | '!' | '¬') unary | '(' qualifier ')' | comparison
//! comparison := path (CMP (STRING | NUMBER))?
//! ```
//!
//! One `path` production reads both the selection path and every qualifier
//! path. A leading `/` or `//` makes the query absolute; inside a qualifier
//! `/p` and `p` both start at the context node's children. The endings are
//! the atomic tests of [`Atom`]: `text()` and `val()` end qualifier paths
//! only and must be compared, while the selection path may end in `@a`
//! (not after `//`), which reads as the qualifier `[@a]` on its last step.
//! The shorthands `path = "str"` and `path > 20` used by the paper's
//! experiment queries (Fig. 7) are sugar for `path/text() = "str"` and
//! `path/val() > 20`.
//!
//! Two bounds keep every recursion over a query shallow: at most
//! [`MAX_QUERY_DEPTH`] nested `[`, `(` and `not`, and at most
//! [`MAX_QUERY_SIZE`] tokens (`|Q|`). Past either, [`parse`] fails with
//! [`XPathError::QueryTooLarge`].

use crate::ast::{Atom, CmpOp, PathExpr, PosPred, Qualifier, Query};
use crate::error::{XPathError, XPathResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// The deepest nesting of `[`, `(` and `not` a query may have.
pub const MAX_QUERY_DEPTH: usize = 64;

/// The most tokens a query may have: its size `|Q|`.
pub const MAX_QUERY_SIZE: usize = 1024;

/// Parse a query from its concrete syntax.
pub fn parse(input: &str) -> XPathResult<Query> {
    let tokens = tokenize(input)?;
    // `tokens` ends with `Eof`; a real token at index MAX_QUERY_SIZE is one
    // past the bound.
    if let Some(past) = tokens.get(MAX_QUERY_SIZE).filter(|t| t.kind != TokenKind::Eof) {
        return Err(XPathError::QueryTooLarge { offset: past.offset });
    }
    let mut parser = ParserState { tokens, pos: 0, depth: 0 };
    if parser.eat(&TokenKind::Eof) {
        return Err(XPathError::EmptyQuery);
    }
    let absolute = matches!(parser.peek(), TokenKind::Slash | TokenKind::DoubleSlash);
    let (path, _) = parser.parse_path(false)?;
    parser.expect(&TokenKind::Eof, "end of query")?;
    Ok(Query { absolute, path })
}

struct ParserState {
    tokens: Vec<Token>,
    pos: usize,
    /// The `[`, `(` and `not` the parser is inside of.
    depth: usize,
}

/// The test that ends a qualifier path.
enum Ending {
    Text,
    Val,
    Attr(String),
}

impl ParserState {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume `kind`, or fail saying what was expected.
    fn expect(&mut self, kind: &TokenKind, expected: &str) -> XPathResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn unexpected(&self, expected: &str) -> XPathError {
        XPathError::UnexpectedToken {
            offset: self.peek_offset(),
            found: format!("{:?}", self.peek()),
            expected: expected.to_string(),
        }
    }

    /// Enter one more `[`, `(` or `not`, the one at `offset`; [`Self::leave`]
    /// closes it.
    fn enter(&mut self, offset: usize) -> XPathResult<()> {
        self.depth += 1;
        if self.depth > MAX_QUERY_DEPTH {
            return Err(XPathError::QueryTooLarge { offset });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn lookahead_is_call(&self) -> bool {
        matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(TokenKind::LParen))
    }

    /// Read a path: the selection path (`in_qualifier` false) or a qualifier
    /// path, whose trailing `text()` / `val()` / `@a` test comes back beside
    /// the path that leads to it. The selection path's `@a` ending becomes
    /// the qualifier `[@a]` on its last step — `person/@id` parses as
    /// `person[@id]` — so the selection stays node-valued.
    fn parse_path(&mut self, in_qualifier: bool) -> XPathResult<(PathExpr, Option<Ending>)> {
        let mut descendant = if self.eat(&TokenKind::DoubleSlash) {
            true
        } else {
            let _ = self.eat(&TokenKind::Slash);
            false
        };
        let mut acc: Option<PathExpr> = None;
        loop {
            let attribute_axis = self.parse_axis_prefix(&mut descendant)?;
            let offset = self.peek_offset();
            if attribute_axis || self.eat(&TokenKind::At) {
                if !in_qualifier && descendant {
                    return Err(XPathError::UnexpectedToken {
                        offset,
                        found: "an attribute step after '//'".to_string(),
                        expected: "a child-axis attribute step ('/@attr')".to_string(),
                    });
                }
                let TokenKind::Name(name) = self.peek().clone() else {
                    return Err(XPathError::ExpectedAttributeName { offset });
                };
                self.bump();
                if in_qualifier {
                    return Ok((ending_path(acc, descendant, true), Some(Ending::Attr(name))));
                }
                if matches!(
                    self.peek(),
                    TokenKind::Slash | TokenKind::DoubleSlash | TokenKind::LBracket
                ) {
                    return Err(XPathError::AttributeStepNotLast { offset: self.peek_offset() });
                }
                let prefix = acc.unwrap_or(PathExpr::Empty);
                return Ok((
                    prefix.qualified(Qualifier::Test(PathExpr::Empty, Atom::Attr(name))),
                    None,
                ));
            }
            if let TokenKind::Name(name) = self.peek() {
                let ending = match name.as_str() {
                    "text" => Some(Ending::Text),
                    "val" => Some(Ending::Val),
                    _ => None,
                };
                if let Some(ending) = ending.filter(|_| self.lookahead_is_call()) {
                    if !in_qualifier {
                        return Err(XPathError::TestOutsideQualifier { offset });
                    }
                    self.bump(); // name
                    self.bump(); // (
                    self.expect(&TokenKind::RParen, "')' after text(/val(")?;
                    return Ok((ending_path(acc, descendant, false), Some(ending)));
                }
            }
            let step = self.parse_step()?;
            acc = Some(match (acc, descendant) {
                (None, false) => step,
                (None, true) => PathExpr::Empty.descendant(step),
                (Some(prev), false) => prev.child(step),
                (Some(prev), true) => prev.descendant(step),
            });
            descendant = match self.peek() {
                TokenKind::Slash => false,
                TokenKind::DoubleSlash => true,
                _ => return Ok((acc.expect("a step was read"), None)),
            };
            self.bump();
        }
    }

    /// Consume an explicit `axis::` prefix if the next tokens are a name
    /// followed by `::`: `descendant-or-self::` sets `descendant`, and the
    /// result says whether it was `attribute::`. Only these two and `child`
    /// exist; anything else is a hard error.
    fn parse_axis_prefix(&mut self, descendant: &mut bool) -> XPathResult<bool> {
        let TokenKind::Name(name) = self.peek().clone() else { return Ok(false) };
        if !matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(TokenKind::DoubleColon)) {
            return Ok(false);
        }
        let offset = self.peek_offset();
        self.bump(); // the axis name
        self.bump(); // `::`
        match name.as_str() {
            "child" => Ok(false),
            "descendant-or-self" => {
                *descendant = true;
                Ok(false)
            }
            "attribute" => Ok(true),
            _ => Err(XPathError::UnknownAxis { offset, axis: name }),
        }
    }

    /// A positional predicate right after `[`: a number or `last()`.
    /// Returns `None` (consuming nothing) when the bracket holds an ordinary
    /// qualifier.
    fn try_parse_position(&mut self) -> XPathResult<Option<PosPred>> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                let offset = self.peek_offset();
                self.bump();
                if n.fract() != 0.0 || n < 1.0 || n > u32::MAX as f64 {
                    return Err(XPathError::InvalidPosition { offset, text: format!("{n}") });
                }
                Ok(Some(PosPred::Index(n as u32)))
            }
            TokenKind::Name(name) if name == "last" && self.lookahead_is_call() => {
                self.bump(); // last
                self.bump(); // (
                self.expect(&TokenKind::RParen, "')' after last(")?;
                Ok(Some(PosPred::Last))
            }
            _ => Ok(None),
        }
    }

    /// A single step: `.`, a name, or `*`, optionally followed by predicates
    /// (qualifiers or positional predicates).
    fn parse_step(&mut self) -> XPathResult<PathExpr> {
        let offset = self.peek_offset();
        let mut acc = match self.bump() {
            TokenKind::Dot => PathExpr::Empty,
            TokenKind::Star => PathExpr::Wildcard,
            TokenKind::Name(name) => PathExpr::Label(name),
            other => {
                return Err(XPathError::UnexpectedToken {
                    offset,
                    found: format!("{other:?}"),
                    expected: "a step (name, '*' or '.')".to_string(),
                });
            }
        };
        let base_is_step = acc != PathExpr::Empty;
        while matches!(self.peek(), TokenKind::LBracket) {
            self.enter(self.peek_offset())?;
            self.bump();
            let predicate = if let Some(pred) = self.try_parse_position()? {
                if !base_is_step {
                    return Err(XPathError::PositionWithoutStep);
                }
                self.expect(&TokenKind::RBracket, "']' closing the position")?;
                Qualifier::Position(pred)
            } else {
                let q = self.parse_qualifier()?;
                self.expect(&TokenKind::RBracket, "']' closing the qualifier")?;
                q
            };
            self.leave();
            acc = acc.qualified(predicate);
        }
        Ok(acc)
    }

    fn parse_qualifier(&mut self) -> XPathResult<Qualifier> {
        let mut left = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            left = left.or(self.parse_and()?);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> XPathResult<Qualifier> {
        let mut left = self.parse_unary()?;
        while self.eat(&TokenKind::And) {
            left = left.and(self.parse_unary()?);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> XPathResult<Qualifier> {
        let offset = self.peek_offset();
        let q = match self.peek() {
            TokenKind::Not => {
                self.enter(offset)?;
                self.bump();
                // `not(...)` or prefix `!q` / `¬q`.
                if self.eat(&TokenKind::LParen) {
                    let inner = self.parse_qualifier()?;
                    self.expect(&TokenKind::RParen, "')' closing not(...)")?;
                    inner.negate()
                } else {
                    self.parse_unary()?.negate()
                }
            }
            TokenKind::LParen => {
                self.enter(offset)?;
                self.bump();
                let inner = self.parse_qualifier()?;
                self.expect(&TokenKind::RParen, "')'")?;
                inner
            }
            _ => return self.parse_comparison(),
        };
        self.leave();
        Ok(q)
    }

    /// A qualifier path, optionally compared against a string or a number.
    ///
    /// A comparison without an ending compares the path's text: `[p = "s"]`
    /// is `[p/text() = "s"]`, and `text() op num` (like `p op num`) desugars
    /// onto `val()`: `[price/text() > 20]` parses as `[price/val() > 20]`.
    /// String comparisons stay exact-match; `!=` negates `=`.
    fn parse_comparison(&mut self) -> XPathResult<Qualifier> {
        let (path, ending) = self.parse_path(true)?;
        let TokenKind::Cmp(op) = *self.peek() else {
            return match ending {
                None => Ok(Qualifier::Path(path)),
                Some(Ending::Attr(name)) => Ok(Qualifier::Test(path, Atom::Attr(name))),
                Some(_) => Err(self.unexpected("a comparison after text()/val()")),
            };
        };
        self.bump();
        let (atom, compared) = match (self.bump(), ending) {
            (TokenKind::Str(_), Some(Ending::Val)) => {
                return Err(XPathError::UnexpectedToken {
                    offset: self.peek_offset(),
                    found: "a string literal after val()".to_string(),
                    expected: "a number".to_string(),
                })
            }
            (TokenKind::Str(s), Some(Ending::Attr(name))) => (Atom::AttrText(name, s), "attribute"),
            (TokenKind::Str(s), _) => (Atom::Text(s), "text()"),
            (TokenKind::Number(n), Some(Ending::Attr(name))) => {
                return Ok(Qualifier::Test(path, Atom::AttrVal(name, op, n)))
            }
            (TokenKind::Number(n), _) => return Ok(Qualifier::Test(path, Atom::Val(op, n))),
            (other, _) => {
                return Err(XPathError::UnexpectedToken {
                    offset: self.peek_offset(),
                    found: format!("{other:?}"),
                    expected: "a string or numeric literal".to_string(),
                })
            }
        };
        let test = Qualifier::Test(path, atom);
        match op {
            CmpOp::Eq => Ok(test),
            CmpOp::Ne => Ok(test.negate()),
            _ => Err(XPathError::UnexpectedToken {
                offset: self.peek_offset(),
                found: "an ordering comparison against a string".to_string(),
                expected: format!("'=' or '!=' for {compared} comparisons"),
            }),
        }
    }
}

/// The path a qualifier path's ending applies to. After `//` the ending
/// descends to any element below: `[//@a]`, `[p//@a]` and `[//text() = s]`.
/// After a step, `text()` and `val()` drop the `//` — `[p//text() = s]`
/// tests `p`'s own text children.
fn ending_path(acc: Option<PathExpr>, descendant: bool, attribute: bool) -> PathExpr {
    let path = acc.unwrap_or(PathExpr::Empty);
    if descendant && (attribute || path == PathExpr::Empty) {
        path.descendant(PathExpr::Wildcard)
    } else {
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_q1() {
        let q = parse("/sites/site/people/person").unwrap();
        assert!(q.absolute);
        assert!(!q.to_string().contains('['));
        assert!(!q.to_string().contains("//"));
        assert_eq!(q.to_string(), "/sites/site/people/person");
    }

    #[test]
    fn parses_paper_query_q2_with_descendant() {
        let q = parse("/sites/site/open_auctions//annotation").unwrap();
        assert!(q.absolute);
        assert!(q.to_string().contains("//"));
        assert!(!q.to_string().contains('['));
    }

    #[test]
    fn parses_paper_query_q3_with_qualifiers() {
        let q = parse(
            "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
        )
        .unwrap();
        assert!(q.to_string().contains('['));
        assert!(!q.to_string().contains("//"));
        // The qualifier sits on `person`, the selection continues to creditcard.
        match &q.path {
            PathExpr::Child(prefix, last) => {
                assert_eq!(**last, PathExpr::Label("creditcard".into()));
                match &**prefix {
                    PathExpr::Child(_, qualified_person) => match &**qualified_person {
                        PathExpr::Qualified(person, _) => {
                            assert_eq!(**person, PathExpr::Label("person".into()));
                        }
                        other => panic!("unexpected shape {other:?}"),
                    },
                    other => panic!("unexpected shape {other:?}"),
                }
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn parses_paper_query_q4_with_descendant_and_qualifiers() {
        let q = parse(
            "/sites//people/person[/profile/age > 20 and /address/country=\"US\"]/creditcard",
        )
        .unwrap();
        assert!(q.to_string().contains('['));
        assert!(q.to_string().contains("//"));
    }

    #[test]
    fn parses_clientele_query_with_negation() {
        // Q1 of the introduction:
        // //broker[//stock/code/text()="goog" and not(//stock/code/text()="yhoo")]/name
        let q = parse(
            "//broker[//stock/code/text()=\"goog\" and not(//stock/code/text()=\"yhoo\")]/name",
        )
        .unwrap();
        assert!(q.absolute);
        assert!(q.to_string().contains('['));
        let rendered = q.to_string();
        assert!(rendered.starts_with("//broker["));
        assert!(rendered.contains("not("));
    }

    #[test]
    fn boolean_query_from_the_introduction() {
        // [//stock/code/text() = "goog"] — a Boolean query is written as a
        // qualifier on the empty path.
        let q = parse(".[//stock/code/text()=\"goog\"]").unwrap();
        assert!(!q.absolute);
        assert!(matches!(q.path, PathExpr::Qualified(_, _)));
    }

    #[test]
    fn example_2_1_query() {
        let q =
            parse("client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name")
                .unwrap();
        assert!(!q.absolute);
        assert!(q.to_string().contains('['));
        assert_eq!(
            q.to_string(),
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name"
        );
    }

    #[test]
    fn shorthand_comparisons_desugar_to_text_and_val() {
        let q = parse("person[address/country=\"US\"]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => {
                assert!(matches!(**qual, Qualifier::Test(_, Atom::Text(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = parse("person[profile/age >= 21]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => match &**qual {
                Qualifier::Test(_, Atom::Val(op, n)) => {
                    assert_eq!(*op, CmpOp::Ge);
                    assert_eq!(*n, 21.0);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explicit_val_test() {
        let q = parse("stock[buy/val() < 100]").unwrap();
        assert!(q.to_string().contains('['));
        let q = parse("stock[buy/val() != 80]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => {
                assert!(matches!(**qual, Qualifier::Test(_, Atom::Val(CmpOp::Ne, _))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_inequality_becomes_negated_equality() {
        let q = parse("client[country/text() != \"US\"]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => assert!(matches!(**qual, Qualifier::Not(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_predicates_and_wildcards() {
        let q = parse("*/client[broker[market/name/text()='TSE']]/name").unwrap();
        assert!(q.to_string().contains('['));
        let q = parse("//*[qt > 50]").unwrap();
        assert!(q.to_string().contains('['));
        assert!(q.to_string().contains("//"));
    }

    #[test]
    fn or_and_precedence() {
        // a or b and c  ==  a or (b and c)
        let q = parse("x[a or b and c]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => match &**qual {
                Qualifier::Or(_, rhs) => assert!(matches!(**rhs, Qualifier::And(_, _))),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // (a or b) and c
        let q = parse("x[(a or b) and c]").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => assert!(matches!(**qual, Qualifier::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unicode_connectives_parse() {
        let q =
            parse("//broker[//stock/code/text()=\"goog\" ∧ ¬(//stock/code/text()=\"yhoo\")]/name");
        assert!(q.is_ok());
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(matches!(parse(""), Err(XPathError::EmptyQuery)));
        assert!(parse("a[").is_err());
        assert!(parse("a]").is_err());
        assert!(parse("a[b").is_err());
        assert!(parse("a[text() 3]").is_err());
        assert!(parse("a[text() = ]").is_err());
        assert!(parse("/a/").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("a[val() = 'x']").is_err());
        assert!(parse("a[age < 'x']").is_err());
    }

    #[test]
    fn rejects_text_in_selection_path() {
        assert!(matches!(
            parse("client/name/text()"),
            Err(XPathError::TestOutsideQualifier { .. })
        ));
        assert!(matches!(parse("a/val()"), Err(XPathError::TestOutsideQualifier { .. })));
    }

    #[test]
    fn text_test_on_context_node() {
        let q = parse("code[text()='GOOG']").unwrap();
        match &q.path {
            PathExpr::Qualified(_, qual) => match &**qual {
                Qualifier::Test(p, Atom::Text(s)) => {
                    assert_eq!(*p, PathExpr::Empty);
                    assert_eq!(s, "GOOG");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_and_dot_steps() {
        let q = parse("./*/name").unwrap();
        assert!(!q.absolute);
        assert_eq!(q.to_string(), "./*/name");
    }

    #[test]
    fn display_round_trips_reparse_to_same_ast() {
        for text in [
            "/sites/site/people/person",
            "/sites/site/open_auctions//annotation",
            "//broker[//stock/code/text() = \"goog\"]/name",
            "client[country/text() = \"US\"]/broker/name",
            "person[profile/age > 20 and address/country/text() = \"US\"]/creditcard",
            "x[a or not(b and c)]",
        ] {
            let q1 = parse(text).unwrap();
            let q2 = parse(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "round-trip failed for {text}");
        }
    }
}
