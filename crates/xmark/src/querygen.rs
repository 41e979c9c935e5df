//! Grammar-based random query generation over the widened fragment X.
//!
//! Every property test and the differential harness draw their queries from
//! this one generator, so the whole test suite exercises the same grammar:
//! label and wildcard steps, `/` and `//` axes, nested boolean qualifiers,
//! `text()` and `val()` comparisons, attribute predicates (`[@a]`,
//! `[@a = "s"]`, `[@a > n]`) and positional predicates (`[n]`, `[last()]`).
//!
//! The generator produces **surface ASTs** ([`Query`] values), not strings:
//! that makes the parser round-trip property (`parse(display(q)) == q`)
//! directly expressible, and guarantees by construction that every
//! generated query is inside the accepted language (e.g. positional
//! predicates never land on a descendant-axis qualifier step, which the
//! compiler rejects). [`QueryGen::query_text`] renders to concrete syntax
//! and sometimes re-spells axes verbosely (`/descendant-or-self::`,
//! `/attribute::`) so the alternative spellings stay covered too.
//!
//! Generation is deterministic per seed: two generators with the same
//! config and seed produce the same stream, so failures reported by a
//! fixed-seed CI run reproduce locally.

use paxml_xpath::{Atom, CmpOp, PathExpr, PosPred, Qualifier, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vocabulary and shape knobs for [`QueryGen`].
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Element labels steps are drawn from.
    pub labels: Vec<String>,
    /// String literals for `text() = "…"` / `@a = "…"` comparisons.
    pub texts: Vec<String>,
    /// Attribute names for attribute predicates.
    pub attrs: Vec<String>,
    /// Maximum number of selection-path steps.
    pub max_steps: usize,
    /// Maximum boolean nesting depth inside qualifiers.
    pub max_qual_depth: usize,
    /// Generate positional predicates (`[n]`, `[last()]`)?
    pub positions: bool,
    /// Generate attribute predicates (`[@a]`, `[@a = "s"]`, `[@a > n]`)?
    pub attributes: bool,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            labels: ["a", "b", "c", "d", "e"].iter().map(|s| s.to_string()).collect(),
            texts: ["x", "y", "10", "42", "US"].iter().map(|s| s.to_string()).collect(),
            attrs: ["id", "age", "price", "vip"].iter().map(|s| s.to_string()).collect(),
            max_steps: 3,
            max_qual_depth: 2,
            positions: true,
            attributes: true,
        }
    }
}

impl QueryGenConfig {
    /// A config over an explicit vocabulary (defaults for the shape knobs).
    pub fn with_vocabulary(labels: &[&str], texts: &[&str], attrs: &[&str]) -> Self {
        QueryGenConfig {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            texts: texts.iter().map(|s| s.to_string()).collect(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            ..QueryGenConfig::default()
        }
    }
}

/// A deterministic random query generator (one stream per seed).
pub struct QueryGen {
    rng: StdRng,
    config: QueryGenConfig,
}

impl QueryGen {
    /// A generator over `config`, seeded for reproducibility.
    pub fn new(config: QueryGenConfig, seed: u64) -> QueryGen {
        QueryGen { rng: StdRng::seed_from_u64(seed), config }
    }

    /// A generator with the default vocabulary.
    pub fn with_seed(seed: u64) -> QueryGen {
        QueryGen::new(QueryGenConfig::default(), seed)
    }

    /// The next random query, as a surface AST in exactly the shape the
    /// parser produces (left-associated compositions, predicates nested on
    /// their step), so `parse(q.to_string()) == q`.
    pub fn query(&mut self) -> Query {
        let absolute = self.rng.gen_bool(0.3);
        let steps = 1 + self.rng.gen_range(0..self.config.max_steps);
        let mut path: Option<PathExpr> = None;
        for i in 0..steps {
            // Leading `//` for the first step; later steps descend with
            // probability ¼.
            let descendant = self.rng.gen_bool(if i == 0 { 0.3 } else { 0.25 });
            let step = self.step();
            path = Some(match path {
                None if descendant => PathExpr::Empty.descendant(step),
                None => step,
                Some(prev) if descendant => prev.descendant(step),
                Some(prev) => prev.child(step),
            });
        }
        Query { absolute, path: path.expect("at least one step") }
    }

    /// The next random query rendered to concrete syntax, occasionally
    /// re-spelled with verbose axes (`/descendant-or-self::`,
    /// `/attribute::`) — same query, alternative surface forms.
    pub fn query_text(&mut self) -> String {
        let mut text = self.query().to_string();
        // Safe textual rewrites: the vocabulary never puts `//` or `/@`
        // inside string literals.
        if self.rng.gen_bool(0.15) {
            text = text.replace("//", "/descendant-or-self::");
        }
        if self.rng.gen_bool(0.15) {
            text = text.replace("/@", "/attribute::");
        }
        text
    }

    /// One selection step: a label or wildcard base plus 0–2 predicates
    /// (positions and/or qualifiers, in random order).
    fn step(&mut self) -> PathExpr {
        let mut step = if self.rng.gen_bool(0.15) {
            PathExpr::Wildcard
        } else {
            PathExpr::Label(self.label())
        };
        let predicates = [0, 0, 0, 1, 1, 2][self.rng.gen_range(0..6)];
        for _ in 0..predicates {
            let q = if self.config.positions && self.rng.gen_bool(0.3) {
                Qualifier::Position(self.position())
            } else {
                self.qualifier(0)
            };
            step = step.qualified(q);
        }
        step
    }

    /// A qualifier, nesting `not`/`and`/`or` down to the configured depth.
    fn qualifier(&mut self, depth: usize) -> Qualifier {
        if depth < self.config.max_qual_depth && self.rng.gen_bool(0.35) {
            return match self.rng.gen_range(0..3) {
                0 => self.qualifier(depth + 1).negate(),
                1 => self.qualifier(depth + 1).and(self.qualifier(depth + 1)),
                _ => self.qualifier(depth + 1).or(self.qualifier(depth + 1)),
            };
        }
        let attr_kinds = if self.config.attributes { 3 } else { 0 };
        match self.rng.gen_range(0..3 + attr_kinds) {
            0 => Qualifier::Path(self.qual_path(1)),
            1 => Qualifier::Test(self.qual_path(0), Atom::Text(self.text())),
            2 => Qualifier::Test(self.qual_path(0), Atom::Val(self.cmp_op(), self.number())),
            3 => Qualifier::Test(self.qual_path(0), Atom::Attr(self.attr())),
            4 => Qualifier::Test(self.qual_path(0), Atom::AttrText(self.attr(), self.text())),
            _ => Qualifier::Test(
                self.qual_path(0),
                Atom::AttrVal(self.attr(), self.cmp_op(), self.number()),
            ),
        }
    }

    /// A path inside a qualifier: `min_steps..=2` label steps. The first
    /// composition may use `//`; positional predicates only ever attach to
    /// child-axis steps (the compiler rejects positions on descendant-axis
    /// qualifier steps).
    fn qual_path(&mut self, min_steps: usize) -> PathExpr {
        let steps = min_steps + self.rng.gen_range(0..3 - min_steps);
        let mut path = PathExpr::Empty;
        let mut wrote = false;
        for i in 0..steps {
            let descendant = i > 0 && self.rng.gen_bool(0.2);
            let mut step = PathExpr::Label(self.label());
            // A nested position, only on a child-axis step: `[b[2]/c]`.
            if self.config.positions && !descendant && self.rng.gen_bool(0.1) {
                step = step.qualified(Qualifier::Position(self.position()));
            }
            path = match (wrote, descendant) {
                (false, _) => step,
                (true, false) => path.child(step),
                (true, true) => path.descendant(step),
            };
            wrote = true;
        }
        path
    }

    fn position(&mut self) -> PosPred {
        if self.rng.gen_bool(0.25) {
            PosPred::Last
        } else {
            PosPred::Index(1 + self.rng.gen_range(0..4) as u32)
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][self.rng.gen_range(0..6)]
    }

    fn number(&mut self) -> f64 {
        self.rng.gen_range(0..50) as f64
    }

    fn label(&mut self) -> String {
        self.config.labels[self.rng.gen_range(0..self.config.labels.len())].clone()
    }

    fn text(&mut self) -> String {
        self.config.texts[self.rng.gen_range(0..self.config.texts.len())].clone()
    }

    fn attr(&mut self) -> String {
        self.config.attrs[self.rng.gen_range(0..self.config.attrs.len())].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xpath::parse;

    #[test]
    fn same_seed_same_stream() {
        let mut a = QueryGen::with_seed(7);
        let mut b = QueryGen::with_seed(7);
        for _ in 0..50 {
            assert_eq!(a.query(), b.query());
        }
        let mut c = QueryGen::with_seed(8);
        let differs = (0..50).any(|_| QueryGen::with_seed(7).query() != c.query());
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn generated_queries_parse_and_round_trip() {
        let mut g = QueryGen::with_seed(42);
        for i in 0..500 {
            let q = g.query();
            let text = q.to_string();
            let back =
                parse(&text).unwrap_or_else(|e| panic!("query {i} `{text}` failed to parse: {e}"));
            assert_eq!(back, q, "round-trip mismatch for `{text}`");
        }
    }

    #[test]
    fn respelled_texts_parse_to_the_same_query() {
        let mut g = QueryGen::with_seed(99);
        for _ in 0..500 {
            let text = g.query_text();
            let q = parse(&text).unwrap_or_else(|e| panic!("`{text}` failed to parse: {e}"));
            // The verbose spellings normalize away: re-rendering and
            // re-parsing is stable.
            assert_eq!(parse(&q.to_string()).unwrap(), q, "unstable respelling `{text}`");
        }
    }

    #[test]
    fn generated_queries_compile() {
        // Everything the generator emits must be accepted end-to-end
        // (normalize + compile), including nested positions.
        let mut g = QueryGen::with_seed(2024);
        for _ in 0..500 {
            let text = g.query_text();
            paxml_xpath::compile_text(&text)
                .unwrap_or_else(|e| panic!("`{text}` failed to compile: {e}"));
        }
    }
}
