//! # paxml-xpath — the XPath fragment X of the paper
//!
//! Implements the query language of §2.2 of *Distributed Query Evaluation
//! with Performance Guarantees* (Cong, Fan, Kementsietsidis, SIGMOD 2007):
//!
//! ```text
//! Q := ε | A | * | Q//Q | Q/Q | Q[q]
//! q := Q | q/text() = str | q/val() op num | ¬q | q ∧ q | q ∨ q
//! ```
//!
//! widened with attribute tests, positional predicates and verbose axes.
//! The crate provides, in processing order:
//!
//! 1. [`parse`] — concrete syntax → surface AST ([`Query`], [`PathExpr`],
//!    [`Qualifier`]). One grammar reads the selection path and every
//!    qualifier path; the five atomic tests (`text() = s`, `val() op n`,
//!    `@a`, `@a = s`, `@a op n`) are one [`Atom`]. A query nested deeper
//!    than [`MAX_QUERY_DEPTH`] or longer than [`MAX_QUERY_SIZE`] tokens is
//!    rejected with [`XPathError::QueryTooLarge`].
//! 2. [`normalize`](normalize()) — surface AST → the paper's normal form
//!    `β₁/…/βₙ` ([`NormQuery`]), where `Q/atom` becomes
//!    `normalize(Q)/ε[atom]` ([`NormQual::Atom`]).
//! 3. [`compile`](compile()) — normal form → the vector representation
//!    ([`CompiledQuery`]: `SVect(Q)` selection items and `QVect(Q)`
//!    qualifier sub-queries).
//! 4. [`eval`] — the generic single-pass evaluators (bottom-up qualifier
//!    pass, top-down selection pass, PaX2 combined pass), parameterised over
//!    the residual-variable type so the distributed layer can reuse them.
//! 5. [`centralized`] — the reference `O(|T|·|Q|)` two-pass evaluator, and
//!    [`semantics`] — a naive set-based oracle used only for testing.
//!
//! ```
//! use paxml_xml::TreeBuilder;
//! use paxml_xpath::centralized;
//!
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("name", "Anna").leaf("country", "US").close()
//!     .open("client").leaf("name", "Lisa").leaf("country", "Canada").close()
//!     .build();
//! let result = centralized::evaluate(&tree, "client[country/text()='US']/name").unwrap();
//! assert_eq!(result.answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ast;
pub mod centralized;
mod compile;
mod error;
pub mod eval;
mod lexer;
mod normalize;
mod parser;
pub mod semantics;

pub use ast::{Atom, CmpOp, PathExpr, PosPred, Qualifier, Query};
pub use compile::{
    compile, compile_with_cache, CompileCache, CompiledQuery, PosFilter, PosTest, QAxis, QEntry,
    QEntryId, SelItem, SelPos,
};
pub use error::{XPathError, XPathResult};
pub use normalize::{normalize, NormItem, NormPath, NormQual, NormQuery};
pub use parser::{parse, MAX_QUERY_DEPTH, MAX_QUERY_SIZE};

/// Parse, normalize and compile a query in one call — the form every
/// downstream crate uses.
pub fn compile_text(query_text: &str) -> XPathResult<CompiledQuery> {
    compile(&normalize(&parse(query_text)?))
}

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn compile_text_pipeline() {
        let c = compile_text("/sites/site/people/person").unwrap();
        assert_eq!(c.selection_steps(), vec!["sites", "site", "people", "person"]);
        assert!(compile_text("").is_err());
        assert!(compile_text("a[[").is_err());
    }
}
