//! # paxml-boolex — residual Boolean formulas for partial evaluation
//!
//! Partial evaluation of an XPath query over a single fragment of a
//! distributed XML tree cannot always decide a truth value: the parts of the
//! tree held by other sites are missing and are represented by *virtual
//! nodes*. The paper (§3.1) handles this by introducing **Boolean variables**
//! for every unknown vector entry at every virtual node, and letting the
//! value of a qualifier or selection-path entry be a **Boolean formula** over
//! those variables — the *residual function* of partial evaluation.
//!
//! This crate provides that formula language:
//!
//! * [`BoolExpr<V>`] — formulas with constants, variables of a user-chosen
//!   type `V`, negation, conjunction and disjunction, built through
//!   simplifying smart constructors so that fully-known sub-results collapse
//!   to constants immediately (this is what keeps the vectors shipped between
//!   sites of size `O(|Q|)`).
//! * [`Assignment`] — an environment mapping variables to truth values, used
//!   by `evalFT` when unifying the variables of a parent fragment with the
//!   vectors received from its sub-fragments. Truth-value assignment is the
//!   only operation on a finished formula: nothing substitutes a formula for
//!   a variable.
//! * [`BitVector`] / [`CompactVector`] — the paper's `QV`/`QDV`/`SV` vectors
//!   in a two-tier representation: packed `u64` words while every entry is a
//!   known constant (the overwhelmingly common case, and the only case a
//!   variable-free leaf fragment ever ships; up to 64 entries the word is
//!   inline, so such a vector never touches the heap), explicit formulas
//!   once a variable appears.
//! * [`FormulaArena`] / [`ExprId`] — a hash-consing arena interning every
//!   distinct sub-formula once, so the evaluation kernel's symbolic path
//!   combines and assigns formulas without cloning subtrees. A site visit
//!   builds every residual formula in one arena.
//!
//! ```
//! use paxml_boolex::{BoolExpr, Assignment};
//!
//! // (x8 ∧ true) ∨ ¬x8  — variables here are just strings.
//! let x8: BoolExpr<String> = BoolExpr::var("x8".to_string());
//! let f = BoolExpr::or(BoolExpr::and(x8.clone(), BoolExpr::constant(true)), BoolExpr::not(x8));
//! let mut env = Assignment::new();
//! env.set("x8".to_string(), false);
//! assert_eq!(f.eval(&env), Some(true));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
mod bits;
mod compact;
mod env;
mod expr;

pub use arena::{ExprId, FormulaArena};
pub use bits::BitVector;
pub use compact::CompactVector;
pub use env::Assignment;
pub use expr::BoolExpr;
