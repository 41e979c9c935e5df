//! Error types for XPath parsing and compilation.

use std::fmt;

/// Result alias for the crate.
pub type XPathResult<T> = Result<T, XPathError>;

/// Errors raised while lexing, parsing or compiling a query.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathError {
    /// A character that cannot start any token.
    UnexpectedChar {
        /// Byte offset of the character.
        offset: usize,
        /// The offending character.
        found: char,
    },
    /// A string literal without a closing quote.
    UnterminatedString {
        /// Byte offset of the opening quote.
        offset: usize,
    },
    /// A numeric literal that does not parse.
    InvalidNumber {
        /// Byte offset of the literal.
        offset: usize,
        /// The text that failed to parse.
        text: String,
    },
    /// A token that does not fit the grammar at this position.
    UnexpectedToken {
        /// Byte offset of the token.
        offset: usize,
        /// Description of the token found.
        found: String,
        /// Description of what was expected.
        expected: String,
    },
    /// The query was syntactically valid but empty (selects nothing).
    EmptyQuery,
    /// `text()` / `val()` used in the selection path rather than a qualifier,
    /// which the class X of the paper does not allow.
    TestOutsideQualifier {
        /// Byte offset of the offending `text()`/`val()`.
        offset: usize,
    },
    /// An `@` not followed by an attribute name (an unterminated attribute
    /// step such as `a[@]` or `person/@`).
    ExpectedAttributeName {
        /// Byte offset of the `@`.
        offset: usize,
    },
    /// An attribute step `@attr` followed by further steps — attribute steps
    /// are only allowed in the final position of a path.
    AttributeStepNotLast {
        /// Byte offset of the axis after the attribute step.
        offset: usize,
    },
    /// A positional predicate whose operand is not a positive integer
    /// (`[0]`, `[2.5]`, `[-1]`).
    InvalidPosition {
        /// Byte offset of the offending number.
        offset: usize,
        /// The number as written.
        text: String,
    },
    /// An explicit `axis::` prefix naming an axis the fragment does not
    /// support (only `child`, `descendant-or-self` and `attribute` are).
    UnknownAxis {
        /// Byte offset of the axis name.
        offset: usize,
        /// The axis as written.
        axis: String,
    },
    /// A positional predicate with no step to count against (e.g. `.[2]` or
    /// `a//.[2]` — there is no preceding label or wildcard step).
    PositionWithoutStep,
    /// A positional predicate on a descendant-axis step inside a qualifier
    /// path (`[.//b[2]]`) — counting among `//`-reachable nodes is not
    /// supported.
    PositionOnDescendantStep,
    /// A query past one of the parser's bounds: more than
    /// [`MAX_QUERY_DEPTH`](crate::MAX_QUERY_DEPTH) nested `[`, `(` and `not`,
    /// or more than [`MAX_QUERY_SIZE`](crate::MAX_QUERY_SIZE) tokens.
    QueryTooLarge {
        /// Byte offset of the first token past the bound.
        offset: usize,
    },
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XPathError::UnexpectedChar { offset, found } => {
                write!(f, "unexpected character {found:?} at offset {offset}")
            }
            XPathError::UnterminatedString { offset } => {
                write!(f, "unterminated string literal starting at offset {offset}")
            }
            XPathError::InvalidNumber { offset, text } => {
                write!(f, "invalid number {text:?} at offset {offset}")
            }
            XPathError::UnexpectedToken { offset, found, expected } => {
                write!(f, "unexpected {found} at offset {offset}: expected {expected}")
            }
            XPathError::EmptyQuery => write!(f, "empty query"),
            XPathError::TestOutsideQualifier { offset } => write!(
                f,
                "text()/val() at offset {offset} is only allowed inside a qualifier in the class X"
            ),
            XPathError::ExpectedAttributeName { offset } => {
                write!(
                    f,
                    "unterminated attribute step at offset {offset}: expected a name after '@'"
                )
            }
            XPathError::AttributeStepNotLast { offset } => {
                write!(f, "attribute step at offset {offset} must be the last step of its path")
            }
            XPathError::InvalidPosition { offset, text } => {
                write!(f, "non-numeric position {text:?} at offset {offset}: expected a positive integer or last()")
            }
            XPathError::UnknownAxis { offset, axis } => {
                write!(f, "bad axis {axis:?} at offset {offset}: expected child, descendant-or-self or attribute")
            }
            XPathError::PositionWithoutStep => {
                write!(f, "positional predicate without a preceding label or wildcard step")
            }
            XPathError::PositionOnDescendantStep => {
                write!(f, "positional predicate on a descendant-axis step inside a qualifier is not supported")
            }
            XPathError::QueryTooLarge { offset } => write!(
                f,
                "query too large at offset {offset}: at most {} nested '[', '(' and 'not', and {} tokens",
                crate::MAX_QUERY_DEPTH,
                crate::MAX_QUERY_SIZE
            ),
        }
    }
}

impl std::error::Error for XPathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offsets() {
        let e = XPathError::UnexpectedToken {
            offset: 12,
            found: "']'".into(),
            expected: "a step".into(),
        };
        assert!(e.to_string().contains("offset 12"));
        assert!(XPathError::EmptyQuery.to_string().contains("empty"));
        assert!(XPathError::TestOutsideQualifier { offset: 3 }.to_string().contains("qualifier"));
    }
}
