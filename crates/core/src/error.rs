//! The workspace-level error type.
//!
//! The substrate crates each have a focused error enum (`XmlError`,
//! `XPathError`, `FragmentError`); a [`PaxServer`](crate::server::PaxServer)
//! session can fail for any of those reasons plus a few of its own, so the
//! public API surfaces one consolidated [`PaxError`]. `From` conversions
//! exist for every per-crate error, and `?` works across the whole stack.

use paxml_fragment::FragmentError;
use paxml_xml::XmlError;
use paxml_xpath::XPathError;
use std::fmt;

/// Result alias of the consolidated public API.
pub type PaxResult<T> = Result<T, PaxError>;

/// Everything that can go wrong in a [`PaxServer`](crate::server::PaxServer)
/// session, consolidated from the per-crate error enums.
#[derive(Debug, Clone, PartialEq)]
pub enum PaxError {
    /// Parsing or manipulating an XML document failed.
    Xml(XmlError),
    /// Lexing, parsing or compiling an XPath query failed.
    Query(XPathError),
    /// Fragmenting, reassembling or updating a fragmented tree failed.
    Fragment(FragmentError),
    /// The server was configured inconsistently (builder misuse).
    InvalidConfig {
        /// Human-readable description of the misconfiguration.
        message: String,
    },
    /// A [`PreparedQuery`](crate::server::PreparedQuery) was presented to a
    /// server that did not prepare it.
    ForeignQuery {
        /// The query's text, for diagnostics.
        query: String,
    },
    /// A site could not be reached (or died mid-round) over a remote
    /// transport. The in-process simulator never raises this.
    SiteUnreachable {
        /// The unreachable site.
        site: paxml_distsim::SiteId,
        /// What the transport observed (connection refused, reset, EOF…).
        detail: String,
    },
    /// A site answered that it holds no readable version of a fragment the
    /// round routed to it (the copy was lost, e.g. with a site process that
    /// restarted empty). The site itself is up.
    FragmentMissing {
        /// The site that lacks the copy.
        site: paxml_distsim::SiteId,
        /// The fragment it lacks.
        fragment: paxml_fragment::FragmentId,
        /// The epoch the round was pinned to.
        epoch: u64,
    },
    /// A remote peer violated the wire protocol (undecodable frame,
    /// response of the wrong stage, bad handshake).
    Protocol {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl PaxError {
    /// Is this failure worth retrying?
    ///
    /// Transient faults are those where a later attempt can see a different
    /// world: a site that refused the connection may come back, a read that
    /// timed out may answer next time, a lost copy has a replica elsewhere —
    /// these drive the failover loop in
    /// [`PaxServer`](crate::server::PaxServer). Everything else is
    /// *permanent*: a codec mismatch, an invariant violation or a
    /// misconfiguration reproduces identically on retry, so retrying only
    /// hides the bug and burns the retry budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, PaxError::SiteUnreachable { .. } | PaxError::FragmentMissing { .. })
    }
}

impl fmt::Display for PaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaxError::Xml(e) => write!(f, "xml error: {e}"),
            PaxError::Query(e) => write!(f, "query error: {e}"),
            PaxError::Fragment(e) => write!(f, "fragment error: {e}"),
            PaxError::InvalidConfig { message } => {
                write!(f, "invalid server configuration: {message}")
            }
            PaxError::ForeignQuery { query } => {
                write!(f, "prepared query {query:?} belongs to a different server")
            }
            PaxError::SiteUnreachable { site, detail } => {
                write!(f, "site {} unreachable: {detail}", site.0)
            }
            PaxError::FragmentMissing { site, fragment, epoch } => write!(
                f,
                "site {} holds no readable copy of fragment {} at epoch {epoch}",
                site.0,
                fragment.index()
            ),
            PaxError::Protocol { message } => {
                write!(f, "wire protocol violation: {message}")
            }
        }
    }
}

impl std::error::Error for PaxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PaxError::Xml(e) => Some(e),
            PaxError::Query(e) => Some(e),
            PaxError::Fragment(e) => Some(e),
            PaxError::InvalidConfig { .. }
            | PaxError::ForeignQuery { .. }
            | PaxError::SiteUnreachable { .. }
            | PaxError::FragmentMissing { .. }
            | PaxError::Protocol { .. } => None,
        }
    }
}

impl From<XmlError> for PaxError {
    fn from(e: XmlError) -> Self {
        PaxError::Xml(e)
    }
}

impl From<XPathError> for PaxError {
    fn from(e: XPathError) -> Self {
        PaxError::Query(e)
    }
}

impl From<FragmentError> for PaxError {
    fn from(e: FragmentError) -> Self {
        PaxError::Fragment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display_cover_every_layer() {
        let e: PaxError = XPathError::EmptyQuery.into();
        assert!(e.to_string().contains("query error"));
        assert!(e.source().is_some());

        let e: PaxError = FragmentError::CannotCutRoot.into();
        assert!(e.to_string().contains("fragment error"));

        let e: PaxError = XmlError::EmptyDocument.into();
        assert!(e.to_string().contains("xml error"));

        let e = PaxError::InvalidConfig { message: "zero sites".into() };
        assert!(e.to_string().contains("zero sites"));
        assert!(e.source().is_none());

        let e = PaxError::ForeignQuery { query: "a/b".into() };
        assert!(e.to_string().contains("a/b"));
    }

    #[test]
    fn only_unreachable_sites_and_lost_copies_are_transient() {
        let transient = PaxError::SiteUnreachable {
            site: paxml_distsim::SiteId(1),
            detail: "read timed out".into(),
        };
        assert!(transient.is_transient());
        let lost = PaxError::FragmentMissing {
            site: paxml_distsim::SiteId(1),
            fragment: paxml_fragment::FragmentId(2),
            epoch: 3,
        };
        assert!(lost.is_transient());
        assert_eq!(lost.to_string(), "site 1 holds no readable copy of fragment 2 at epoch 3");
        for permanent in [
            PaxError::Protocol { message: "bad frame".into() },
            PaxError::InvalidConfig { message: "zero sites".into() },
            PaxError::ForeignQuery { query: "a/b".into() },
            PaxError::Query(XPathError::EmptyQuery),
            PaxError::Fragment(FragmentError::CannotCutRoot),
            PaxError::Xml(XmlError::EmptyDocument),
        ] {
            assert!(!permanent.is_transient(), "{permanent} must not be retried");
        }
    }
}
