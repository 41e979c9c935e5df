//! # paxml-xmark — synthetic workloads for the experimental study
//!
//! The paper's experiments run over XMark documents: trees whose root is
//! `sites` and whose children are whole XMark "site" subtrees, fragmented in
//! various ways and distributed over up to ten machines. The original XMark
//! generator (xmlgen) is not redistributable here, so this crate provides a
//! synthetic generator that reproduces the *part of the XMark vocabulary the
//! paper's queries touch* — `people/person/{name, profile/age,
//! address/country, creditcard}`, `open_auctions/auction/annotation`,
//! `closed_auctions`, `regions` — with realistic fan-outs and value
//! distributions, plus a size knob expressed in "virtual megabytes"
//! (`1 vMB` ≈ [`NODES_PER_VMB`] tree nodes). See DESIGN.md for the
//! substitution rationale.
//!
//! It also provides the paper's running example (the Fig. 1 investment
//! clientele and its Fig. 2 fragmentation) and the two experiment topologies
//! of Fig. 8 (FT1 and FT2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clientele;
mod generator;
mod querygen;
mod topology;
mod updates;

pub use clientele::{clientele_document, clientele_fragmentation, CLIENTELE_QUERY_EXAMPLES};
pub use generator::{generate, XmarkConfig, XmarkGenerator, NODES_PER_VMB};
pub use querygen::{QueryGen, QueryGenConfig};
pub use topology::{ft1, ft2, Ft2Layout, PAPER_QUERIES};
pub use updates::UpdateWorkload;
