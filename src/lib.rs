//! # paxml — Distributed XPath Query Evaluation with Performance Guarantees
//!
//! A faithful, from-scratch Rust reproduction of
//!
//! > Gao Cong, Wenfei Fan, Anastasios Kementsietsidis.
//! > *Distributed Query Evaluation with Performance Guarantees.* SIGMOD 2007.
//!
//! The paper evaluates generic (data-selecting) XPath queries over an XML
//! tree that is fragmented and distributed over many sites, using **partial
//! evaluation**: each site evaluates the whole query over its fragments in
//! parallel and ships *residual Boolean formulas* instead of data; a
//! coordinator unifies them over the fragment tree. The algorithms guarantee
//! at most three (PaX3) or two (PaX2) visits per site, network traffic in
//! `O(|Q|·|FT| + |answer|)`, and total computation comparable to a
//! centralized evaluation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`xml`] | `paxml-xml` | Arena XML tree, parser, serializer, builder. |
//! | [`boolex`] | `paxml-boolex` | Residual Boolean formulas and environments. |
//! | [`xpath`] | `paxml-xpath` | The XPath fragment X: parser, normal form, `SVect`/`QVect`, centralized evaluator. |
//! | [`fragment`] | `paxml-fragment` | Fragmentation, fragment trees, XPath annotations, fragment updates. |
//! | [`distsim`] | `paxml-distsim` | Simulated sites, traffic/visit accounting, parallel rounds. |
//! | [`core`] | `paxml-core` | The [`PaxServer`](core::server::PaxServer) session API over PaX3, PaX2 (one query or a batch), incremental maintenance, the annotation optimization, and the naive baseline. |
//! | [`rebalance`] | `paxml-rebalance` | Online re-fragmentation: split/merge/migrate ops and the cost-model-driven placement planner. |
//! | [`xmark`] | `paxml-xmark` | XMark-like workload generator, the paper's running example, update workloads. |
//!
//! ## Quickstart
//!
//! Everything goes through a long-lived [`PaxServer`](core::server::PaxServer)
//! session: deploy once, prepare queries once, then interleave execution,
//! batching and fragment updates — every call returns one unified
//! [`ExecReport`](core::ExecReport) metering exactly that execution.
//!
//! ```
//! use paxml::prelude::*;
//!
//! // The paper's Fig. 1 clientele, fragmented as in Fig. 2, on 4 sites.
//! let (_tree, fragmented) = paxml::xmark::clientele_fragmentation();
//! let server = PaxServer::builder()
//!     .algorithm(Algorithm::PaX2)
//!     .annotations(true)
//!     .placement(Placement::RoundRobin)
//!     .sites(4)
//!     .deploy(&fragmented)
//!     .unwrap();
//!
//! // Compile once, execute as often as you like.
//! let q = server
//!     .prepare("client[country/text()='US']/broker[market/name/text()='NASDAQ']/name")
//!     .unwrap();
//! let report = server.execute(&q).unwrap();
//! assert_eq!(report.answer_texts(), vec!["E*trade".to_string(), "Bache".to_string()]);
//! assert!(report.max_visits_per_site() <= 2);
//!
//! // Re-execution is served from the maintained residual-vector cache.
//! assert_eq!(server.execute(&q).unwrap().max_visits_per_site(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use paxml_boolex as boolex;
pub use paxml_core as core;
pub use paxml_distsim as distsim;
pub use paxml_fragment as fragment;
pub use paxml_rebalance as rebalance;
pub use paxml_wire as wire;
pub use paxml_xmark as xmark;
pub use paxml_xml as xml;
pub use paxml_xpath as xpath;

/// The most commonly used items, for `use paxml::prelude::*`.
pub mod prelude {
    pub use paxml_core::server::{PaxServer, PaxServerBuilder, PreparedQuery, ServerStats};
    pub use paxml_core::{
        Algorithm, AnswerItem, Deployment, ExecMode, ExecReport, PaxError, PaxResult, QueryOutcome,
        UpdateOutcome,
    };
    pub use paxml_distsim::Placement;
    pub use paxml_fragment::{fragment_at, strategy, FragmentId, FragmentedTree, UpdateOp};
    pub use paxml_xml::{parse as parse_xml, TreeBuilder, XmlTree};
    pub use paxml_xpath::{centralized, compile_text, parse as parse_query};
}
