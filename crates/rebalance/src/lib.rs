//! # paxml-rebalance — online re-fragmentation for live PaX deployments
//!
//! The paper fixes the fragmentation and placement at deploy time; this
//! crate makes both **mutable online**, without ever blocking readers:
//!
//! * [`RefragOp`] — the primitive operations on the deployment topology,
//!   defined in the core next to [`PaxServer::refragment`], which takes any
//!   sequence of them: [`RefragOp::Split`] cuts a fragment in two,
//!   [`RefragOp::Merge`] splices a child back into its parent,
//!   [`RefragOp::Migrate`] moves one copy of a fragment to another site.
//! * [`CostModel`] + [`plan`] — per-site load observation
//!   ([`PaxServer::site_loads`]: resident fragments/bytes and historical
//!   traffic) feeding a greedy planner that evens out
//!   hot sites under a configurable [`Objective`] and an optional
//!   bytes-moved budget.
//! * [`rebalance`] — observe, plan, apply: the closed loop.
//!
//! Everything publishes through the server's epoch machinery, so readers
//! pinned to the old topology keep routing to the old sites to completion
//! and a reader never observes a half-moved deployment.
//!
//! [`PaxServer::refragment`]: paxml_core::server::PaxServer::refragment
//! [`PaxServer::site_loads`]: paxml_core::server::PaxServer::site_loads
//!
//! ```
//! use paxml_core::{server::PaxServer, Algorithm};
//! use paxml_distsim::SiteId;
//! use paxml_fragment::{strategy::cut_at_labels, FragmentId};
//! use paxml_rebalance::RefragOp;
//! use paxml_xml::TreeBuilder;
//!
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .build();
//! let fragmented = cut_at_labels(&tree, &["broker"]).unwrap();
//! let server = PaxServer::builder().algorithm(Algorithm::PaX2).sites(2)
//!     .deploy(&fragmented).unwrap();
//! let q = server.prepare("client/broker/name").unwrap();
//! let before = server.execute(&q).unwrap();
//!
//! // Move the broker fragment to the other site, online. With replicated
//! // placements a migrate moves one copy, so it names its source site.
//! let from = server.topology().site_of(FragmentId(1));
//! let to = SiteId(1 - from.index());
//! let report =
//!     server.refragment(&[RefragOp::Migrate { fragment: FragmentId(1), from, to }]).unwrap();
//! assert_eq!(report.installed_fragments, 1);
//!
//! let after = server.execute(&q).unwrap();
//! assert_eq!(after.answer_texts(), before.answer_texts());
//! assert_eq!(after.placement_version, before.placement_version + 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod plan;

pub use paxml_core::server::RefragOp;
use paxml_core::server::{PaxServer, RefragReport};
use paxml_core::PaxResult;
pub use plan::{plan, rebalance, CostModel, Objective, PlannerOptions, RebalanceOutcome};

/// `server.refragment(ops)`, kept under this name for callers that predate
/// [`PaxServer::refragment`] taking the ops itself.
pub fn apply_ops(server: &PaxServer, ops: &[RefragOp]) -> PaxResult<RefragReport> {
    server.refragment(ops)
}
