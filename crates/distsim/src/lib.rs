//! # paxml-distsim — the simulated distributed substrate
//!
//! The paper evaluates its algorithms on ten LAN-connected machines; this
//! crate reproduces that setting in-process so the algorithmic guarantees
//! can be measured deterministically:
//!
//! * [`Cluster`] — a set of [`SiteLocal`] sites holding fragments, visited by
//!   a coordinator in parallel **rounds** served by a persistent pool of
//!   per-site worker threads (spawned once per cluster, fed over channels).
//!   Rounds take `&self`: a cluster is `Sync` and serves rounds from any
//!   number of coordinator threads at once. A round ([`Cluster::deliver`])
//!   *reports* what each visit cost as a [`SiteWork`]; the cluster itself
//!   charges nothing;
//! * the **wire format** ([`codec`]) and its **byte meter**
//!   ([`encoded_size`]): one serializer, run over a buffer to encode and
//!   over a counter to size — no bytes are charged that the algorithms did
//!   not actually put into a message, and the simulator's byte counts are a
//!   socket transport's frame lengths by construction;
//! * **visit counting** — the paper's "each site is visited at most
//!   three/two times" guarantee becomes an assertable number;
//! * **cost meters** ([`ClusterStats`]) — per-site elementary operations,
//!   per-site busy time, per-round parallel time, modelling the paper's
//!   total and parallel computation costs, charged in exactly one place
//!   ([`ClusterStats::commit_round`]);
//! * the **fault script** ([`FaultPlan`]) and replica sets the
//!   coordinator's round gate consults.
//!
//! The algorithms themselves (PaX3, PaX2, the baselines) live in
//! `paxml-core`; this crate deliberately knows nothing about XPath.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bytecount;
mod cluster;
pub mod codec;
mod fault;
mod site;
mod stats;

pub use bytecount::encoded_size;
pub use cluster::{clamp_assignment, Cluster, Delivery, Placement};
pub use fault::{FaultEvent, FaultKind, FaultPlan, ReplicaSet};
pub use site::{SiteId, SiteLocal, LATEST_EPOCH};
pub use stats::{ClusterStats, SiteLoadReport, SiteStats, SiteWork};
