//! Public-API surface test: pins the prelude exports and the `PaxServer` /
//! `ExecReport` / `PaxError` surface to their exact signatures, so a PR that
//! accidentally breaks a downstream caller fails here instead of in
//! someone's build.
//!
//! Everything in this file is a *compile-time* assertion (function-pointer
//! coercions and exhaustive struct literals fail to compile on any drift)
//! plus runtime checks of the explicit-assignment builder path and of the
//! retry defaults.

use paxml::core::server::{RefragOp, RefragReport};
use paxml::core::{FragmentLabels, PathTrie, RetryPolicy, Topology, Transport};
use paxml::distsim::{Cluster, ReplicaSet};
use paxml::fragment::FragmentTree;
use paxml::prelude::*;
use paxml::wire::TcpCluster;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Update-batch slices, named so the pinned fn-pointer types stay readable.
type Updates<'a> = &'a [(FragmentId, UpdateOp)];

/// Fragment→replica-set assignments, named for the same reason.
type Replicas = BTreeMap<FragmentId, ReplicaSet>;

/// The `PaxServer` session API, pinned.
#[test]
fn server_api_compiles_against_its_pinned_signatures() {
    let _: fn() -> PaxServerBuilder = PaxServer::builder;
    let _: fn(PaxServerBuilder, Algorithm) -> PaxServerBuilder = PaxServerBuilder::algorithm;
    let _: fn(PaxServerBuilder, bool) -> PaxServerBuilder = PaxServerBuilder::annotations;
    let _: fn(PaxServerBuilder, Placement) -> PaxServerBuilder = PaxServerBuilder::placement;
    let _: fn(PaxServerBuilder, usize) -> PaxServerBuilder = PaxServerBuilder::sites;
    let _: fn(PaxServerBuilder, &FragmentedTree) -> PaxResult<PaxServer> = PaxServerBuilder::deploy;
    // The whole serving path takes `&self`: a `PaxServer` is shared across
    // client threads (see `tests/concurrent_server.rs`); only `prepare` and
    // `apply_updates` are internally exclusive.
    let _: fn(&PaxServer, &str) -> PaxResult<PreparedQuery> = PaxServer::prepare;
    let _: fn(&PaxServer, &PreparedQuery) -> PaxResult<ExecReport> = PaxServer::execute;
    let _: fn(&PaxServer, &[PreparedQuery]) -> PaxResult<ExecReport> = PaxServer::execute_batch;
    let _: fn(&PaxServer, Updates) -> PaxResult<ExecReport> = PaxServer::apply_updates;
    let _: fn(&PaxServer, &str) -> PaxResult<ExecReport> = PaxServer::query_once;
    let _: fn(&PaxServer, &str) -> PaxResult<ExecReport> = PaxServer::execute_text;
    let _: fn(&PaxServer) -> Algorithm = PaxServer::algorithm;

    // The concurrency contract itself, pinned at compile time.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PaxServer>();
    assert_send_sync::<PreparedQuery>();

    // The unified report's accessor surface.
    let _: fn(&ExecReport) -> u32 = ExecReport::max_visits_per_site;
    let _: fn(&ExecReport) -> u64 = ExecReport::network_bytes;
    let _: fn(&ExecReport) -> u32 = ExecReport::rounds;
    let _: fn(&ExecReport) -> u64 = ExecReport::total_ops;
    let _: fn(&ExecReport) -> u32 = ExecReport::clean_site_visits;
    let _: fn(&ExecReport) -> Duration = ExecReport::parallel_time;
    let _: fn(&ExecReport) -> String = ExecReport::summary;

    // The consolidated error type converts from every per-crate error.
    let _: fn(paxml::xml::XmlError) -> PaxError = PaxError::from;
    let _: fn(paxml::xpath::XPathError) -> PaxError = PaxError::from;
    let _: fn(paxml::fragment::FragmentError) -> PaxError = PaxError::from;
    let _: ExecMode = ExecMode::Query;
    let _: fn(&QueryOutcome) -> usize = |q| q.answers.len();
    let _: fn(&UpdateOutcome) -> usize = |u| u.dirty_fragments.len();
}

/// An explicit fragment→site assignment works through the builder.
#[test]
fn an_explicit_assignment_deploys_through_the_builder() {
    let tree = parse_xml(
        "<clientele>\
           <client><country>US</country><broker><name>Etrade</name></broker></client>\
           <client><country>Canada</country><broker><name>CIBC</name></broker></client>\
         </clientele>",
    )
    .unwrap();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    let query = "client[country/text()='US']/broker/name";

    let mut assignment = BTreeMap::new();
    assignment.insert(FragmentId(0), paxml::distsim::SiteId(0));
    let server = PaxServer::builder().sites(2).assignment(assignment).deploy(&fragmented).unwrap();
    assert_eq!(server.query_once(query).unwrap().answer_texts(), vec!["Etrade".to_string()]);
}

/// The settable values and the transport constructors, pinned: the retry
/// policy is built field by field, so a new setting fails to compile here
/// until it is listed, and each transport has one constructor by placement
/// and one general constructor by replica sets.
#[test]
fn settings_and_transport_constructors_are_pinned() {
    let policy = RetryPolicy {
        max_attempts: 3,
        backoff_step: Duration::from_millis(10),
        probe_cooldown: Duration::from_millis(100),
    };
    assert_eq!(policy, RetryPolicy::default());

    let _: fn(&FragmentedTree, usize, Placement) -> Cluster = Cluster::new;
    let _: fn(&FragmentedTree, usize, Replicas) -> Cluster = Cluster::with_replicas;
    let _: fn(&FragmentedTree, &[SocketAddr], Placement) -> PaxResult<TcpCluster> =
        TcpCluster::connect;
    let _: fn(&FragmentedTree, &[SocketAddr], Replicas, Duration) -> PaxResult<TcpCluster> =
        TcpCluster::connect_with_replicas;
}

/// The topology is the one home of the §5 index and of the document root
/// label; a deployment is built from its transport alone. Pinned.
#[test]
fn the_topology_owns_the_index_and_a_deployment_only_its_transport() {
    type Labels = Option<Arc<FragmentLabels>>;
    let _: fn(FragmentTree, Replicas, u64, String, Labels) -> Topology = Topology::new;
    let _: fn(&Topology) -> Option<&PathTrie> = Topology::annotations;
    let _: fn(&Topology) -> &str = Topology::root_label;
    let _: fn(&Topology) -> Option<&FragmentLabels> = Topology::labels;
    let _: fn(Arc<dyn Transport>) -> Deployment = Deployment::over_transport;
}

/// Re-fragmentation has one entry point, which takes op sequences; the
/// rebalance crate names the core's op type rather than a copy. Pinned.
#[test]
fn the_topology_changes_only_through_refrag_ops() {
    let _: fn(&PaxServer, &[RefragOp]) -> PaxResult<RefragReport> = PaxServer::refragment;
    let _: fn(paxml::rebalance::RefragOp) -> RefragOp = |op| op;
}
