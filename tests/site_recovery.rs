//! Two ways a site's state can fall out of step with the coordinator, and
//! how each heals.
//!
//! * A site that lost a copy (say, a site process restarted empty) answers
//!   a visit naming it with a typed missing-fragment reply instead of
//!   silently answering short. The failover loop marks the copy stale, the
//!   read fails over to a replica, and `repair` re-installs the copy. With
//!   no replica the read fails with that error.
//! * Scratch an execution parked before a fault made it retry is never
//!   taken back; it retires with its epoch.

use paxml::core::RetryPolicy;
use paxml::distsim::{FaultEvent, FaultKind, FaultPlan, SiteId};
use paxml::prelude::*;
use std::time::Duration;

const QUERY: &str = "client[country/text()='US']/broker/name";

/// Two clients (Anna/US, Lisa/Canada), cut at the brokers: F0 holds the
/// clients, F1 and F2 a broker each.
fn clientele() -> (XmlTree, FragmentedTree) {
    let mut builder = TreeBuilder::new("clientele");
    for (name, country, broker) in [("Anna", "US", "E*trade"), ("Lisa", "Canada", "CIBC")] {
        builder = builder
            .open("client")
            .leaf("name", name)
            .leaf("country", country)
            .open("broker")
            .leaf("name", broker)
            .close()
            .close();
    }
    let tree = builder.build();
    let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
    (tree, fragmented)
}

/// PaX2 over three sites, `replication` copies of every fragment, retries
/// and probes never slept on.
fn server(fragmented: &FragmentedTree, replication: usize) -> PaxServer {
    let retry = RetryPolicy {
        backoff_step: Duration::ZERO,
        probe_cooldown: Duration::ZERO,
        ..RetryPolicy::default()
    };
    PaxServer::builder()
        .sites(3)
        .replication(replication)
        .retry_policy(retry)
        .deploy(fragmented)
        .unwrap()
}

fn expected(tree: &XmlTree) -> Vec<paxml::xml::NodeId> {
    let mut answers = centralized::evaluate(tree, QUERY).unwrap().answers;
    answers.sort();
    answers
}

/// Drop every version of `fragment` at its primary site, as a restart
/// would, and return that site.
fn lose_primary_copy(server: &PaxServer, fragment: FragmentId) -> SiteId {
    let primary = server.topology().site_of(fragment);
    server.deployment().cluster().unwrap().inspect_site(primary).purge_fragment(fragment);
    primary
}

#[test]
fn a_lost_copy_fails_over_to_its_replica_and_repair_reinstalls_it() {
    let (tree, fragmented) = clientele();
    let server = server(&fragmented, 2);
    let f1 = FragmentId(1);
    let primary = lose_primary_copy(&server, f1);
    let health = server.deployment().health();

    let report = server.query_once(QUERY).unwrap();
    assert_eq!(report.answer_origins(), expected(&tree));
    assert!(!report.visits_per_site().contains_key(&primary), "the retry routed around it");
    assert_eq!(health.unrepaired_stale(), vec![(f1, primary)]);
    assert!(!health.is_quarantined(primary), "a lost copy is no fault of a live site");

    assert_eq!(server.repair().unwrap(), 1);
    assert!(health.unrepaired_stale().is_empty());
    let report = server.query_once(QUERY).unwrap();
    assert_eq!(report.answer_origins(), expected(&tree));
    assert!(report.visits_per_site().contains_key(&primary), "the primary serves F1 again");
}

#[test]
fn a_lost_only_copy_fails_the_read_with_a_typed_error() {
    let (_tree, fragmented) = clientele();
    let server = server(&fragmented, 1);
    let f1 = FragmentId(1);
    let holder = lose_primary_copy(&server, f1);
    match server.query_once(QUERY) {
        Err(PaxError::FragmentMissing { site, fragment, epoch }) => {
            assert_eq!((site, fragment, epoch), (holder, f1, 0));
        }
        other => panic!("expected a missing-fragment error, got {other:?}"),
    }
}

#[test]
fn scratch_an_abandoned_attempt_parked_retires_with_its_epoch() {
    let (tree, fragmented) = clientele();
    let server = server(&fragmented, 2);
    let deployment = server.deployment();
    // Kill S1 for the collection round of the query's first attempt: the
    // retry re-runs both rounds under fresh slots around S1, and the first
    // attempt's parked answers stay behind on every site it reached.
    let collect_round = deployment.current_fault_tick() + 1;
    let kill = FaultEvent {
        site: SiteId(1),
        from_round: collect_round,
        to_round: collect_round,
        kind: FaultKind::Kill,
    };
    deployment.set_fault_plan(Some(FaultPlan::scripted(vec![kill])));
    assert_eq!(server.query_once(QUERY).unwrap().answer_origins(), expected(&tree));

    // An update publishes epoch 1; the sweep retires epoch 0 and what it
    // left behind.
    let broker = &fragmented.fragments[1].tree;
    let node = broker.children(broker.find_first("name").unwrap()).next().unwrap();
    server
        .apply_updates(&[(FragmentId(1), UpdateOp::EditText { node, text: "B".into() })])
        .unwrap();
    server.vacuum().unwrap();
    let scratch: Vec<usize> =
        (0..3).map(|site| deployment.transport().scratch_len(SiteId(site))).collect();
    assert_eq!(scratch, vec![0, 0, 0]);
}
