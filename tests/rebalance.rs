//! Online re-fragmentation: conformance, round-trips, planning, faults.
//!
//! The contract under test (see `paxml-rebalance` and
//! `PaxServer::refragment`): after **any** valid sequence of split, merge
//! and migrate operations, the live server answers every query exactly as
//! a *fresh* deployment of the resulting fragmentation would — same
//! answers, same visit counts — on both the in-process simulator and the
//! TCP transport; a round-trip (split then merge, migrate there and back)
//! is bit-identical to never having touched the deployment at all; the
//! cost-model planner reduces the max-site load on a skewed deployment;
//! a site dying mid-migration publishes nothing — clean
//! `SiteUnreachable`, old topology serving throughout; and an invalid op
//! fails with a typed error and publishes nothing either.

use paxml::fragment::FragmentError;
use paxml::prelude::*;
use paxml::rebalance::{rebalance, PlannerOptions, RefragOp};
use paxml::wire::ProcessCluster;
use paxml::xmark::{clientele_fragmentation, ft1, PAPER_QUERIES};
use paxml_distsim::{ReplicaSet, SiteId};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

const BIN: &str = env!("CARGO_BIN_EXE_paxml");
const ALGORITHMS: [Algorithm; 3] = [Algorithm::PaX2, Algorithm::PaX3, Algorithm::NaiveCentralized];

/// The paper's workload queries (text only — the tuple is `(label, query)`).
fn queries() -> Vec<&'static str> {
    PAPER_QUERIES.iter().map(|(_, q)| *q).collect()
}

/// The conformance oracle: export the server's current fragmentation,
/// deploy it fresh on an idle simulator, and demand that every workload
/// query returns the same answers with the same visit bound and fragment
/// coverage on both.
fn assert_conforms_to_fresh_deploy(
    server: &PaxServer,
    algorithm: Algorithm,
    sites: usize,
    context: &str,
) {
    let exported = server.export_fragmentation().expect("export the live fragmentation");
    let fresh = PaxServer::builder()
        .algorithm(algorithm)
        .sites(sites)
        .deploy(&exported)
        .expect("the exported fragmentation must deploy");
    for query in queries() {
        let live = server.query_once(query).expect("live server query");
        let reference = fresh.query_once(query).expect("fresh deploy query");
        assert_eq!(
            live.answer_origins(),
            reference.answer_origins(),
            "{context}: answers diverged from a fresh deploy for {query}"
        );
        assert_eq!(
            live.answer_texts(),
            reference.answer_texts(),
            "{context}: answer texts diverged from a fresh deploy for {query}"
        );
        assert_eq!(
            live.max_visits_per_site(),
            reference.max_visits_per_site(),
            "{context}: visit bound diverged from a fresh deploy for {query}"
        );
        assert_eq!(
            live.queries[0].fragments_evaluated, reference.queries[0].fragments_evaluated,
            "{context}: fragment coverage diverged for {query}"
        );
    }
}

/// Answers + per-site visits of one fresh execution — the "bit-identical"
/// comparison for round-trips, where even the placement is unchanged.
fn assert_executions_match(a: &ExecReport, b: &ExecReport, context: &str) {
    for (qa, qb) in a.queries.iter().zip(&b.queries) {
        assert_eq!(qa.answers, qb.answers, "{context}: answers diverged for {}", qa.query);
    }
    assert_eq!(
        a.stats.sites.keys().collect::<Vec<_>>(),
        b.stats.sites.keys().collect::<Vec<_>>(),
        "{context}: different sites were visited"
    );
    for (site, sa) in &a.stats.sites {
        assert_eq!(sa.visits, b.stats.sites[site].visits, "{context}: visits diverged at {site:?}");
    }
}

/// A split point inside fragment 1 of an FT1 deployment: every XMark site
/// subtree has a `people` section, a real interior element.
fn people_cut(fragmented: &FragmentedTree) -> paxml::xml::NodeId {
    fragmented
        .fragment(FragmentId(1))
        .expect("FT1 has a fragment 1")
        .tree
        .find_first("people")
        .expect("every XMark site subtree has a people section")
}

/// A split, a migration of the new fragment, a second migration of an old
/// fragment, then a merge of an (unrelated) original fragment into the
/// root: after each step the live server must answer exactly like a fresh
/// deployment of its exported fragmentation — for all three algorithms.
#[test]
fn mixed_op_sequences_conform_to_a_fresh_deploy() {
    let sites = 3;
    let (_tree, fragmented) = ft1(5, 0.01, 42);
    for algorithm in ALGORITHMS {
        let server = PaxServer::builder()
            .algorithm(algorithm)
            .sites(sites)
            .deploy(&fragmented)
            .expect("deploy");
        let new_id = FragmentId(fragmented.fragment_tree.max_id().index() + 1);

        let steps: Vec<(&str, Vec<RefragOp>)> = vec![
            (
                "split",
                vec![RefragOp::Split {
                    fragment: FragmentId(1),
                    cut: people_cut(&fragmented),
                    place_on: SiteId(2).into(),
                }],
            ),
            (
                "migrate the split child",
                vec![RefragOp::Migrate { fragment: new_id, from: SiteId(2), to: SiteId(0) }],
            ),
            (
                "migrate an original",
                vec![RefragOp::Migrate { fragment: FragmentId(3), from: SiteId(0), to: SiteId(1) }],
            ),
            ("merge an original into the root", vec![RefragOp::Merge { child: FragmentId(4) }]),
        ];
        let mut version = 0u64;
        for (step, ops) in steps {
            let report =
                server.refragment(&ops).unwrap_or_else(|e| panic!("{algorithm} {step}: {e}"));
            version += 1;
            assert_eq!(
                report.placement_version, version,
                "{algorithm} {step}: each applied sequence bumps the placement version once"
            );
            assert_conforms_to_fresh_deploy(
                &server,
                algorithm,
                sites,
                &format!("{algorithm} after {step}"),
            );
        }
        assert_eq!(server.server_stats().placement_version, version);
    }
}

/// The same op sequence on the simulator and on real TCP site processes:
/// the refragmented TCP cluster must stay bit-compatible with the
/// refragmented simulator (answers + per-site visits), and both must
/// conform to a fresh deploy of the exported fragmentation.
#[test]
fn refragmentation_over_tcp_matches_the_simulator() {
    with_watchdog(|| {
        let sites = 3;
        let (_tree, fragmented) = ft1(4, 0.01, 7);
        let sim = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .sites(sites)
            .deploy(&fragmented)
            .expect("deploy simulator");
        let cluster = ProcessCluster::spawn(BIN, &fragmented, sites, Placement::RoundRobin, 1)
            .expect("spawn site processes");
        let tcp = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .deploy_over(&fragmented, cluster.transport.clone())
            .expect("deploy over processes");

        let ops = vec![
            RefragOp::Split {
                fragment: FragmentId(1),
                cut: people_cut(&fragmented),
                place_on: SiteId(2).into(),
            },
            RefragOp::Migrate { fragment: FragmentId(2), from: SiteId(2), to: SiteId(0) },
        ];
        let s = sim.refragment(&ops).expect("simulator refragmentation");
        let t = tcp.refragment(&ops).expect("TCP refragmentation");
        assert_eq!(s.installed_fragments, t.installed_fragments, "install counts diverged");
        assert_eq!(s.placement_version, t.placement_version, "topology versions diverged");

        for query in queries() {
            let a = sim.query_once(query).expect("simulator query");
            let b = tcp.query_once(query).expect("TCP query");
            assert_executions_match(&a, &b, &format!("post-refrag {query}"));
        }
        assert_conforms_to_fresh_deploy(&tcp, Algorithm::PaX2, sites, "TCP post-refrag");

        // The exported fragmentations agree fragment-for-fragment.
        let se = sim.export_fragmentation().expect("simulator export");
        let te = tcp.export_fragmentation().expect("TCP export");
        assert_eq!(se.fragment_count(), te.fragment_count(), "exports diverged in shape");
        assert_eq!(se.total_real_nodes(), te.total_real_nodes(), "exports diverged in size");
    });
}

/// A migration with a **dead destination**: the payload fetch succeeds,
/// the install round hits the killed process and fails — with a clean
/// `SiteUnreachable` naming the dead site, nothing published (epoch and
/// placement version unchanged), and the old topology serving reads the
/// whole time.
#[test]
fn migration_to_a_dead_site_publishes_nothing() {
    with_watchdog(|| {
        let sites = 3;
        let (_tree, fragmented) = ft1(4, 0.02, 21);
        let mut cluster = ProcessCluster::spawn(BIN, &fragmented, sites, Placement::RoundRobin, 1)
            .expect("spawn site processes");
        let server = Arc::new(
            PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .deploy_over(&fragmented, cluster.transport.clone())
                .expect("deploy"),
        );
        let query = server.prepare(queries()[0]).expect("prepare");
        // Warm the residual-vector cache so reads keep completing with
        // zero site visits even while a site is down.
        let before = server.execute(&query).expect("warm the cache");
        assert_eq!(before.placement_version, 0);
        assert!(!before.answers().is_empty(), "workload sanity: answers exist");

        // Pick a fragment on a live site and a doomed destination.
        let victim = SiteId(2);
        let moved = *fragmented
            .fragment_tree
            .ids()
            .iter()
            .find(|&&f| server.topology().site_of(f) != victim)
            .expect("some fragment lives off the doomed site");
        cluster.kill_site(victim);

        // Twice, to show the failed attempt poisons nothing.
        for attempt in 0..2 {
            let moved_home = server.topology().site_of(moved);
            match server.refragment(&[RefragOp::Migrate {
                fragment: moved,
                from: moved_home,
                to: victim,
            }]) {
                Err(PaxError::SiteUnreachable { site, .. }) => {
                    assert_eq!(site, victim, "attempt {attempt}: wrong site blamed");
                }
                Err(other) => panic!("attempt {attempt}: expected SiteUnreachable, got {other}"),
                Ok(_) => panic!("attempt {attempt}: migration to a dead site succeeded"),
            }
            let stats = server.server_stats();
            assert_eq!(stats.current_epoch, 0, "attempt {attempt}: an epoch was published");
            assert_eq!(stats.placement_version, 0, "attempt {attempt}: a topology was published");
            let read = server.execute(&query).expect("the old topology still serves");
            assert_eq!(read.placement_version, 0);
            assert_eq!(read.answer_origins(), before.answer_origins());
            assert_eq!(read.max_visits_per_site(), 0, "cached reads never touch a site");
        }

        // The load probe over a dead site degrades to empty instead of
        // failing, so observation-driven planning stays possible.
        let probe = server.deployment().transport().site_load(victim);
        assert_eq!(probe.fragments, vec![], "a dead site's load probe must come back empty");
    });
}

/// The planner evens out a deliberately skewed deployment: everything
/// starts on one site, one `rebalance` pass must migrate fragments off it,
/// cut the max-site-load and leave answers conformant.
#[test]
fn planner_reduces_max_site_load_on_a_skewed_deployment() {
    let sites = 4;
    let (_tree, fragmented) = ft1(8, 0.02, 13);
    let server = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(sites)
        .placement(Placement::SingleSite)
        .deploy(&fragmented)
        .expect("deploy everything on S0");
    let outcome = rebalance(&server, &PlannerOptions::default()).expect("rebalance pass");
    assert!(!outcome.ops.is_empty(), "a single-site deployment must yield migrations");
    assert!(
        outcome.max_site_bytes_after < outcome.max_site_bytes_before,
        "the pass did not reduce the max site load ({} -> {})",
        outcome.max_site_bytes_before,
        outcome.max_site_bytes_after
    );
    let report = outcome.report.expect("a non-empty plan publishes");
    assert_eq!(report.placement_version, 1);
    assert!(
        server.server_stats().site_loads.iter().filter(|l| l.fragment_count() > 0).count() > 1,
        "fragments still all live on one site"
    );
    assert_conforms_to_fresh_deploy(&server, Algorithm::PaX2, sites, "post-rebalance");

    // A second pass over the now-balanced deployment must not thrash: the
    // max load never goes back up.
    let second = rebalance(&server, &PlannerOptions::default()).expect("second pass");
    assert!(
        second.max_site_bytes_after <= outcome.max_site_bytes_after,
        "a second pass made the balance worse"
    );
}

/// A bytes-moved budget of zero forbids every migration: the pass is a
/// no-op and publishes nothing.
#[test]
fn a_zero_budget_plans_nothing() {
    let (_tree, fragmented) = ft1(4, 0.01, 3);
    let server = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(3)
        .placement(Placement::SingleSite)
        .deploy(&fragmented)
        .expect("deploy");
    let options = PlannerOptions { bytes_moved_budget: Some(0), ..PlannerOptions::default() };
    let outcome = rebalance(&server, &options).expect("rebalance pass");
    assert!(outcome.ops.is_empty(), "a zero budget must not move anything");
    assert!(outcome.report.is_none(), "an empty plan must not publish");
    assert_eq!(server.server_stats().placement_version, 0);
}

/// Vacuum across re-fragmentations: ping-pong migrations leave a
/// superseded copy behind on the sites at each publish, and one explicit
/// sweep reclaims every one of them once no reader pins an old epoch.
#[test]
fn vacuum_reclaims_refragmentation_garbage() {
    let (_tree, fragmented) = ft1(4, 0.01, 5);
    let server = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(2)
        .deploy(&fragmented)
        .expect("deploy");
    let site_versions = |server: &PaxServer| -> usize {
        let cluster = server.deployment().cluster().expect("simulator deployment");
        cluster
            .occupied_sites()
            .into_iter()
            .map(|site| cluster.inspect_site(site).version_count())
            .sum()
    };
    let one_fragment_everywhere = fragmented.fragments.len();

    for round in 0..6u64 {
        let to = SiteId((round as usize) % 2);
        let from = SiteId(((round as usize) + 1) % 2);
        server
            .refragment(&[RefragOp::Migrate { fragment: FragmentId(1), from, to }])
            .expect("ping-pong migration");
    }
    let stats = server.server_stats();
    assert_eq!(stats.current_epoch, 6);
    assert_eq!(stats.live_epochs, 1, "no reader pins old epochs here");
    assert!(
        site_versions(&server) > one_fragment_everywhere,
        "the migrations left no superseded copy to sweep"
    );
    server.vacuum().expect("explicit vacuum");
    assert_eq!(site_versions(&server), one_fragment_everywhere);
}

/// The Fig. 2 clientele over three sites, `replication` copies each.
fn clientele_server(replication: usize) -> (PaxServer, FragmentedTree) {
    let (_, fragmented) = clientele_fragmentation();
    let server =
        PaxServer::builder().sites(3).replication(replication).deploy(&fragmented).expect("deploy");
    (server, fragmented)
}

/// Rename Anna's broker: one edit on F1.
fn rename_broker(server: &PaxServer, fragmented: &FragmentedTree, to: &str) -> ExecReport {
    let tree = &fragmented.fragments[1].tree;
    let node = tree.children(tree.find_first("name").expect("a broker name")).next().unwrap();
    let edit = UpdateOp::EditText { node, text: to.into() };
    server.apply_updates(&[(FragmentId(1), edit)]).expect("the writer is still usable")
}

/// A migration onto the site the copy already lives on, with one copy:
/// rejected before any round. (It used to empty the replica set under
/// the writer lock, which panicked and poisoned every later update.)
#[test]
fn a_migration_onto_its_own_site_is_rejected() {
    let (server, fragmented) = clientele_server(1);
    let home = server.topology().site_of(FragmentId(1));
    let before = server.cumulative_stats();
    let ops = [RefragOp::Migrate { fragment: FragmentId(1), from: home, to: home }];
    let error = server.refragment(&ops).expect_err("a migration onto its own site");
    assert!(matches!(error, PaxError::InvalidConfig { .. }), "{error}");
    assert_eq!(server.cumulative_stats().delta_since(&before).rounds, 0, "no round ran");
    assert_eq!(server.topology().replicas_of(FragmentId(1)), &ReplicaSet::solo(home));
    assert_eq!(rename_broker(&server, &fragmented, "B").epoch, 1);
}

/// A migration onto the site of the fragment's other copy, at replication
/// 2: rejected before any round. (It used to publish an epoch with the
/// replica set shrunk to one copy.)
#[test]
fn a_migration_onto_a_site_holding_another_copy_is_rejected() {
    let (server, fragmented) = clientele_server(2);
    let replicas = server.topology().replicas_of(FragmentId(1)).clone();
    let (from, to) = (replicas.sites()[0], replicas.sites()[1]);
    let before = server.cumulative_stats();
    let ops = [RefragOp::Migrate { fragment: FragmentId(1), from, to }];
    let error = server.refragment(&ops).expect_err("a migration onto the other copy's site");
    assert!(matches!(error, PaxError::InvalidConfig { .. }), "{error}");
    assert_eq!(server.cumulative_stats().delta_since(&before).rounds, 0, "no round ran");
    assert_eq!(server.server_stats().current_epoch, 0, "an epoch was published");
    assert_eq!(server.topology().replicas_of(FragmentId(1)), &replicas);
    assert_eq!(rename_broker(&server, &fragmented, "B").epoch, 1);
}

/// Every kind of invalid op sequence fails with its typed error and
/// publishes nothing: epoch, placement version, stale marks and answers
/// stay as they were. A valid op afterwards publishes exactly once.
#[test]
fn invalid_ops_publish_nothing() {
    let (server, fragmented) = clientele_server(1);
    let (f0, f1, unknown) = (FragmentId(0), FragmentId(1), FragmentId(99));
    let home = server.topology().site_of(f1);
    let (away, nowhere) = (SiteId((home.index() + 1) % 3), SiteId(9));
    let broker = &fragmented.fragments[1].tree;
    let market = broker.find_first("market").expect("Anna's broker has an NYSE market");
    let text = broker.children(broker.find_first("name").unwrap()).next().unwrap();
    let split =
        |cut, place_on: SiteId| RefragOp::Split { fragment: f1, cut, place_on: place_on.into() };
    let new_id = FragmentId(fragmented.fragment_tree.max_id().index() + 1);

    type Expected = fn(&PaxError) -> bool;
    let invalid_config: Expected = |e| matches!(e, PaxError::InvalidConfig { .. });
    let unknown_fragment: Expected =
        |e| matches!(e, PaxError::Fragment(FragmentError::UnknownFragment { fragment: 99 }));
    let rows: Vec<(&str, Vec<RefragOp>, Expected)> = vec![
        (
            "a migrate from a site with no copy",
            vec![RefragOp::Migrate { fragment: f1, from: away, to: away }],
            invalid_config,
        ),
        (
            "a migrate to a nonexistent site",
            vec![RefragOp::Migrate { fragment: f1, from: home, to: nowhere }],
            invalid_config,
        ),
        ("a split placed on a nonexistent site", vec![split(market, nowhere)], invalid_config),
        ("a merge of the root", vec![RefragOp::Merge { child: f0 }], invalid_config),
        ("a split at a non-element node", vec![split(text, away)], |e| {
            matches!(e, PaxError::Fragment(FragmentError::CutAtNonElement { .. }))
        }),
        (
            "a split of an unknown fragment",
            vec![RefragOp::Split { fragment: unknown, cut: market, place_on: away.into() }],
            unknown_fragment,
        ),
        (
            "a merge of an unknown fragment",
            vec![RefragOp::Merge { child: unknown }],
            unknown_fragment,
        ),
        (
            "a migrate of an unknown fragment",
            vec![RefragOp::Migrate { fragment: unknown, from: home, to: away }],
            unknown_fragment,
        ),
        (
            "a valid split, then a migrate of its child from a site with no copy",
            vec![split(market, away), RefragOp::Migrate { fragment: new_id, from: home, to: away }],
            invalid_config,
        ),
    ];

    let query = "client/broker/market/name";
    let observe = |server: &PaxServer| {
        let stats = server.server_stats();
        let stale = server.deployment().health().unrepaired_stale();
        let answers = server.query_once(query).expect("the old topology serves").answer_texts();
        (stats.current_epoch, stats.placement_version, stale, answers)
    };
    let before = observe(&server);
    assert_eq!((before.0, before.1), (0, 0));
    for (row, ops, expected) in rows {
        let error = server.refragment(&ops).expect_err(row);
        assert!(expected(&error), "{row}: unexpected error {error}");
        assert_eq!(observe(&server), before, "{row}: something was published");
    }
    let report = server.refragment(&[split(market, away)]).expect("a valid split");
    assert_eq!((report.epoch, report.placement_version), (1, 1));
    let after = observe(&server);
    assert_eq!((after.0, after.1), (1, 1), "the valid op published exactly once");
    assert_eq!(after.3, before.3, "a split changes no answer");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Split∘Merge round-trips to a no-op: splitting a random FT1 fragment
    /// at its `people` section and merging the new child straight back
    /// yields a deployment bit-identical in answers and per-site visits to
    /// a pristine server that never refragmented — all three algorithms,
    /// random XMark documents.
    #[test]
    fn split_then_merge_round_trips_bit_identically(
        seed in 0u64..1000,
        fragment_count in 3usize..6,
        victim_offset in 0usize..3,
    ) {
        let sites = 3;
        let (_tree, fragmented) = ft1(fragment_count, 0.01, seed);
        let victim = FragmentId(1 + victim_offset % (fragment_count - 1).max(1));
        let cut = fragmented
            .fragment(victim)
            .expect("victim is a real fragment")
            .tree
            .find_first("people")
            .expect("every XMark site subtree has a people section");
        let new_id = FragmentId(fragmented.fragment_tree.max_id().index() + 1);
        for algorithm in ALGORITHMS {
            let pristine = PaxServer::builder()
                .algorithm(algorithm)
                .sites(sites)
                .deploy(&fragmented)
                .expect("deploy pristine");
            let server = PaxServer::builder()
                .algorithm(algorithm)
                .sites(sites)
                .deploy(&fragmented)
                .expect("deploy");
            server.refragment(&[
                RefragOp::Split { fragment: victim, cut, place_on: SiteId(0).into() },
                RefragOp::Merge { child: new_id },
            ]).expect("split then merge");
            prop_assert_eq!(server.server_stats().placement_version, 1);
            for query in queries() {
                let a = server.query_once(query).expect("round-tripped server");
                let b = pristine.query_once(query).expect("pristine server");
                assert_executions_match(&a, &b, &format!("{algorithm} split∘merge {query}"));
            }
        }
    }

    /// Migrate there-and-back round-trips to a no-op the same way.
    #[test]
    fn migrate_there_and_back_round_trips_bit_identically(
        seed in 0u64..1000,
        fragment_count in 3usize..6,
    ) {
        let sites = 3;
        let (_tree, fragmented) = ft1(fragment_count, 0.01, seed);
        for algorithm in ALGORITHMS {
            let pristine = PaxServer::builder()
                .algorithm(algorithm)
                .sites(sites)
                .deploy(&fragmented)
                .expect("deploy pristine");
            let server = PaxServer::builder()
                .algorithm(algorithm)
                .sites(sites)
                .deploy(&fragmented)
                .expect("deploy");
            let home = server.topology().site_of(FragmentId(1));
            let away = SiteId((home.index() + 1) % sites);
            server
                .refragment(&[RefragOp::Migrate { fragment: FragmentId(1), from: home, to: away }])
                .expect("migrate away");
            server
                .refragment(&[RefragOp::Migrate { fragment: FragmentId(1), from: away, to: home }])
                .expect("migrate home");
            prop_assert_eq!(server.server_stats().placement_version, 2);
            for query in queries() {
                let a = server.query_once(query).expect("round-tripped server");
                let b = pristine.query_once(query).expect("pristine server");
                assert_executions_match(&a, &b, &format!("{algorithm} there-and-back {query}"));
            }
        }
    }
}
