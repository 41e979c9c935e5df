//! The fault-schedule acceptance suite: replicated fragments + coordinator
//! failover must make any single-site kill invisible to clients.
//!
//! Every test runs a fixed workload — cold prepared queries, an update
//! batch, a re-fragmentation, re-executions — against a `replication = 2`
//! deployment while a deterministic [`FaultPlan`] kills one site for a
//! window of rounds. The acceptance bar is the strongest one available:
//! the *client-visible transcript* (answers, epochs, applied-op counts,
//! rejections) of every faulted run must be **bit-identical** to the
//! fault-free run, with zero client-visible errors — for every choice of
//! victim site, for windows aimed at the query, update and
//! re-fragmentation phases, on both transports (in-process simulator and
//! real site processes over TCP).
//!
//! A third test pins the replayability contract: the same seeded schedule
//! over the same workload produces the same transcript, byte for byte,
//! including any error text.

use paxml::core::RetryPolicy;
use paxml::prelude::*;
use paxml::rebalance::RefragOp;
use paxml::wire::ProcessCluster;
use paxml::xmark::{clientele_fragmentation, UpdateWorkload};
use paxml_distsim::{FaultEvent, FaultKind, FaultPlan, Placement, SiteId};
use std::time::Duration;

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

const BIN: &str = env!("CARGO_BIN_EXE_paxml");

const SITES: usize = 3;
const REPLICAS: usize = 2;
/// Rounds a kill window stays open: wide enough to catch the retry the
/// failover issues, narrow enough that the victim revives within the run.
const WINDOW: u64 = 6;

const QUERIES: [&str; 2] = [
    "client[country/text()='US']/broker[market/name/text()='NASDAQ']/name",
    "//broker[//stock/code/text()='GOOG']/name",
];

/// One kill window for `victim` starting at round tick `from`.
fn kill(victim: SiteId, from: u64) -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent {
        site: victim,
        from_round: from,
        to_round: from + WINDOW,
        kind: FaultKind::Kill,
    }])
}

/// The fixed workload, with every client-visible outcome appended to the
/// transcript. Any error panics: the suite's contract is **zero**
/// client-visible errors under a single-site kill. `tick` reads the
/// deployment's fault clock so the caller learns where the update and
/// re-fragmentation phases start.
fn run_workload(
    server: &PaxServer,
    nodes: usize,
    tick: &dyn Fn() -> u64,
) -> (Vec<String>, u64, u64) {
    let (_tree, fragmented) = clientele_fragmentation();
    let mut log = Vec::new();
    let prepared: Vec<PreparedQuery> =
        QUERIES.iter().map(|q| server.prepare(q).expect("prepare")).collect();
    for (query, p) in QUERIES.iter().zip(&prepared) {
        let report = server.execute(p).expect("cold execution must survive the schedule");
        log.push(format!("cold {query}: {:?} @e{}", report.answer_texts(), report.epoch));
    }

    let update_tick = tick();
    let batch = UpdateWorkload::new(&fragmented, nodes, 13).next_batch(4, 2);
    let report = server.apply_updates(&batch).expect("the update must survive the schedule");
    let outcome = report.update.as_ref().expect("an update reports an outcome");
    log.push(format!(
        "update: applied {} rejected {:?} @e{}",
        outcome.applied_ops, outcome.rejected, report.epoch
    ));
    for (query, p) in QUERIES.iter().zip(&prepared) {
        let report = server.execute(p).expect("post-update execution");
        log.push(format!("updated {query}: {:?} @e{}", report.answer_texts(), report.epoch));
    }

    let refrag_tick = tick();
    // Move fragment 1's primary copy off S1 (its replicas are {S1, S2}
    // under round-robin ×2, so S0 keeps the copies apart).
    let ops = [RefragOp::Migrate { fragment: FragmentId(1), from: SiteId(1), to: SiteId(0) }];
    let report = server.refragment(&ops).expect("the migration must survive the schedule");
    log.push(format!("refrag: @e{} v{}", report.epoch, report.placement_version));
    for (query, p) in QUERIES.iter().zip(&prepared) {
        let report = server.execute(p).expect("post-refrag execution");
        log.push(format!("moved {query}: {:?} @e{}", report.answer_texts(), report.epoch));
    }
    (log, update_tick, refrag_tick)
}

fn sim_server() -> PaxServer {
    let (_tree, fragmented) = clientele_fragmentation();
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(SITES)
        .placement(Placement::RoundRobin)
        .replication(REPLICAS)
        .deploy(&fragmented)
        .expect("deploy the replicated simulator")
}

/// Fault-free reference transcript plus the ticks where the update and
/// re-fragmentation phases start. An *empty* plan is installed so the
/// round clock advances exactly as it will in the faulted runs.
fn sim_reference(nodes: usize) -> (Vec<String>, u64, u64) {
    let server = sim_server();
    server.deployment().set_fault_plan(Some(FaultPlan::scripted(Vec::new())));
    let tick = || server.deployment().current_fault_tick();
    run_workload(&server, nodes, &tick)
}

#[test]
fn any_single_site_kill_is_invisible_on_the_simulator() {
    with_watchdog(|| {
        let (tree, _fragmented) = clientele_fragmentation();
        let nodes = tree.all_nodes().count();
        let (reference, update_tick, refrag_tick) = sim_reference(nodes);
        assert!(!reference.is_empty(), "workload sanity: the transcript has entries");

        for victim in 0..SITES {
            for (phase, from) in [("queries", 0), ("update", update_tick), ("refrag", refrag_tick)]
            {
                let server = sim_server();
                server.deployment().set_fault_plan(Some(kill(SiteId(victim), from)));
                let (transcript, _, _) = run_workload(&server, nodes, &|| 0);
                assert_eq!(
                    transcript, reference,
                    "killing S{victim} during the {phase} phase changed the client transcript"
                );
            }
        }
    });
}

#[test]
fn any_single_site_kill_is_invisible_over_tcp() {
    with_watchdog(|| {
        let (tree, fragmented) = clientele_fragmentation();
        let nodes = tree.all_nodes().count();
        // The simulator is the conformance oracle: its fault-free
        // transcript is what every TCP run — faulted or not — must equal.
        let (reference, update_tick, refrag_tick) = sim_reference(nodes);

        // A kill case: (victim site, window start tick, phase label);
        // `None` is the fault-free conformance run.
        type KillCase = Option<(usize, u64, &'static str)>;
        let mut runs: Vec<(KillCase, Vec<String>)> = Vec::new();
        let mut cases: Vec<KillCase> = vec![None];
        for victim in 0..SITES {
            cases.push(Some((victim, update_tick, "update")));
        }
        // Round out phase coverage without spawning 3×3 process clusters:
        // every site gets its turn as victim, and every phase gets a kill.
        cases.push(Some((0, 0, "queries")));
        cases.push(Some((1, refrag_tick, "refrag")));
        for case in cases {
            let cluster =
                ProcessCluster::spawn(BIN, &fragmented, SITES, Placement::RoundRobin, REPLICAS)
                    .expect("spawn replicated site processes");
            let plan = match case {
                Some((victim, from, _)) => kill(SiteId(victim), from),
                None => FaultPlan::scripted(Vec::new()),
            };
            let server = PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .deploy_over(&fragmented, cluster.transport.clone())
                .expect("deploy over processes");
            server.deployment().set_fault_plan(Some(plan));
            let (transcript, _, _) = run_workload(&server, nodes, &|| 0);
            runs.push((case, transcript));
            drop(server);
        }
        for (case, transcript) in runs {
            match case {
                None => assert_eq!(
                    transcript, reference,
                    "the fault-free TCP transcript must equal the simulator's"
                ),
                Some((victim, _, phase)) => assert_eq!(
                    transcript, reference,
                    "killing S{victim} during the {phase} phase over TCP changed the transcript"
                ),
            }
        }
    });
}

/// An empty round is no round on either transport: `execute_batch(&[])` with
/// a plan installed must leave the fault clock at 0 on the simulator *and*
/// over sockets — one stray tick would skew every later fault window
/// between the two transports.
#[test]
fn an_empty_batch_ticks_the_fault_clock_on_neither_transport() {
    with_watchdog(|| {
        let (_tree, fragmented) = clientele_fragmentation();
        let sim = sim_server();
        let addrs: Vec<std::net::SocketAddr> = (0..SITES)
            .map(|_| {
                let site = paxml::wire::SiteServer::bind("127.0.0.1:0").expect("bind a site");
                let addr = site.local_addr().expect("a bound listener has an address");
                std::thread::spawn(move || site.run());
                addr
            })
            .collect();
        let transport =
            paxml::wire::TcpCluster::connect(&fragmented, &addrs, Placement::RoundRobin)
                .expect("connect to the site threads");
        let tcp = PaxServer::builder()
            .algorithm(Algorithm::PaX2)
            .deploy_over(&fragmented, std::sync::Arc::new(transport))
            .expect("deploy over site threads");
        for (server, name) in [(&sim, "simulator"), (&tcp, "TCP")] {
            server.deployment().set_fault_plan(Some(FaultPlan::scripted(Vec::new())));
            let report = server.execute_batch(&[]).expect("an empty batch is not an error");
            assert_eq!(report.rounds(), 0, "{name}: an empty batch visits no site");
            assert_eq!(server.deployment().current_fault_tick(), 0, "{name}: fault clock");
            assert_eq!(server.cumulative_stats().rounds, 0, "{name}: cumulative meters");
        }
    });
}

/// The replayability contract: a seeded schedule over a fixed workload is
/// deterministic down to the error text. Probing is disabled (one-hour
/// cooldown) so readmission timing — the one wall-clock-dependent knob —
/// cannot make two replays diverge.
#[test]
fn a_seeded_fault_schedule_replays_bit_identically() {
    with_watchdog(|| {
        let (tree, _fragmented) = clientele_fragmentation();
        let nodes = tree.all_nodes().count();
        let plan = FaultPlan::random_kills(0xC0FFEE, SITES, 40, 4, 3);
        assert!(!plan.events().is_empty(), "the seed must schedule something");
        assert_eq!(
            plan,
            FaultPlan::random_kills(0xC0FFEE, SITES, 40, 4, 3),
            "the same seed must build the same schedule"
        );

        let transcript = |plan: &FaultPlan| -> Vec<String> {
            let (_tree, fragmented) = clientele_fragmentation();
            let server = PaxServer::builder()
                .algorithm(Algorithm::PaX2)
                .sites(SITES)
                .placement(Placement::RoundRobin)
                .replication(REPLICAS)
                .retry_policy(RetryPolicy {
                    probe_cooldown: Duration::from_secs(3600),
                    ..RetryPolicy::default()
                })
                .deploy(&fragmented)
                .expect("deploy");
            server.deployment().set_fault_plan(Some(plan.clone()));
            let prepared: Vec<PreparedQuery> =
                QUERIES.iter().map(|q| server.prepare(q).expect("prepare")).collect();
            let mut workload = UpdateWorkload::new(&fragmented, nodes, 29);
            let mut log = Vec::new();
            // Random kill windows may overlap two sites at once, leaving
            // some fragment with no live replica — errors are then
            // *expected*, and the contract is that they replay verbatim.
            for round in 0..4 {
                for p in &prepared {
                    log.push(match server.execute(p) {
                        Ok(report) => {
                            format!("{:?} @e{}", report.answer_texts(), report.epoch)
                        }
                        Err(err) => format!("error: {err}"),
                    });
                }
                log.push(match server.apply_updates(&workload.next_batch(3, 2)) {
                    Ok(report) => format!("update {round} @e{}", report.epoch),
                    Err(err) => format!("update {round} error: {err}"),
                });
            }
            log
        };

        let first = transcript(&plan);
        let second = transcript(&plan);
        assert_eq!(first, second, "one seed, one transcript");
    });
}
