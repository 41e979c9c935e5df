//! The end-to-end run of one workload: seven set-ups, the metered first lap
//! on the fresh server, a warm-up, and the timed phase — tracing off.

use crate::rig::{
    deploy_sim, exact_meters, expected_on_fragments, expected_on_tree, expected_per_lap,
    lap_is_correct, visit_bound, Batch, Doc, Origins, Rig, UpdateStream, UPDATE_PERIOD,
};
use crate::{median, percentile, Config, Metrics, Outcome, Workload};
use paxml_core::{Algorithm, ExecReport};
use paxml_fragment::apply_update;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Full set-ups per run; `setup_s` is their median and the last one's
/// server is the one measured.
const SETUPS: usize = 7;
/// The read-only workloads' update tail lasts this share of the timed
/// phase's length (README, "`update_p50_ms` on the read-only workloads").
const UPDATE_TAIL_SHARE: f64 = 0.06;
/// Reads are checked against `xpath::centralized` at every this-many-th
/// epoch (and the first and last); in between, every read of one epoch must
/// agree with every other. Evaluating all eight queries centrally costs
/// ≈ 0.13 s per epoch, too much to do for each of ≈ 125 epochs in a run.
const CHECKPOINT_EVERY: usize = 16;
/// Fewer completed laps per second of timed phase than this and the run
/// fails: at the benchmark's 25 s, `op_p50_ms` would stand on fewer than 25
/// samples either side.
const MIN_LAPS_PER_SECOND: f64 = 2.0;

/// What one closed-loop client saw.
#[derive(Default)]
struct Tally {
    lap_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// A closed loop: the next lap starts when the previous one has completed
/// and been checked. Checking sits outside the lap's timed interval.
fn closed_loop(
    rig: &Rig,
    workload: Workload,
    offset: usize,
    deadline: Instant,
    mut lap_ok: impl FnMut(&[ExecReport]) -> bool,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let start = Instant::now();
        let lap = rig.lap(workload, offset);
        let elapsed = start.elapsed();
        tally.attempted += 1;
        match lap {
            Ok(reports) if lap_ok(&reports) => tally.lap_ms.push(elapsed.as_secs_f64() * 1e3),
            _ => tally.failed += 1,
        }
    }
    tally
}

fn hash_origins(origins: &Origins) -> u64 {
    // FNV-1a over the origin indices.
    origins.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, n| {
        (h ^ n.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the `prepared-rw` reader saw per `(epoch, query)`: the hash of the
/// first answer list, which every later read of that pair must repeat.
type SeenReads = BTreeMap<(u64, usize), u64>;

/// A cached read lap is good when there is one report per query, each with
/// its one outcome, from the cache with zero visits, and agreeing with every
/// earlier read of its epoch.
fn cached_lap_ok(reports: &[ExecReport], seen: &mut SeenReads) -> bool {
    let mut ok = reports.len() == Workload::PreparedRw.queries().len();
    for (query, report) in reports.iter().enumerate() {
        ok &= report.queries.len() == 1;
        let mut origins: Origins = report.answers().iter().map(|a| a.origin).collect();
        origins.sort();
        let hash = hash_origins(&origins);
        ok &= report.from_cache
            && report.max_visits_per_site() == 0
            && *seen.entry((report.epoch, query)).or_insert(hash) == hash;
    }
    ok
}

/// What the open-loop writer did.
struct WriterLog {
    /// Every applied batch with the epoch it published, in order.
    applied: Vec<(u64, Batch)>,
    /// `apply_updates` completion minus the batch's due time.
    latency_ms: Vec<f64>,
    /// `apply_updates` start minus the batch's due time: how late the
    /// generator itself ran.
    late_us: Vec<f64>,
    failed: u64,
    /// The generator's mirror after the last batch.
    workload: UpdateStream,
}

/// The open loop: one batch is due every [`UPDATE_PERIOD`] whether or not
/// the previous one has finished, and each is timed from when it was due.
fn open_loop_writer(rig: &Rig, mut workload: UpdateStream, deadline: Instant) -> WriterLog {
    let start = Instant::now();
    let (mut applied, mut latency_ms, mut late_us, mut failed) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for tick in 0u32.. {
        let due = start + UPDATE_PERIOD * tick;
        if due >= deadline {
            break;
        }
        // Generated in the idle gap before the batch is due.
        let batch = workload.next_batch();
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let begun = Instant::now();
        let result = rig.pax2.apply_updates(&batch);
        let done = Instant::now();
        late_us.push((begun - due).as_secs_f64() * 1e6);
        match result {
            Ok(report) if update_is_clean(&report) => {
                latency_ms.push((done - due).as_secs_f64() * 1e3);
                applied.push((report.epoch, batch));
            }
            _ => failed += 1,
        }
    }
    WriterLog { applied, latency_ms, late_us, failed, workload }
}

/// The read-only workloads' update tail: after the timed phase, with no
/// reader running, a closed loop of update batches against the same server.
/// The driver wants every end-to-end metric from every workload, and these
/// servers hold no session caches, so here `update_p50_ms` is the bare cost
/// of `fragment::update`, the copy-on-write epoch and its publication — plus
/// one socket round on `oneshot-tcp`. Only the PaX2 server's updates are
/// timed; `oneshot-sim`'s PaX3 server gets the same batches so that the final
/// lap finds both servers in the same state.
fn update_tail(rig: &Rig, config: &Config) -> (Vec<f64>, u64, UpdateStream) {
    let mut updates = UpdateStream::new(&rig.fragmented, &rig.tree, config.seed);
    let (mut latency_ms, mut failed) = (Vec::new(), 0);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds * UPDATE_TAIL_SHARE);
    while Instant::now() < deadline {
        let batch = updates.next_batch();
        let start = Instant::now();
        match rig.pax2.apply_updates(&batch) {
            Ok(report) if update_is_clean(&report) => {
                latency_ms.push(start.elapsed().as_secs_f64() * 1e3)
            }
            _ => failed += 1,
        }
        if let Some(pax3) = &rig.pax3 {
            failed += u64::from(!pax3.apply_updates(&batch).is_ok_and(|r| update_is_clean(&r)));
        }
    }
    (latency_ms, failed, updates)
}

/// An update round must visit only dirty sites, each once, and reject no op.
pub fn update_is_clean(report: &ExecReport) -> bool {
    report.max_visits_per_site() <= visit_bound(report)
        && report.clean_site_visits() == 0
        && report.update.as_ref().is_some_and(|u| u.rejected.is_empty())
}

/// Check the reader's hashes against `xpath::centralized` at the checkpoint
/// epochs by replaying the applied batches over the deployed fragmentation.
/// Returns how many `(epoch, query)` pairs the reader saw wrong.
fn wrong_reads_at_checkpoints(rig: &Rig, log: &WriterLog, seen: &SeenReads) -> u64 {
    let queries = Workload::PreparedRw.queries();
    let mut state = rig.fragmented.clone();
    let mut wrong = 0;
    let mut check = |epoch: u64, state: &paxml_fragment::FragmentedTree| {
        for (query, expected) in expected_on_fragments(state, queries).iter().enumerate() {
            if seen.get(&(epoch, query)).is_some_and(|hash| *hash != hash_origins(expected)) {
                wrong += 1;
            }
        }
    };
    let first_epoch = log.applied.first().map_or(0, |(epoch, _)| epoch - 1);
    check(first_epoch, &state);
    for (index, (epoch, batch)) in log.applied.iter().enumerate() {
        for (fragment, op) in batch {
            apply_update(&mut state.fragments[fragment.index()], op)
                .expect("a batch the server applied applies to a replay of the same state");
        }
        if (index + 1) % CHECKPOINT_EVERY == 0 || index + 1 == log.applied.len() {
            check(*epoch, &state);
        }
    }
    wrong
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload end to end. `expected` overrides the answers the laps
/// are held to; the smoke test passes a corrupted list to see a failed op.
pub fn run(config: &Config, expected_override: Option<Vec<Origins>>) -> Outcome {
    let workload = config.workload;
    let queries = workload.queries();
    let mut problems: Vec<String> = Vec::new();
    let doc = Doc::generate(config.vmb, config.seed);

    // ---- set-up, seven times; the last server is the one measured --------
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            previous.close();
        }
        let start = Instant::now();
        rig = Some(Rig::set_up(&doc, workload).expect("set-up succeeds on a healthy host"));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up ran");
    let expected = expected_per_lap(
        workload,
        expected_override.unwrap_or_else(|| expected_on_tree(&rig.tree, queries)),
    );

    // ---- the metered lap: the first lap on the fresh server --------------
    let metered = if workload == Workload::PreparedRw {
        rig.cold_lap.clone()
    } else {
        rig.lap(workload, 0).expect("the metered lap succeeds")
    };
    let mut attempted = 1u64;
    let mut failed = u64::from(!lap_is_correct(&metered, &expected, 0));
    let net_bytes: u64 = metered.iter().map(ExecReport::network_bytes).sum();
    let max_visits = metered.iter().map(ExecReport::max_visits_per_site).max().unwrap_or(0);
    if workload == Workload::OneshotTcp {
        // "TCP bit-identical to the simulator": the same lap on a fresh
        // simulator server must agree on answers and on every exact meter.
        let sim = deploy_sim(Algorithm::PaX2, &rig.fragmented);
        let twin: Vec<ExecReport> =
            queries.iter().map(|q| sim.query_once(q).expect("simulator lap")).collect();
        let same_answers =
            metered.iter().zip(&twin).all(|(tcp, sim)| tcp.answers() == sim.answers());
        if !same_answers || exact_meters(&metered) != exact_meters(&twin) {
            problems.push(format!(
                "TCP metered lap differs from the simulator: {:?} vs {:?}",
                exact_meters(&metered),
                exact_meters(&twin)
            ));
        }
    }

    // ---- warm-up, then the timed phase ------------------------------------
    let timed = Duration::from_secs_f64(config.seconds);
    let warm_up = Duration::from_secs_f64((config.seconds / 10.0).min(2.0));
    let lap_ok = |offset: usize| {
        let expected = &expected;
        move |reports: &[ExecReport]| lap_is_correct(reports, expected, offset)
    };
    let mut seen = SeenReads::new();
    if workload == Workload::PreparedRw {
        closed_loop(&rig, workload, 0, Instant::now() + warm_up, |r| cached_lap_ok(r, &mut seen));
    } else {
        closed_loop(&rig, workload, 0, Instant::now() + warm_up, lap_ok(0));
    }

    let phase_start = Instant::now();
    let deadline = phase_start + timed;
    let mut writer_log = None;
    let tallies: Vec<Tally> = match workload {
        // Two closed-loop clients, the second starting two queries into the
        // list: the only way the transport's round lock can ever show.
        Workload::OneshotTcp => std::thread::scope(|scope| {
            let second = scope.spawn(|| closed_loop(&rig, workload, 2, deadline, lap_ok(2)));
            let first = closed_loop(&rig, workload, 0, deadline, lap_ok(0));
            vec![first, second.join().expect("client threads do not panic")]
        }),
        Workload::PreparedRw => std::thread::scope(|scope| {
            let updates = UpdateStream::new(&rig.fragmented, &rig.tree, config.seed);
            let writer = scope.spawn(|| open_loop_writer(&rig, updates, deadline));
            let reads = closed_loop(&rig, workload, 0, deadline, |r| cached_lap_ok(r, &mut seen));
            writer_log = Some(writer.join().expect("the writer thread does not panic"));
            vec![reads]
        }),
        _ => vec![closed_loop(&rig, workload, 0, deadline, lap_ok(0))],
    };
    let phase_s = phase_start.elapsed().as_secs_f64();
    // Read here, so that the checks below (a reassembled mirror, centralized
    // evaluation) and the update tail do not count as the system's memory.
    let peak_rss_mb = peak_rss_mb();

    let lap_ms: Vec<f64> = tallies.iter().flat_map(|t| t.lap_ms.iter().copied()).collect();
    attempted += tallies.iter().map(|t| t.attempted).sum::<u64>();
    failed += tallies.iter().map(|t| t.failed).sum::<u64>();
    let sample_floor = (config.seconds * MIN_LAPS_PER_SECOND) as usize;
    if lap_ms.len() < sample_floor {
        problems.push(format!("only {} lap samples (need {sample_floor})", lap_ms.len()));
    }

    let mut metrics = Metrics::default();
    let mut extras = Metrics::default();

    // ---- updates: beside the reads on prepared-rw, a tail everywhere else --
    let (update_ms, update_failures, mirror) = match writer_log {
        Some(log) => {
            let wrong_reads = wrong_reads_at_checkpoints(&rig, &log, &seen);
            extras.put(
                "loadgen.update_late_p90_us",
                "us",
                percentile(&log.late_us, 90.0),
                log.late_us.len(),
            );
            (log.latency_ms, log.failed + wrong_reads, log.workload)
        }
        None => update_tail(&rig, config),
    };
    attempted += update_ms.len() as u64 + update_failures;
    failed += update_failures;

    // ---- end state: the server still answers as `centralized` does ---------
    let final_expected =
        expected_per_lap(workload, expected_on_fragments(mirror.mirror(), queries));
    let final_lap = rig.lap(workload, 0).expect("the final lap succeeds");
    attempted += 1;
    failed += u64::from(!lap_is_correct(&final_lap, &final_expected, 0));
    rig.pax2.vacuum().expect("vacuum succeeds");
    let live = rig.pax2.server_stats().live_epochs;
    if live != 1 {
        problems.push(format!("{live} live epochs after vacuum (want 1)"));
    }

    metrics.put("update_p50_ms", "ms", median(&update_ms), update_ms.len());
    metrics.put("setup_s", "s", median(&setup_s), SETUPS);
    metrics.put("throughput_ops_s", "1/s", lap_ms.len() as f64 / phase_s, lap_ms.len());
    metrics.put("op_p50_ms", "ms", median(&lap_ms), lap_ms.len());
    // The two tails are printed and stored but are not end-to-end metrics:
    // on this host they do not repeat within a tenth from one set of runs to
    // the next, and issue 11 has such a metric demoted, not its bound widened.
    extras.put("op_p90_ms", "ms", percentile(&lap_ms, 90.0), lap_ms.len());
    extras.put("update_p90_ms", "ms", percentile(&update_ms, 90.0), update_ms.len());
    metrics.put("net_bytes_per_op", "bytes", net_bytes as f64, 1);
    metrics.put("max_visits_per_site", "count", max_visits as f64, 1);
    // `failed_ops_share` turned round, because the contract wants metrics
    // that are never 0: any failed op pushes this below 1.
    let ok_share = 1.0 - failed as f64 / attempted as f64;
    metrics.put("ok_ops_share", "ratio", ok_share, attempted as usize);
    metrics.put("peak_rss_mb", "MB", peak_rss_mb, 1);
    rig.close();

    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    Outcome { correct: problems.is_empty(), attempted, failed, metrics, extras, problems }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cached_lap_that_drops_a_report_or_an_outcome_is_not_ok() {
        let doc = Doc::generate(1.0, 3);
        let rig = Rig::set_up(&doc, Workload::PreparedRw).expect("set-up");
        let lap = rig.lap(Workload::PreparedRw, 0).expect("a cached lap");
        assert!(cached_lap_ok(&lap, &mut SeenReads::new()));
        assert!(!cached_lap_ok(&lap[1..], &mut SeenReads::new()));
        assert!(!cached_lap_ok(&[], &mut SeenReads::new()));
        let mut emptied = lap.clone();
        emptied[0].queries.clear();
        assert!(!cached_lap_ok(&emptied, &mut SeenReads::new()));
        rig.close();
    }
}
