//! Cost accounting: visits, messages, bytes, per-site computation.
//!
//! These counters are the measurable form of the paper's performance
//! guarantees:
//!
//! * **visits per site** — PaX3 must stay ≤ 3, PaX2 ≤ 2 (§3, §4);
//! * **network traffic** — `O(|Q|·|FT| + |ans|)` bytes (§3.4);
//! * **total computation** — sum of per-site work, comparable to the
//!   centralized algorithm;
//! * **parallel computation** — the maximum per-site work in each round,
//!   summed over rounds, which models the perceived latency.

use crate::site::SiteId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters for one site.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteStats {
    /// Number of times the coordinator visited (sent work to) this site.
    pub visits: u32,
    /// Elementary operations the site performed (as reported by the tasks).
    pub ops: u64,
    /// Wall-clock time the site spent executing tasks, in nanoseconds.
    pub busy_nanos: u64,
    /// Bytes received from the coordinator.
    pub bytes_received: u64,
    /// Bytes sent back to the coordinator.
    pub bytes_sent: u64,
}

/// A snapshot of what one site currently stores, reported without charging
/// the byte meters (it is control-plane observability, not protocol
/// traffic): the storage-side half of `paxml-core`'s `SiteLoad`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteLoadReport {
    /// The reporting site.
    pub site: SiteId,
    /// Per-fragment resident bytes (newest snapshots, canonical encoding).
    pub fragments: Vec<(paxml_fragment::FragmentId, u64)>,
}

/// What one site's share of a delivered round cost, as the transport
/// observed it: the input of [`ClusterStats::commit_round`]. A transport
/// measures and reports this; it charges nothing itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteWork {
    /// Encoded size of the request the site received.
    pub request_bytes: u64,
    /// Encoded size of the response the site sent back.
    pub response_bytes: u64,
    /// Elementary operations the site's task charged.
    pub ops: u64,
    /// Wall-clock time the site spent in the task.
    pub busy: Duration,
}

/// Counters for a whole distributed execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Per-site counters.
    pub sites: BTreeMap<SiteId, SiteStats>,
    /// Number of coordinator→sites rounds (each round visits every selected
    /// site once, in parallel).
    pub rounds: u32,
    /// Number of individual messages exchanged (requests + responses).
    pub messages: u64,
    /// Wall-clock time of the whole execution as perceived by the
    /// coordinator: for every round, the slowest site determines the round's
    /// duration (parallel computation cost), in nanoseconds.
    pub parallel_nanos: u64,
    /// Elementary operations summed over all rounds and sites — the paper's
    /// *total computation* cost.
    pub total_ops: u64,
    /// Sum over rounds of the *maximum* per-site operations in that round —
    /// a deterministic, machine-independent model of the parallel
    /// computation cost `O(|Q|·max_Si |F_Si|)` (useful when the host has
    /// fewer cores than simulated sites and wall-clock times are noisy).
    pub parallel_ops: u64,
}

impl ClusterStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.sites.values().map(|s| s.bytes_received + s.bytes_sent).sum()
    }

    /// The maximum number of visits any single site received.
    pub fn max_visits_per_site(&self) -> u32 {
        self.sites.values().map(|s| s.visits).max().unwrap_or(0)
    }

    /// Sum of per-site busy time — the "total computation time" plotted in
    /// the paper's Experiment 3 (Fig. 11).
    pub fn total_busy(&self) -> Duration {
        Duration::from_nanos(self.sites.values().map(|s| s.busy_nanos).sum())
    }

    /// The parallel (perceived) execution time — what Figures 9 and 10 plot.
    pub fn parallel_time(&self) -> Duration {
        Duration::from_nanos(self.parallel_nanos)
    }

    /// Charge one delivered round: every visited site's traffic and work,
    /// then the round itself at its slowest and busiest site. The single
    /// place meters are charged — the coordinator applies it to an
    /// execution's recorder and to the deployment's cumulative ledger alike,
    /// whichever transport delivered the round.
    pub fn commit_round(&mut self, work: impl IntoIterator<Item = (SiteId, SiteWork)>) {
        let mut slowest = Duration::ZERO;
        let mut max_ops = 0;
        for (site, w) in work {
            self.record_site_work(site, w.ops, w.busy, w.request_bytes, w.response_bytes);
            slowest = slowest.max(w.busy);
            max_ops = max_ops.max(w.ops);
        }
        self.record_round(slowest, max_ops);
    }

    /// Record one site's participation in a round.
    pub fn record_site_work(
        &mut self,
        site: SiteId,
        ops: u64,
        busy: Duration,
        bytes_received: u64,
        bytes_sent: u64,
    ) {
        let entry = self.sites.entry(site).or_default();
        entry.visits += 1;
        entry.ops += ops;
        entry.busy_nanos += busy.as_nanos() as u64;
        entry.bytes_received += bytes_received;
        entry.bytes_sent += bytes_sent;
        self.messages += 2; // request + response
        self.total_ops += ops;
    }

    /// Record the completion of a parallel round whose slowest site took
    /// `slowest` wall-clock time and performed at most `max_ops` operations.
    pub fn record_round(&mut self, slowest: Duration, max_ops: u64) {
        self.rounds += 1;
        self.parallel_nanos += slowest.as_nanos() as u64;
        self.parallel_ops += max_ops;
    }

    /// The counters accumulated *since* `baseline` was captured — the
    /// per-execution view of a long-lived cluster whose counters only grow.
    ///
    /// Executions snapshot the cumulative stats before they start and report
    /// `current.delta_since(&baseline)`, so back-to-back executions over one
    /// deployment each report their own visits/bytes without anyone having
    /// to remember a `reset()` call. Sites with no activity since the
    /// baseline are omitted from the delta.
    pub fn delta_since(&self, baseline: &ClusterStats) -> ClusterStats {
        let mut delta = ClusterStats {
            sites: BTreeMap::new(),
            rounds: self.rounds.saturating_sub(baseline.rounds),
            messages: self.messages.saturating_sub(baseline.messages),
            parallel_nanos: self.parallel_nanos.saturating_sub(baseline.parallel_nanos),
            total_ops: self.total_ops.saturating_sub(baseline.total_ops),
            parallel_ops: self.parallel_ops.saturating_sub(baseline.parallel_ops),
        };
        for (site, s) in &self.sites {
            let before = baseline.sites.get(site).cloned().unwrap_or_default();
            let d = SiteStats {
                visits: s.visits.saturating_sub(before.visits),
                ops: s.ops.saturating_sub(before.ops),
                busy_nanos: s.busy_nanos.saturating_sub(before.busy_nanos),
                bytes_received: s.bytes_received.saturating_sub(before.bytes_received),
                bytes_sent: s.bytes_sent.saturating_sub(before.bytes_sent),
            };
            if d != SiteStats::default() {
                delta.sites.insert(*site, d);
            }
        }
        delta
    }

    /// Merge the counters of another execution into this one (used when an
    /// algorithm is composed of several phases measured separately).
    pub fn merge(&mut self, other: &ClusterStats) {
        for (site, s) in &other.sites {
            let entry = self.sites.entry(*site).or_default();
            entry.visits += s.visits;
            entry.ops += s.ops;
            entry.busy_nanos += s.busy_nanos;
            entry.bytes_received += s.bytes_received;
            entry.bytes_sent += s.bytes_sent;
        }
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.parallel_nanos += other.parallel_nanos;
        self.total_ops += other.total_ops;
        self.parallel_ops += other.parallel_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_site_work_accumulates() {
        let mut s = ClusterStats::default();
        s.record_site_work(SiteId(0), 100, Duration::from_micros(5), 64, 32);
        s.record_site_work(SiteId(0), 50, Duration::from_micros(3), 10, 20);
        s.record_site_work(SiteId(1), 10, Duration::from_micros(1), 5, 5);
        assert_eq!(s.sites[&SiteId(0)].visits, 2);
        assert_eq!(s.sites[&SiteId(0)].ops, 150);
        assert_eq!(s.sites[&SiteId(1)].visits, 1);
        assert_eq!(s.max_visits_per_site(), 2);
        assert_eq!(s.total_ops, 160);
        assert_eq!(s.total_bytes(), 64 + 32 + 10 + 20 + 5 + 5);
        assert_eq!(s.messages, 6);
    }

    #[test]
    fn rounds_accumulate_parallel_time() {
        let mut s = ClusterStats::default();
        s.record_round(Duration::from_millis(2), 10);
        s.record_round(Duration::from_millis(3), 20);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.parallel_time(), Duration::from_millis(5));
        assert_eq!(s.parallel_ops, 30);
    }

    #[test]
    fn commit_round_charges_every_site_then_the_round_at_its_maxima() {
        let work = |ops, micros, request_bytes, response_bytes| SiteWork {
            request_bytes,
            response_bytes,
            ops,
            busy: Duration::from_micros(micros),
        };
        let mut s = ClusterStats::default();
        s.commit_round([(SiteId(0), work(10, 5, 8, 4)), (SiteId(2), work(30, 2, 1, 1))]);
        s.commit_round([(SiteId(0), work(1, 1, 2, 2))]);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.messages, 6);
        assert_eq!(s.sites[&SiteId(0)].visits, 2);
        assert_eq!(s.sites[&SiteId(0)].bytes_received, 10);
        assert_eq!(s.sites[&SiteId(2)].bytes_sent, 1);
        assert_eq!(s.total_ops, 41);
        assert_eq!(s.parallel_ops, 30 + 1, "the busiest site of each round");
        assert_eq!(s.parallel_time(), Duration::from_micros(5 + 1), "the slowest of each");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = ClusterStats::default();
        a.record_site_work(SiteId(0), 10, Duration::from_micros(1), 1, 1);
        a.record_round(Duration::from_micros(1), 10);
        let mut b = ClusterStats::default();
        b.record_site_work(SiteId(0), 5, Duration::from_micros(2), 2, 2);
        b.record_site_work(SiteId(2), 7, Duration::from_micros(3), 3, 3);
        b.record_round(Duration::from_micros(3), 7);
        a.merge(&b);
        assert_eq!(a.sites[&SiteId(0)].visits, 2);
        assert_eq!(a.sites[&SiteId(0)].ops, 15);
        assert_eq!(a.sites[&SiteId(2)].ops, 7);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.total_ops, 22);
        assert_eq!(a.parallel_ops, 17);
    }

    #[test]
    fn delta_since_reports_only_the_new_work() {
        let mut s = ClusterStats::default();
        s.record_site_work(SiteId(0), 100, Duration::from_micros(5), 64, 32);
        s.record_round(Duration::from_micros(5), 100);
        let baseline = s.clone();
        s.record_site_work(SiteId(0), 40, Duration::from_micros(2), 8, 8);
        s.record_site_work(SiteId(1), 10, Duration::from_micros(1), 4, 4);
        s.record_round(Duration::from_micros(2), 40);

        let delta = s.delta_since(&baseline);
        assert_eq!(delta.sites[&SiteId(0)].visits, 1);
        assert_eq!(delta.sites[&SiteId(0)].ops, 40);
        assert_eq!(delta.sites[&SiteId(1)].visits, 1);
        assert_eq!(delta.rounds, 1);
        assert_eq!(delta.total_ops, 50);
        assert_eq!(delta.total_bytes(), 8 + 8 + 4 + 4);
        assert_eq!(delta.max_visits_per_site(), 1);

        // A delta against itself is empty, including the per-site map.
        let idle = s.delta_since(&s.clone());
        assert!(idle.sites.is_empty());
        assert_eq!(idle.rounds, 0);
    }

    #[test]
    fn empty_stats_have_sane_defaults() {
        let s = ClusterStats::default();
        assert_eq!(s.max_visits_per_site(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.parallel_time(), Duration::ZERO);
    }
}
