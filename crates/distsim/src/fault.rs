//! Replica sets and the deterministic fault-injection plan.
//!
//! Two concerns live here because they are two halves of one failure model:
//!
//! * [`ReplicaSet`] — where a fragment lives when placement is *replicated*:
//!   an ordered, deduplicated list of sites, primary first. A replication
//!   factor of 1 degenerates to the old single-site placement, which is why
//!   a bare [`SiteId`] converts into a solo set.
//! * [`FaultPlan`] — a *scripted* schedule of per-site, per-round faults.
//!   Instead of killing processes (racy, irreproducible), the coordinator
//!   consults the plan before delivering each round: a site inside a fault
//!   window behaves dead ([`FaultKind::Kill`]), lossy ([`FaultKind::Drop`]),
//!   slow ([`FaultKind::Delay`]) or corrupt ([`FaultKind::Garble`]) — and
//!   *revives by schedule* when the window passes. The same plan over the
//!   same workload replays bit-identically on both transports.
//!
//! Rounds are counted by a per-deployment tick (one per attempted round),
//! so fault windows are expressed in round numbers, not wall-clock time.
//! The plan is only the script; `paxml-core`'s round gate owns the clock
//! and consults the plan, above whichever transport delivers the round.

use crate::site::SiteId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The ordered set of sites holding copies of one fragment.
///
/// Invariants (enforced by every constructor): non-empty, deduplicated,
/// order-preserving — the first entry is the **primary**, the replica a
/// healthy coordinator routes to, so fault-free meters are bit-identical to
/// unreplicated placement. Later entries are failover order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ReplicaSet(Vec<SiteId>);

impl ReplicaSet {
    /// A single-copy set: the degenerate, unreplicated placement.
    pub fn solo(site: SiteId) -> Self {
        ReplicaSet(vec![site])
    }

    /// Build a set from an explicit site list, preserving order and
    /// dropping duplicates. Panics if `sites` is empty — a fragment with no
    /// placement is unroutable.
    pub fn of(sites: impl IntoIterator<Item = SiteId>) -> Self {
        let mut out: Vec<SiteId> = Vec::new();
        for site in sites {
            if !out.contains(&site) {
                out.push(site);
            }
        }
        assert!(!out.is_empty(), "a replica set cannot be empty");
        ReplicaSet(out)
    }

    /// The primary replica — where a healthy coordinator routes.
    pub fn primary(&self) -> SiteId {
        self.0[0]
    }

    /// All replicas, primary first.
    pub fn sites(&self) -> &[SiteId] {
        &self.0
    }

    /// Number of copies.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false — the constructors reject empty sets — but clippy wants
    /// `is_empty` next to `len`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Does this set place a copy on `site`?
    pub fn contains(&self, site: SiteId) -> bool {
        self.0.contains(&site)
    }

    /// Replace the copy at `from` with one at `to` (a migration of one
    /// replica), in place. No-op when `from` is absent. The caller keeps
    /// `to` out of the set beforehand: the sets never hold duplicates.
    pub fn migrate(&mut self, from: SiteId, to: SiteId) {
        if let Some(site) = self.0.iter_mut().find(|site| **site == from) {
            *site = to;
        }
    }
}

impl From<SiteId> for ReplicaSet {
    fn from(site: SiteId) -> Self {
        ReplicaSet::solo(site)
    }
}

impl fmt::Display for ReplicaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, site) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{site}")?;
        }
        write!(f, "}}")
    }
}

/// What happens to a site inside a fault window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The site is dead: requests addressed to it are not delivered and the
    /// round fails with an unreachable error. Transient — failover retries.
    Kill,
    /// Requests to the site take this much longer (the coordinator stalls
    /// for the duration before delivering the round).
    Delay(Duration),
    /// The request is silently lost: indistinguishable from [`Kill`] at the
    /// coordinator (no reply ever comes back, so the deadline fires).
    /// Transient.
    ///
    /// [`Kill`]: FaultKind::Kill
    Drop,
    /// The site answers, but its reply fails to decode. Surfaces as a
    /// protocol error — **permanent**, because a codec mismatch is a bug,
    /// not weather; retrying would re-read the same corruption.
    Garble,
}

/// One scheduled fault: `site` misbehaves as `kind` for every round tick in
/// `[from_round, to_round]` (inclusive). When the deployment's round counter
/// passes `to_round` the site has *revived* — no explicit heal event exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The faulty site.
    pub site: SiteId,
    /// First round tick (inclusive) the fault is active.
    pub from_round: u64,
    /// Last round tick (inclusive) the fault is active.
    pub to_round: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of site faults.
///
/// The plan is consulted by the coordinator's round gate before every
/// round: for each addressed site, the first event covering the current
/// round tick applies. The tick is a per-deployment atomic counter
/// incremented once per attempted round, so the same workload issued in the same order replays
/// the same fault sequence — on the in-process simulator and over TCP alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An explicit, hand-written schedule.
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// A seeded pseudo-random schedule: `count` kill windows of
    /// `window_len` rounds each, spread over `sites` sites and the first
    /// `horizon` rounds. The same seed always yields the same plan (the
    /// generator is a self-contained splitmix64, so the plan does not
    /// depend on any global RNG state).
    pub fn random_kills(seed: u64, sites: usize, horizon: u64, count: usize, window: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: tiny, seedable, and good enough to spread windows.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let site = SiteId((next() % sites.max(1) as u64) as usize);
            let from = next() % horizon.max(1);
            events.push(FaultEvent {
                site,
                from_round: from,
                to_round: from + window,
                kind: FaultKind::Kill,
            });
        }
        FaultPlan { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The fault (if any) active for `site` at round `tick` — the first
    /// covering event wins.
    pub fn fault_at(&self, site: SiteId, tick: u64) -> Option<&FaultKind> {
        self.events
            .iter()
            .find(|e| e.site == site && e.from_round <= tick && tick <= e.to_round)
            .map(|e| &e.kind)
    }

    /// The first non-delay fault among `sites` at round `tick`, in site
    /// order — what the round gate reports when it refuses to deliver the
    /// round. Delay faults never fail a round; collect them with
    /// [`FaultPlan::total_delay`] instead.
    pub fn first_failure(
        &self,
        tick: u64,
        sites: impl IntoIterator<Item = SiteId>,
    ) -> Option<(SiteId, FaultKind)> {
        for site in sites {
            match self.fault_at(site, tick) {
                Some(FaultKind::Delay(_)) | None => continue,
                Some(kind) => return Some((site, kind.clone())),
            }
        }
        None
    }

    /// The summed delay injected into a round addressing `sites` at `tick`.
    pub fn total_delay(&self, tick: u64, sites: impl IntoIterator<Item = SiteId>) -> Duration {
        let mut total = Duration::ZERO;
        for site in sites {
            if let Some(FaultKind::Delay(d)) = self.fault_at(site, tick) {
                total += *d;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_sets_dedupe_and_keep_primary_first() {
        let set = ReplicaSet::of([SiteId(2), SiteId(0), SiteId(2), SiteId(1)]);
        assert_eq!(set.sites(), &[SiteId(2), SiteId(0), SiteId(1)]);
        assert_eq!(set.primary(), SiteId(2));
        assert_eq!(set.len(), 3);
        assert!(set.contains(SiteId(0)));
        assert!(!set.contains(SiteId(3)));
        assert_eq!(set.to_string(), "{S2,S0,S1}");
        let solo: ReplicaSet = SiteId(4).into();
        assert_eq!(solo.sites(), &[SiteId(4)]);
    }

    #[test]
    fn migrate_replaces_one_copy_in_place() {
        let mut set = ReplicaSet::of([SiteId(0), SiteId(1)]);
        set.migrate(SiteId(0), SiteId(2));
        assert_eq!(set.sites(), &[SiteId(2), SiteId(1)]);
        // Migrating an absent copy is a no-op.
        set.migrate(SiteId(9), SiteId(0));
        assert_eq!(set.sites(), &[SiteId(2), SiteId(1)]);
    }

    #[test]
    fn fault_windows_cover_inclusive_ranges_and_revive_after() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent { site: SiteId(1), from_round: 2, to_round: 4, kind: FaultKind::Kill },
            FaultEvent {
                site: SiteId(0),
                from_round: 3,
                to_round: 3,
                kind: FaultKind::Delay(Duration::from_millis(7)),
            },
        ]);
        assert_eq!(plan.fault_at(SiteId(1), 1), None);
        assert_eq!(plan.fault_at(SiteId(1), 2), Some(&FaultKind::Kill));
        assert_eq!(plan.fault_at(SiteId(1), 4), Some(&FaultKind::Kill));
        assert_eq!(plan.fault_at(SiteId(1), 5), None, "the site revives by schedule");
        // Delay never fails a round; Kill does.
        assert_eq!(plan.first_failure(3, [SiteId(0)]), None);
        assert_eq!(
            plan.first_failure(3, [SiteId(0), SiteId(1)]),
            Some((SiteId(1), FaultKind::Kill))
        );
        assert_eq!(plan.total_delay(3, [SiteId(0), SiteId(1)]), Duration::from_millis(7));
        assert_eq!(plan.total_delay(9, [SiteId(0)]), Duration::ZERO);
    }

    #[test]
    fn random_kill_plans_are_seed_deterministic() {
        let a = FaultPlan::random_kills(42, 3, 100, 5, 4);
        let b = FaultPlan::random_kills(42, 3, 100, 5, 4);
        let c = FaultPlan::random_kills(43, 3, 100, 5, 4);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seeds diverge");
        assert_eq!(a.events().len(), 5);
        for event in a.events() {
            assert!(event.site.index() < 3);
            assert_eq!(event.to_round - event.from_round, 4);
            assert_eq!(event.kind, FaultKind::Kill);
        }
    }
}
