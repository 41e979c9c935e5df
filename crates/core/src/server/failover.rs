//! Fault handling: the retry policy, the failover loop every client-facing
//! operation runs under, and the repair pass that brings a revived site's
//! stale copies back.

use super::epochs::{install, EpochBuild};
use super::PaxServer;
use crate::error::{PaxError, PaxResult};
use std::collections::BTreeMap;
use std::time::Duration;

/// Ceiling on the backoff between two attempts of one operation.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// How a [`PaxServer`] turns transient site faults into retries and
/// failovers. Every client-facing operation — executions, updates,
/// re-fragmentations — runs under this policy: a transient failure
/// ([`PaxError::is_transient`]) quarantines the faulty site, backs off,
/// and retries the whole operation, which re-routes around quarantined
/// sites onto their next live replica. Permanent errors surface
/// immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, first try included (default 3).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_step × n`, never more than
    /// 200 ms (default 10 ms).
    pub backoff_step: Duration,
    /// How long a quarantined site rests before the server probes it for
    /// readmission; a failed probe restarts the cooldown (default 100 ms).
    pub probe_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_step: Duration::from_millis(10),
            probe_cooldown: Duration::from_millis(100),
        }
    }
}

impl PaxServer {
    /// The retry/failover policy of this server.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Probe every quarantined site whose cooldown has elapsed; a site that
    /// answers is readmitted (its stale copies stay off the routing path
    /// until [`PaxServer::repair`] refreshes them).
    pub(super) fn probe_quarantined(&self) {
        let health = self.deployment.health();
        for site in health.due_for_probe(self.retry.probe_cooldown) {
            if self.deployment.probe(site) {
                health.readmit(site);
            } else {
                health.probe_failed(site);
            }
        }
    }

    /// Run one operation under the server's [`RetryPolicy`]: probe due
    /// quarantined sites, attempt, and on a *transient* failure quarantine
    /// the faulty site — or, when a live site lost a copy, mark that copy
    /// stale — back off, and retry the whole operation, which re-routes
    /// around quarantined sites and stale copies onto their next live
    /// replicas. Each attempt is whole-operation: a retried execution pins
    /// the epoch afresh and gets fresh scratch slots (what a failed attempt
    /// parked retires with its epoch), a retried update re-builds its round,
    /// so no attempt ever reads another attempt's partial state. Permanent
    /// errors surface immediately.
    pub(super) fn with_failover<T>(
        &self,
        mut operation: impl FnMut() -> PaxResult<T>,
    ) -> PaxResult<T> {
        let mut attempt = 0u32;
        loop {
            self.probe_quarantined();
            let error = match operation() {
                Ok(value) => return Ok(value),
                Err(error) if error.is_transient() => error,
                Err(error) => return Err(error),
            };
            let health = self.deployment.health();
            match &error {
                PaxError::SiteUnreachable { site, .. } => {
                    health.record_fault(*site);
                }
                // The site is up but lost the copy: mark it stale without
                // quarantining it, so the router picks a replica and `repair`
                // re-installs it. An update round names the epoch it builds,
                // one past the newest its base can be read at. The retry
                // pins the current epoch and routes by its topology, so that
                // is where another copy must exist.
                PaxError::FragmentMissing { site, fragment, epoch } => {
                    let current = self.pin();
                    health.mark_stale(*fragment, *site, (*epoch).min(current.number));
                    let (topology, fragment, now) = (&current.topology, *fragment, current.number);
                    let routed = topology.fragment_tree.contains(fragment);
                    if routed && self.deployment.choose_replica(topology, fragment, now).is_err() {
                        return Err(error); // No other copy: a retry fails the same way.
                    }
                }
                _ => {}
            }
            attempt += 1;
            if attempt >= self.retry.max_attempts.max(1) {
                return Err(error);
            }
            std::thread::sleep((self.retry.backoff_step * attempt).min(BACKOFF_CAP));
        }
    }

    /// Re-install every stale fragment copy whose site has been readmitted:
    /// fetch the current payload from a live replica, ship it to the
    /// recovering site pinned to the **current** epoch, and close the stale
    /// range there — readers pinned inside the outage window keep avoiding
    /// the copy, readers at or after the repair epoch use it again. Returns
    /// the number of copies repaired. Updates and re-fragmentations run
    /// this automatically before building; calling it explicitly shortens
    /// the exposure window after a site rejoins.
    pub fn repair(&self) -> PaxResult<usize> {
        let writer = self.writer.lock().expect("the writer lock is never poisoned");
        EpochBuild::begin(self, &writer).repair()
    }
}

impl EpochBuild<'_> {
    /// The repair pass, as a build that publishes no epoch: per pending
    /// copy, one fetch from a live replica and one install on the
    /// recovering site, both pinned to the base epoch. Each copy is its own
    /// unit — one whose install landed is committed as repaired even if a
    /// later copy's round fails the pass.
    pub(super) fn repair(mut self) -> PaxResult<usize> {
        let mut repaired = 0usize;
        let mut pass = || -> PaxResult<()> {
            for (fragment, site) in self.server.deployment.health().unrepaired_stale() {
                let placement = &self.base.topology.placement;
                if !placement.get(&fragment).is_some_and(|set| set.contains(site)) {
                    // The copy was re-fragmented away; nothing to repair and
                    // the vacuum sweep owns the leftover versions.
                    self.repaired.push((fragment, site));
                    continue;
                }
                if !self.is_up(site) {
                    continue; // Still down; a later pass will get it.
                }
                let Some(payload) = self.reader.fetch([fragment])?.remove(&fragment) else {
                    continue;
                };
                install(&mut self.reader, BTreeMap::from([(site, vec![payload])]))?;
                self.repaired.push((fragment, site));
                repaired += 1;
            }
            Ok(())
        };
        let outcome = pass();
        self.commit(None);
        outcome.map(|()| repaired)
    }
}
