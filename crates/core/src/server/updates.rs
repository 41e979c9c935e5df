//! The data write path: fragment updates, built as the next epoch.

use super::epochs::EpochBuild;
use super::PaxServer;
use crate::error::PaxResult;
use crate::incremental::session_round;
use crate::report::{ExecMode, ExecReport, UpdateOutcome};
use paxml_distsim::SiteId;
use paxml_fragment::{FragmentError, FragmentId, UpdateOp};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

impl PaxServer {
    /// Apply a batch of fragment updates by building the **next epoch**,
    /// visiting **only** the sites that hold an updated fragment — and, on
    /// PaX2 servers, refresh every executed prepared query's
    /// residual-vector cache in that same visit, so subsequent
    /// [`PaxServer::execute`] calls are already current (zero visits,
    /// clean sites untouched throughout).
    ///
    /// Updates **never block readers**: the build runs concurrently with
    /// in-flight executions, which keep reading their pinned epoch; the
    /// new epoch becomes visible in a single swap at the end, so a reader
    /// observes either the pre-update or the post-update answers, never a
    /// torn mix. Concurrent updaters serialize on the writer mutex. A
    /// failed build publishes nothing.
    ///
    /// Ops for the same fragment apply in batch order. An op naming an
    /// unknown fragment fails the whole call before any visit; per-op
    /// validation failures are reported per fragment in the report's
    /// [`UpdateOutcome::rejected`] instead (the deployment stays consistent
    /// — session vectors are refreshed either way).
    pub fn apply_updates(&self, updates: &[(FragmentId, UpdateOp)]) -> PaxResult<ExecReport> {
        let start = Instant::now();
        let writer = self.writer.lock().expect("the writer lock is never poisoned");
        // Recovered sites first: a repaired copy takes this update's write
        // instead of falling further behind. Best-effort — a copy a failed
        // repair leaves stale simply stays off the routing path.
        let _ = EpochBuild::begin(self, &writer).repair();
        self.with_failover(|| {
            let mut build = EpochBuild::begin(self, &writer);
            let topology = Arc::clone(&build.base.topology);
            let mut ops_by_fragment: BTreeMap<FragmentId, Vec<UpdateOp>> = BTreeMap::new();
            for (fragment, op) in updates {
                if !topology.fragment_tree.contains(*fragment) {
                    return Err(
                        FragmentError::UnknownFragment { fragment: fragment.index() }.into()
                    );
                }
                ops_by_fragment.entry(*fragment).or_default().push(op.clone());
            }
            let report = |update, epoch| ExecReport {
                update: Some(update),
                ..ExecReport::skeleton(self.algorithm, ExecMode::Update, epoch, &topology, start)
            };
            if ops_by_fragment.is_empty() {
                // Nothing changes: no visit, no session refreshed, no new
                // epoch — the build is dropped uncommitted.
                return Ok(report(UpdateOutcome::default(), build.base.number));
            }

            let mut site_fragments: BTreeMap<SiteId, Vec<FragmentId>> = BTreeMap::new();
            for &fragment in ops_by_fragment.keys() {
                for site in build.live_copies(fragment, topology.replicas_of(fragment), false)? {
                    site_fragments.entry(site).or_default().push(fragment);
                }
            }

            // Labels the ops bring in grow the next epoch's label sets (a
            // server without annotations keeps none); every session
            // re-plans over them before the round, so a fragment the growth
            // makes relevant is evaluated in it.
            let grown = topology
                .labels()
                .and_then(|labels| labels.grown(&ops_by_fragment, &topology.fragment_tree));
            let next_topology =
                grown.map(|labels| Arc::new(topology.with_labels(Arc::new(labels))));
            let mut sessions = build.base.cloned_sessions();
            if let Some(next_topology) = &next_topology {
                let dirty = ops_by_fragment.keys().copied().collect();
                for session in sessions.values_mut() {
                    session.replan(next_topology, &dirty);
                }
            }

            // The one dirty round: each dirty site gets the ops for its
            // fragments plus, per session, the recompute instructions for
            // its share of that session's dirty-and-relevant fragments.
            // Sites install the updated fragments as versions of the next
            // epoch and recompute vectors against them, while readers on
            // older epochs keep seeing the old versions.
            let round = session_round(
                &mut build.next,
                &site_fragments,
                &ops_by_fragment,
                sessions.iter_mut().map(|(&id, session)| (id, session)).collect(),
            )?;
            let (epoch, stats) = (build.base.number + 1, std::mem::take(&mut build.next.stats));
            build.commit(Some((sessions, next_topology)));
            Ok(ExecReport {
                stats,
                coordinator_ops: round.unify_ops,
                ..report(round.update, epoch)
            })
        })
    }
}
