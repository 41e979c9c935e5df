//! The topology write path: online re-fragmentation, built as the next
//! epoch, and the export of the current fragmentation.

use super::epochs::{install, EpochBuild};
use super::PaxServer;
use crate::deployment::{ExecCtx, Topology};
use crate::error::{PaxError, PaxResult};
use crate::incremental::QuerySession;
use paxml_distsim::{ClusterStats, ReplicaSet, SiteId};
use paxml_fragment::{Fragment, FragmentId, FragmentTree, FragmentedTree};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl PaxServer {
    /// Re-shape the deployment topology online: apply a re-fragmentation
    /// built by `build` — splits, merges, migrations, any mix — publishing
    /// the result as the **next epoch** exactly like
    /// [`PaxServer::apply_updates`] does for data edits.
    ///
    /// `build` runs against a [`RefragBase`] pinned to the base epoch: it
    /// can fetch fragment payloads (charged protocol rounds, so the meters
    /// stay faithful) and must return the [`TopologyChange`] describing
    /// the new fragment tree, the complete new placement, and the fragment
    /// payloads to install. The server then:
    ///
    /// 1. ships every install to its new site in one round pinned to epoch
    ///    `N + 1` (a failed round — e.g. a site killed mid-migration —
    ///    publishes **nothing**: readers keep epoch `N`);
    /// 2. publishes epoch `N + 1` with the new topology version in one
    ///    pointer swap — the epoch owns its topology, so a reader that pins
    ///    `N + 1` routes by `N + 1`'s;
    /// 3. carries every residual-vector session into the new epoch, whose
    ///    topology re-reads the label sets of the installed fragments:
    ///    sessions whose relevant fragments were untouched (before and
    ///    after) are re-anchored to the new fragment tree coordinator-side
    ///    (zero visits), sessions that overlap the touched fragments are
    ///    cold-reset and re-snapshot lazily on their next execution;
    /// 4. leaves the dissolved `(fragment, site)` copies, and their stale
    ///    marks, to the vacuum sweep, which purges a copy once no live
    ///    epoch's topology places it.
    ///
    /// Readers are never blocked: in-flight executions keep reading their
    /// pinned epoch and its topology version to completion.
    pub fn refragment(
        &self,
        mut build: impl FnMut(&mut RefragBase<'_>) -> PaxResult<TopologyChange>,
    ) -> PaxResult<RefragReport> {
        let start = Instant::now();
        let writer = self.writer.lock().expect("the writer lock is never poisoned");
        let _ = EpochBuild::begin(self, &writer).repair();
        // The builder closure is `FnMut` precisely so a failover can re-run
        // it against fresh health state (its fetches re-route around sites
        // quarantined by the failed attempt).
        self.with_failover(|| {
            let mut epoch = EpochBuild::begin(self, &writer);
            let change = build(&mut epoch.reader)?;
            let base_topology = Arc::clone(&epoch.base.topology);
            self.validate_change(&change, &base_topology)?;

            // Transfer: one install round at N + 1, to every live replica
            // site of each installed fragment.
            let mut by_site: BTreeMap<SiteId, Vec<Fragment>> = BTreeMap::new();
            for fragment in &change.installs {
                for site in epoch.live_copies(fragment.id, &change.placement[&fragment.id], true)? {
                    by_site.entry(site).or_default().push(fragment.clone());
                }
            }
            install(&mut epoch.next, by_site)?;

            // Carry the sessions into the new epoch (no visits).
            let labels = base_topology.labels().map(|labels| {
                Arc::new(labels.refragmented(&change.fragment_tree, &change.installs))
            });
            let next_topology = Arc::new(Topology::new(
                change.fragment_tree,
                change.placement,
                base_topology.version + 1,
                base_topology.root_label().to_string(),
                labels,
            ));
            let mut sessions = epoch.base.cloned_sessions();
            let mut retopologized_sessions = 0usize;
            for session in sessions.values_mut() {
                let overlaps = session.relevant().iter().any(|f| change.touched.contains(f));
                if session.initialized
                    && !overlaps
                    && session.retopologize(&next_topology, &change.touched)
                {
                    retopologized_sessions += 1;
                } else {
                    // Residual vectors mention fragments that changed shape (or
                    // were never snapshotted): start over. The next execution
                    // re-snapshots against the new topology.
                    *session = QuerySession::new(
                        session.query.clone(),
                        Arc::clone(session.query_text()),
                        &next_topology,
                    );
                }
            }

            let mut stats = std::mem::take(&mut epoch.reader.ctx.stats);
            stats.merge(&epoch.next.stats);
            let (base_epoch, placement_version) = (epoch.base.number, next_topology.version);
            let invalidated_sessions = sessions.len() - retopologized_sessions;
            epoch.commit(Some((sessions, Some(next_topology))));
            Ok(RefragReport {
                base_epoch,
                epoch: base_epoch + 1,
                placement_version,
                installed_fragments: change.installs.len(),
                invalidated_sessions,
                retopologized_sessions,
                stats,
                elapsed: start.elapsed(),
            })
        })
    }

    /// Sanity-check a [`TopologyChange`] before anything ships.
    fn validate_change(&self, change: &TopologyChange, base: &Topology) -> PaxResult<()> {
        let sites = self.deployment.site_count();
        if change.fragment_tree.is_empty() {
            return Err(PaxError::InvalidConfig {
                message: "a re-fragmentation cannot leave the tree empty".into(),
            });
        }
        let installed: BTreeSet<FragmentId> = change.installs.iter().map(|f| f.id).collect();
        for &fragment in change.fragment_tree.ids() {
            let Some(replicas) = change.placement.get(&fragment) else {
                return Err(PaxError::InvalidConfig {
                    message: format!("fragment {fragment} has no placement in the new topology"),
                });
            };
            for &site in replicas.sites() {
                if site.index() >= sites {
                    return Err(PaxError::InvalidConfig {
                        message: format!("fragment {fragment} placed on nonexistent site {site}"),
                    });
                }
            }
            // Anything new, moved, or gaining a copy on a site that never
            // held it must ship a payload — that site has no version of it
            // to read.
            let base_set = base.placement.get(&fragment);
            let needs_install =
                replicas.sites().iter().any(|&site| base_set.is_none_or(|set| !set.contains(site)));
            if needs_install && !installed.contains(&fragment) {
                return Err(PaxError::InvalidConfig {
                    message: format!(
                        "fragment {fragment} is new or re-placed on {replicas} but ships no \
                         payload"
                    ),
                });
            }
        }
        for fragment in &installed {
            if !change.fragment_tree.contains(*fragment) {
                return Err(PaxError::InvalidConfig {
                    message: format!("install for fragment {fragment} absent from the new tree"),
                });
            }
        }
        if change.placement.keys().any(|f| !change.fragment_tree.contains(*f)) {
            return Err(PaxError::InvalidConfig {
                message: "the placement maps a fragment the new tree does not have".into(),
            });
        }
        Ok(())
    }

    /// Ship every fragment of the **current** topology to the coordinator
    /// and re-index them densely: the deployment's logical document as one
    /// self-contained [`FragmentedTree`], deployable elsewhere. This is
    /// the conformance oracle of the re-fragmentation tests — after any
    /// split/merge/migrate sequence, a fresh deployment of the export must
    /// answer bit-identically.
    pub fn export_fragmentation(&self) -> PaxResult<FragmentedTree> {
        self.with_failover(|| {
            let mut reader = self.reader(&self.pin());
            let topology = Arc::clone(reader.topology());
            let ids = topology.fragment_tree.ids().iter().copied();
            let shipped = reader.fetch(ids)?.into_values().collect();
            paxml_fragment::compact_fragmentation(shipped, &topology.fragment_tree)
                .map_err(Into::into)
        })
    }
}

/// The new shape a [`PaxServer::refragment`] closure hands back: the
/// complete post-change fragment tree, where every fragment lives, which
/// payloads must ship, and which fragments changed shape.
#[derive(Debug, Clone)]
pub struct TopologyChange {
    /// The fragment tree after the change — the complete tree, not a
    /// delta. Fragment ids the base tree had may be gone (merges),
    /// brand-new ids may appear (splits); ids need not be dense.
    pub fragment_tree: FragmentTree,
    /// Where every fragment of `fragment_tree` lives after the change — an
    /// ordered replica set per fragment, primary first (unreplicated
    /// changes hold solo sets, and `ReplicaSet: From<SiteId>` keeps the
    /// single-site construction terse). Must cover the whole tree.
    pub placement: BTreeMap<FragmentId, ReplicaSet>,
    /// The payloads to install. Every fragment that is **new, or that
    /// gains a copy on a site not holding it in the base topology** must
    /// appear here — that site has no version of it to read. Fragments
    /// whose replica sets stay put ship nothing.
    pub installs: Vec<Fragment>,
    /// Fragments whose *content or shape* changed — split parents and
    /// their offspring, merge products, and every base fragment they
    /// replace. Pure migrations touch nothing. Residual-vector sessions
    /// overlapping this set are invalidated; the rest carry over with
    /// zero visits.
    pub touched: BTreeSet<FragmentId>,
}

/// The base-epoch view a [`PaxServer::refragment`] closure builds against:
/// the topology being re-shaped, plus charged fragment fetches from the
/// sites (so a split or merge can read the payloads it re-cuts and the
/// meters record the true cost of the re-fragmentation).
pub struct RefragBase<'a> {
    /// Reads pinned to the base epoch and routed by its topology; they
    /// retire nothing.
    pub(super) ctx: ExecCtx<'a>,
}

impl RefragBase<'_> {
    /// The topology at the base epoch — what the change is relative to.
    pub fn topology(&self) -> &Topology {
        self.ctx.topology()
    }

    /// Fetch fragment payloads from the sites holding them (one charged
    /// round, grouped by site, pinned to the base epoch).
    pub fn fetch(&mut self, fragments: &[FragmentId]) -> PaxResult<BTreeMap<FragmentId, Fragment>> {
        self.ctx.fetch(fragments.iter().copied())
    }
}

/// What a [`PaxServer::refragment`] did, with the meters it paid doing it.
#[derive(Debug, Clone)]
pub struct RefragReport {
    /// The epoch the change was built against.
    pub base_epoch: u64,
    /// The epoch the change published (`base_epoch + 1`).
    pub epoch: u64,
    /// The topology version the new epoch routes by.
    pub placement_version: u64,
    /// Fragment payloads shipped to their (new) sites.
    pub installed_fragments: usize,
    /// Residual-vector sessions cold-reset because their relevant
    /// fragments changed shape (they re-snapshot on next execution).
    pub invalidated_sessions: usize,
    /// Residual-vector sessions carried into the new epoch with zero
    /// visits — their caches stayed valid under the new topology.
    pub retopologized_sessions: usize,
    /// Cluster meters for the whole re-fragmentation: the closure's
    /// fetches plus the install round.
    pub stats: ClusterStats,
    /// Wall-clock time from closure entry to publish.
    pub elapsed: Duration,
}
