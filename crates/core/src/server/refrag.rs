//! The topology write path: online re-fragmentation, built as the next
//! epoch from a sequence of [`RefragOp`]s, and the export of the current
//! fragmentation.

use super::epochs::{install, EpochBuild};
use super::PaxServer;
use crate::deployment::{ExecCtx, Topology};
use crate::error::{PaxError, PaxResult};
use crate::incremental::QuerySession;
use paxml_distsim::{ClusterStats, ReplicaSet, SiteId};
use paxml_fragment::{
    merge_fragment, split_fragment, Fragment, FragmentError, FragmentId, FragmentTree,
    FragmentedTree,
};
use paxml_xml::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One primitive operation on the deployment topology. A sequence of them
/// is one [`PaxServer::refragment`] call; each op is checked against the
/// topology the ops before it have built, so later ops can name fragments
/// earlier ops created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefragOp {
    /// Cut `fragment` at the interior element `cut`: the subtree below it
    /// becomes a new fragment (the next unused id) placed on `place_on`;
    /// its place in the parent is taken by a virtual node. The §5
    /// annotations of the new edge — and of any sub-fragment edges the cut
    /// carries along — are re-derived incrementally.
    Split {
        /// The fragment to cut.
        fragment: FragmentId,
        /// The element node (in the fragment's own tree) to cut at.
        cut: NodeId,
        /// Where the new fragment will live — every site of the set gets a
        /// copy (`ReplicaSet::from(site)` for the unreplicated case).
        place_on: ReplicaSet,
    },
    /// Splice `child` back into its FT parent: the child's data replaces
    /// the parent's virtual node, the child's sub-fragments are lifted to
    /// the parent with joined annotations, and the child's id disappears.
    Merge {
        /// The fragment to dissolve into its parent.
        child: FragmentId,
    },
    /// Move one copy of `fragment` — data unchanged — to another site. The
    /// rest of its replica set stays put.
    Migrate {
        /// The fragment to move.
        fragment: FragmentId,
        /// The site giving its copy up (must hold one).
        from: SiteId,
        /// The destination site (must not hold one yet).
        to: SiteId,
    },
}

impl PaxServer {
    /// Re-shape the deployment topology online: apply `ops` — splits,
    /// merges, migrations, any mix, in order — publishing the result as
    /// the **next epoch** exactly like [`PaxServer::apply_updates`] does
    /// for data edits. This is the only way the topology changes.
    ///
    /// The ops fold against the base epoch: payloads are fetched from the
    /// sites on demand (charged rounds, so the meters stay faithful), and
    /// fragments created or rewritten by earlier ops are edited in place,
    /// so a split fragment can be split again or migrated within the same
    /// sequence. An op naming an unknown fragment or a nonexistent site, a
    /// migration from a site without a copy or onto one that already holds
    /// a copy, and an invalid cut or merge fail the call before the
    /// install round. The server then:
    ///
    /// 1. ships everything whose content or site changed in one round
    ///    pinned to epoch `N + 1` (a failed round — e.g. a site killed
    ///    mid-migration — publishes **nothing**: readers keep epoch `N`);
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
    pub fn refragment(&self, ops: &[RefragOp]) -> PaxResult<RefragReport> {
        let start = Instant::now();
        let writer = self.writer.lock().expect("the writer lock is never poisoned");
        let _ = EpochBuild::begin(self, &writer).repair();
        // A failover re-runs the fold against fresh health state: its
        // fetches re-route around sites quarantined by the failed attempt.
        self.with_failover(|| {
            let mut epoch = EpochBuild::begin(self, &writer);
            let base_topology = Arc::clone(&epoch.base.topology);
            let sites = self.deployment.site_count();
            let change = TopologyChange::fold(&mut epoch.reader, &base_topology, sites, ops)?;

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

            let mut stats = std::mem::take(&mut epoch.reader.stats);
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
    /// Cluster meters for the whole re-fragmentation: the fold's fetches
    /// plus the install round.
    pub stats: ClusterStats,
    /// Wall-clock time from the call to the publish.
    pub elapsed: Duration,
}

/// What an op sequence folds into: the complete post-change fragment tree,
/// where every fragment lives, which payloads must ship, and which
/// fragments changed shape.
struct TopologyChange {
    /// The fragment tree after the change. Fragment ids the base tree had
    /// may be gone (merges), new ids may appear (splits).
    fragment_tree: FragmentTree,
    /// Every fragment's replica set after the change, primary first.
    placement: BTreeMap<FragmentId, ReplicaSet>,
    /// The payloads to install: every fragment whose content changed or
    /// that gained a copy on a site that did not hold it.
    installs: Vec<Fragment>,
    /// Fragments whose content or shape changed — split parents and their
    /// offspring, merge products, and every base fragment they replace.
    /// Pure migrations touch nothing. Sessions overlapping this set are
    /// cold-reset; the rest carry over with zero visits.
    touched: BTreeSet<FragmentId>,
}

impl TopologyChange {
    /// Fold `ops` in order over `base`, the topology `reader` is pinned
    /// to, on a cluster of `sites` sites.
    fn fold(
        reader: &mut ExecCtx<'_>,
        base: &Topology,
        sites: usize,
        ops: &[RefragOp],
    ) -> PaxResult<Self> {
        let mut ft = base.fragment_tree.clone();
        let mut placement = base.placement.clone();
        // Payloads the sequence has fetched or rewritten so far.
        let mut working: BTreeMap<FragmentId, Fragment> = BTreeMap::new();
        let mut touched: BTreeSet<FragmentId> = BTreeSet::new();
        let mut next_id = ft.max_id().index() + 1;
        let check_site = |site: SiteId| {
            if site.index() < sites {
                return Ok(());
            }
            Err(PaxError::InvalidConfig {
                message: format!("no site {site}: the cluster has {sites}"),
            })
        };

        for op in ops {
            let (RefragOp::Split { fragment, .. }
            | RefragOp::Merge { child: fragment }
            | RefragOp::Migrate { fragment, .. }) = op;
            if !ft.contains(*fragment) {
                return Err(FragmentError::UnknownFragment { fragment: fragment.index() }.into());
            }
            match op {
                RefragOp::Split { fragment, cut, place_on } => {
                    place_on.sites().iter().try_for_each(|&site| check_site(site))?;
                    let source = obtain(reader, &working, *fragment)?;
                    let new_id = FragmentId(next_id);
                    next_id += 1;
                    let outcome = split_fragment(&source, &ft, *cut, new_id)?;
                    ft = outcome.fragment_tree;
                    placement.insert(new_id, place_on.clone());
                    working.insert(*fragment, outcome.parent);
                    working.insert(new_id, outcome.child);
                    touched.insert(*fragment);
                    touched.insert(new_id);
                }
                RefragOp::Merge { child } => {
                    let parent_id = ft.parent(*child).ok_or_else(|| PaxError::InvalidConfig {
                        message: format!("cannot merge {child}: it has no parent fragment"),
                    })?;
                    let child_frag = obtain(reader, &working, *child)?;
                    let parent_frag = obtain(reader, &working, parent_id)?;
                    let outcome = merge_fragment(&parent_frag, &child_frag, &ft)?;
                    ft = outcome.fragment_tree;
                    placement.remove(child);
                    working.remove(child);
                    working.insert(parent_id, outcome.merged);
                    touched.insert(parent_id);
                    touched.insert(*child);
                }
                RefragOp::Migrate { fragment, from, to } => {
                    check_site(*to)?;
                    let replicas =
                        placement.get_mut(fragment).expect("the tree's fragments are placed");
                    if !replicas.contains(*from) || replicas.contains(*to) {
                        return Err(PaxError::InvalidConfig {
                            message: format!(
                                "cannot migrate {fragment} from {from} to {to}: the source must \
                                 hold a copy and the destination must not (replicas: {replicas})"
                            ),
                        });
                    }
                    replicas.migrate(*from, *to);
                }
            }
        }

        // Everything rewritten or re-placed ships. Pure migrations' payloads
        // still live site-side at the base epoch: fetch them all in one
        // round.
        let install_ids: BTreeSet<FragmentId> = ft
            .ids()
            .iter()
            .copied()
            .filter(|f| working.contains_key(f) || base.placement.get(f) != placement.get(f))
            .collect();
        let missing: Vec<FragmentId> =
            install_ids.iter().copied().filter(|f| !working.contains_key(f)).collect();
        let mut fetched = reader.fetch(missing)?;
        let installs = install_ids
            .into_iter()
            .map(|fragment| {
                working.remove(&fragment).or_else(|| fetched.remove(&fragment)).ok_or_else(|| {
                    PaxError::Protocol {
                        message: format!("no payload obtainable for fragment {fragment}"),
                    }
                })
            })
            .collect::<PaxResult<_>>()?;
        Ok(TopologyChange { fragment_tree: ft, placement, installs, touched })
    }
}

/// A fragment's current payload under the sequence so far: the working
/// copy when an earlier op rewrote it, the site's base-epoch version
/// otherwise (one charged fetch round).
fn obtain(
    reader: &mut ExecCtx<'_>,
    working: &BTreeMap<FragmentId, Fragment>,
    fragment: FragmentId,
) -> PaxResult<Fragment> {
    if let Some(payload) = working.get(&fragment) {
        return Ok(payload.clone());
    }
    reader.fetch([fragment])?.remove(&fragment).ok_or_else(|| PaxError::Protocol {
        message: format!("the site holding fragment {fragment} returned no payload"),
    })
}
