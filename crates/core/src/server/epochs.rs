//! Epochs: what readers pin, how writers publish, when versions retire.
//!
//! This module owns the epoch handle and registry, the vacuum sweep, and
//! [`EpochBuild`] — the one transaction through which the server changes
//! anything a reader can observe.

use super::PaxServer;
use crate::deployment::{ExecCtx, Topology};
use crate::error::{PaxError, PaxResult};
use crate::incremental::QuerySession;
use crate::protocol::{MsgRefrag, MsgVacuum};
use crate::transport::{ProtocolRequest, VacuumOutcome};
use paxml_distsim::{ReplicaSet, SiteId};
use paxml_fragment::{Fragment, FragmentId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// One immutable deployment epoch: the unit executions pin on entry.
///
/// The fragment *data* of an epoch lives site-side (each site keeps a
/// version list per fragment, read at the pinned epoch number); the
/// coordinator side of an epoch is the topology that routes it and the
/// per-prepared-query residual-vector sessions consistent with that data.
/// The epoch is the only holder of "which topology routes epoch `N`": a
/// topology version lives exactly as long as some epoch pins it. An epoch
/// is dead when the last pinned execution drops its `Arc`; the server
/// tracks epochs through [`Weak`] handles so retirement needs no reference
/// counting of its own.
pub(super) struct EpochInner {
    /// The epoch number tagged onto every protocol message of a pinned
    /// execution. Epoch 0 is the initial deployment.
    pub(super) number: u64,
    /// The fragment tree and placement every execution pinned here routes
    /// by. Consecutive epochs share one `Arc` until a re-fragmentation, or
    /// an update that grows the label sets, publishes a new one.
    pub(super) topology: Arc<Topology>,
    /// Residual-vector caches per prepared query (PaX2 servers), keyed by
    /// the prepared query's id, *consistent with this epoch's data*.
    /// Populated on first execution, carried copy-on-write into the next
    /// epoch by every update. Each session has its own lock so executions
    /// of *different* prepared queries never contend.
    pub(super) sessions: Mutex<BTreeMap<usize, Arc<Mutex<QuerySession>>>>,
}

/// The residual-vector sessions a build carries into the next epoch, by
/// prepared-query id.
pub(super) type Sessions = BTreeMap<usize, QuerySession>;

impl EpochInner {
    /// Clone every session copy-on-write for the next epoch: clean
    /// fragments' cached vectors are shared by reference, only the entries
    /// the build dirties are deep-copied. Each session is locked only for
    /// the duration of its clone — readers on this epoch are never blocked
    /// behind the build. Sessions a concurrent cold execution adds to this
    /// epoch *after* the snapshot simply re-snapshot on their first
    /// execution in the next epoch.
    pub(super) fn cloned_sessions(&self) -> Sessions {
        let table: Vec<(usize, Arc<Mutex<QuerySession>>)> = {
            let map = self.sessions.lock().expect("the session-table lock is never poisoned");
            map.iter().map(|(id, arc)| (*id, Arc::clone(arc))).collect()
        };
        table
            .into_iter()
            .map(|(id, arc)| (id, arc.lock().expect("a session lock is never poisoned").clone()))
            .collect()
    }
}

/// A consistent snapshot of the server's epoch machinery, from
/// [`PaxServer::server_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// The epoch new executions pin right now.
    pub current_epoch: u64,
    /// Epochs still pinned by at least one handle (the current epoch
    /// always counts). Steady state is 1; more means executions are still
    /// draining on older epochs.
    pub live_epochs: usize,
    /// Epochs published and since fully drained (`current_epoch + 1 -
    /// live_epochs`).
    pub retired_epochs: u64,
    /// Bytes of the current epoch's session caches under the canonical
    /// wire encoding (per-session logical size; vectors shared
    /// copy-on-write across epochs are charged once per session).
    pub session_cache_bytes: u64,
    /// The current placement-map (topology) version: 0 until the first
    /// re-fragmentation publishes, incremented by each one after.
    pub placement_version: u64,
    /// Per-site load breakdown, one entry per site of the cluster — the
    /// observability half of the rebalance planner's cost model.
    pub site_loads: Vec<SiteLoad>,
}

impl ServerStats {
    /// The largest resident-bytes figure any single site carries.
    pub fn max_site_bytes(&self) -> u64 {
        self.site_loads.iter().map(SiteLoad::resident_bytes).max().unwrap_or(0)
    }
}

/// One site's load, from [`PaxServer::site_loads`]: what it stores now
/// (its fragments' bytes at the newest epoch) and what it has served since
/// the deployment started (cumulative visits and protocol bytes). It is
/// both what [`ServerStats`] shows and the rebalance planner's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteLoad {
    /// The site.
    pub site: SiteId,
    /// Per-fragment resident bytes at the site's newest epoch, under the
    /// canonical encoding.
    pub fragments: Vec<(FragmentId, u64)>,
    /// Cumulative visits the coordinator paid this site.
    pub visits: u32,
    /// Cumulative protocol bytes moved to and from this site.
    pub bytes_served: u64,
}

impl SiteLoad {
    /// Number of distinct fragments resident at the site.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// Total resident bytes across the site's fragments.
    pub fn resident_bytes(&self) -> u64 {
        self.fragments.iter().map(|(_, bytes)| bytes).sum()
    }
}

/// The epoch registry: every epoch not yet proven dead, by number.
pub(super) type EpochRegistry = BTreeMap<u64, Weak<EpochInner>>;

/// Build the epoch-0 state, routed by the deploy-time `topology`.
pub(super) fn initial_epoch(
    topology: Arc<Topology>,
) -> (Mutex<Arc<EpochInner>>, Mutex<EpochRegistry>) {
    let epoch0 =
        Arc::new(EpochInner { number: 0, topology, sessions: Mutex::new(BTreeMap::new()) });
    let registry = BTreeMap::from([(0, Arc::downgrade(&epoch0))]);
    (Mutex::new(epoch0), Mutex::new(registry))
}

impl PaxServer {
    /// Pin the current epoch: clone the handle under a short lock hold.
    /// The returned `Arc` keeps the epoch live (and its site-side fragment
    /// versions unretired) until the caller drops it.
    pub(super) fn pin(&self) -> Arc<EpochInner> {
        Arc::clone(&self.current.lock().expect("the current-epoch lock is never poisoned"))
    }

    /// A read-only execution context over `epoch`: its number, its
    /// topology, and a watermark that retires nothing.
    pub(super) fn reader(&self, epoch: &EpochInner) -> ExecCtx<'_> {
        ExecCtx::pinned(&self.deployment, epoch.number, Arc::clone(&epoch.topology), 0)
    }

    /// The topology of the current epoch: the fragment tree and placement
    /// new executions route by.
    pub fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.pin().topology)
    }

    /// Sweep the epoch registry — the one place dead entries are pruned —
    /// after admitting `publish`, the epoch a commit is swapping in. Returns
    /// the oldest epoch still pinned anywhere (the retirement watermark:
    /// site-side versions superseded at or below it can never be read
    /// again) and how many epochs are live.
    fn live_epochs(&self, publish: Option<&Arc<EpochInner>>) -> (u64, usize) {
        let mut registry = self.epochs.lock().expect("the epoch registry is never poisoned");
        if let Some(epoch) = publish {
            registry.insert(epoch.number, Arc::downgrade(epoch));
        }
        registry.retain(|_, weak| weak.strong_count() > 0);
        (registry.keys().next().copied().unwrap_or(0), registry.len())
    }

    /// A consistent snapshot of the epoch machinery: current epoch, how
    /// many epochs are still pinned, and the current epoch's session-cache
    /// footprint. The leak check of the stress suite asserts `live_epochs`
    /// returns to 1 once readers drain.
    pub fn server_stats(&self) -> ServerStats {
        let current = self.pin();
        let (_, live_epochs) = self.live_epochs(None);
        let session_cache_bytes = {
            let sessions =
                current.sessions.lock().expect("the session-table lock is never poisoned");
            sessions
                .values()
                .map(|arc| arc.lock().expect("a session lock is never poisoned").cache_bytes())
                .sum()
        };
        ServerStats {
            current_epoch: current.number,
            live_epochs,
            retired_epochs: current.number + 1 - live_epochs as u64,
            session_cache_bytes,
            placement_version: current.topology.version,
            site_loads: self.site_loads(),
        }
    }

    /// Every site's load, one entry per site of the cluster (occupied or
    /// not): one uncharged [`Transport::site_load`](crate::Transport::site_load)
    /// probe per site, joined with the cumulative ledger's visits and bytes.
    pub fn site_loads(&self) -> Vec<SiteLoad> {
        let cumulative = self.deployment.stats();
        (0..self.deployment.site_count())
            .map(|index| {
                let site = SiteId(index);
                let report = self.deployment.transport().site_load(site);
                let served = cumulative.sites.get(&site).cloned().unwrap_or_default();
                SiteLoad {
                    site,
                    fragments: report.fragments,
                    visits: served.visits,
                    bytes_served: served.bytes_received + served.bytes_sent,
                }
            })
            .collect()
    }

    /// Install a hook [`PaxServer::apply_updates`] invokes after the build
    /// round and before the publish swap — test instrumentation for the
    /// wait-freedom suite (a hook that sleeps holds the update open while
    /// readers must keep completing on the old epoch). No reader-visible
    /// lock is held while the hook runs.
    pub fn set_update_hook<F: Fn() + Send + Sync + 'static>(&self, hook: F) {
        *self.update_hook.lock().expect("the update-hook lock is never poisoned") =
            Some(Box::new(hook));
    }

    /// Remove the hook installed by [`PaxServer::set_update_hook`].
    pub fn clear_update_hook(&self) {
        *self.update_hook.lock().expect("the update-hook lock is never poisoned") = None;
    }

    /// Sweep every site — occupied or not — dropping fragment versions no
    /// live epoch can still read and purging every fragment no live epoch's
    /// topology places there (copies left behind by migrations and merges),
    /// and forget the stale marks of those copies. Update rounds already
    /// piggyback the retirement watermark onto the sites they visit;
    /// `vacuum` reaches the sites a sparse update stream never touches.
    /// Returns the total versions dropped and left live across the cluster.
    pub fn vacuum(&self) -> PaxResult<VacuumOutcome> {
        let _writer = self.writer.lock().expect("the writer lock is never poisoned");
        let current = self.pin();
        let (watermark, _) = self.live_epochs(None);
        // Every (site, fragment) copy some live epoch's topology places.
        // Epochs between re-fragmentations share a topology: scan each once.
        let mut topologies: Vec<Arc<Topology>> = {
            let registry = self.epochs.lock().expect("the epoch registry is never poisoned");
            let live = registry.values().filter_map(Weak::upgrade);
            live.map(|epoch| Arc::clone(&epoch.topology)).collect()
        };
        topologies.dedup_by_key(|topology| topology.version);
        let mut keep = BTreeSet::new();
        for (&fragment, replicas) in topologies.iter().flat_map(|t| &t.placement) {
            keep.extend(replicas.sites().iter().map(|&site| (site, fragment)));
        }
        self.deployment.health().forget_unplaced(|fragment, site| keep.contains(&(site, fragment)));
        let (epoch, topology) = (current.number, Arc::clone(&current.topology));
        let mut ctx = ExecCtx::pinned(&self.deployment, epoch, topology, watermark);
        let requests: BTreeMap<SiteId, ProtocolRequest> = (0..self.deployment.site_count())
            .map(|index| {
                let site = SiteId(index);
                let here = keep.range((site, FragmentId(0))..(SiteId(index + 1), FragmentId(0)));
                let keep = here.map(|&(_, fragment)| fragment).collect();
                (site, ProtocolRequest::Vacuum(MsgVacuum { keep }))
            })
            .collect();
        // A failed sweep (a site process died) is harmless: purges are
        // idempotent, and the next sweep recomputes the same keep lists.
        let responses = ctx.round(requests)?;
        let mut outcome = VacuumOutcome { dropped: 0, live_versions: 0 };
        for response in responses.into_values() {
            let swept = response.into_vacuumed()?;
            outcome.dropped += swept.dropped;
            outcome.live_versions += swept.live_versions;
        }
        Ok(outcome)
    }
}

/// The epoch transaction: the only way the server changes what readers can
/// see. [`PaxServer::apply_updates`], [`PaxServer::refragment`] and
/// [`PaxServer::repair`] each `begin` one under the writer lock, do their
/// fallible work against it — rounds through [`EpochBuild::reader`] and
/// [`EpochBuild::next`], the [`EpochBuild::live_copies`] fan-out, [`install`]
/// — and hand the result to the infallible [`EpochBuild::commit`].
///
/// Until `commit` a build touches no coordinator state: side effects it
/// decides on are queued on the build. **Dropping an `EpochBuild` without
/// committing changes nothing**, which is the whole proof that a failed
/// build publishes nothing. What a failed build *has* changed lives on the
/// sites, and is unreachable: versions installed under `N + 1` are orphans
/// no reader can pin (the current epoch is still `N`), and a retried build
/// overwrites them — installs and ops read their base strictly *below* the
/// target epoch, so a retry never stacks on orphaned state. Builds ship
/// installs and ops only, never removals, so a partial round cannot damage
/// an epoch a reader holds either. That makes every build safe to retry
/// wholesale under [`PaxServer::with_failover`].
pub(super) struct EpochBuild<'a> {
    pub(super) server: &'a PaxServer,
    /// The epoch `N` the build starts from, with its topology. The writer
    /// lock makes this the only publisher, so the base is stable throughout.
    pub(super) base: Arc<EpochInner>,
    /// Reads at the base: fetches pinned to `N`, routed by its topology.
    pub(super) reader: ExecCtx<'a>,
    /// Rounds pinned to `N + 1`. They piggyback the oldest live epoch as
    /// the retirement watermark, so visited sites retire dead versions for
    /// free. They address sites explicitly (the live-copy fan-out), so the
    /// base topology they carry never routes a re-fragmentation's installs.
    pub(super) next: ExecCtx<'a>,
    /// Copies that miss this build's write, to be marked stale.
    stale: Vec<(FragmentId, SiteId)>,
    /// Copies this build re-installed whole, to have their stale range
    /// closed.
    pub(super) repaired: Vec<(FragmentId, SiteId)>,
}

impl<'a> EpochBuild<'a> {
    /// Open a build; `_writer` is the caller's proof that it is the only
    /// one. Sites whose quarantine cooldown has elapsed are probed first,
    /// so a site that just came back takes part in this very build.
    pub(super) fn begin(server: &'a PaxServer, _writer: &MutexGuard<'_, ()>) -> Self {
        server.probe_quarantined();
        let base = server.pin();
        let (watermark, _) = server.live_epochs(None);
        let topology = Arc::clone(&base.topology);
        EpochBuild {
            server,
            reader: server.reader(&base),
            next: ExecCtx::pinned(&server.deployment, base.number + 1, topology, watermark),
            base,
            stale: Vec::new(),
            repaired: Vec::new(),
        }
    }

    /// May a build address `site` at all? The one place the build paths ask
    /// about quarantine.
    pub(super) fn is_up(&self, site: SiteId) -> bool {
        !self.server.deployment.health().is_quarantined(site)
    }

    /// The live-replica fan-out: which of `replicas` take this build's
    /// write of `fragment`. Every *live* copy does; a copy on a quarantined
    /// site is skipped and queued to go stale from `N + 1` on, so the
    /// routing layer avoids it until a repair closes the range. When
    /// `installing`, the write is the whole payload: it lands on copies that
    /// are already stale too, and closes their range. Otherwise it is an op
    /// stream, which a copy that already missed a write cannot take. A
    /// fragment with no live copy fails the build — transiently: the
    /// failover loop re-probes and retries.
    pub(super) fn live_copies(
        &mut self,
        fragment: FragmentId,
        replicas: &ReplicaSet,
        installing: bool,
    ) -> PaxResult<Vec<SiteId>> {
        let health = self.server.deployment.health();
        let (live, out): (Vec<SiteId>, Vec<SiteId>) = replicas.sites().iter().partition(|&&site| {
            self.is_up(site)
                && (installing || !health.is_stale_at(fragment, site, self.base.number))
        });
        if live.is_empty() {
            let fragment = fragment.index();
            let detail = if installing {
                format!(
                    "no live site to install fragment {fragment} on: all of {replicas} are \
                     quarantined"
                )
            } else {
                format!(
                    "no live replica of fragment {fragment} to update: all of {replicas} are \
                     quarantined or stale"
                )
            };
            return Err(PaxError::SiteUnreachable { site: replicas.primary(), detail });
        }
        self.stale.extend(out.into_iter().map(|site| (fragment, site)));
        if installing {
            self.repaired.extend(live.iter().map(|&site| (fragment, site)));
        }
        Ok(live)
    }

    /// Apply everything the build decided on, in one fixed order, and —
    /// when the build produced one — publish epoch `N + 1`: `next` is its
    /// sessions plus, for a re-fragmentation or an update that grew the
    /// label sets, its topology (otherwise it keeps the base topology). Infallible, and the only
    /// function that swaps the current epoch, and the only writer of the
    /// stale and repaired marks a build decides on, so every observer sees a
    /// build entirely or not at all. (Outside builds,
    /// [`PaxServer::with_failover`] quarantines sites and marks a copy stale
    /// when its live site answers that it lost it, and the vacuum sweep
    /// forgets the marks of copies no live epoch routes to.)
    pub(super) fn commit(self, next: Option<(Sessions, Option<Arc<Topology>>)>) {
        let server = self.server;
        let health = server.deployment.health();
        // Marks carry the epoch they take effect at: `N + 1` when the build
        // publishes it, `N` for a repair pass. Readers pinned below keep
        // seeing the copies as they were.
        let number = self.base.number + u64::from(next.is_some());
        for (fragment, site) in self.stale {
            health.mark_stale(fragment, site, number);
        }
        for (fragment, site) in self.repaired {
            health.mark_repaired(fragment, site, number);
        }
        let Some((sessions, topology)) = next else { return };

        // Test instrumentation: hold the fully built, not-yet-visible epoch
        // open. No reader-visible lock is held here — readers must keep
        // completing on the base epoch however long the hook takes.
        if let Some(hook) =
            server.update_hook.lock().expect("the update-hook lock is never poisoned").as_ref()
        {
            hook();
        }
        let topology = topology.unwrap_or_else(|| Arc::clone(&self.base.topology));
        let sessions = sessions.into_iter().map(|(id, s)| (id, Arc::new(Mutex::new(s)))).collect();
        let next = Arc::new(EpochInner { number, topology, sessions: Mutex::new(sessions) });
        *server.current.lock().expect("the current-epoch lock is never poisoned") =
            Arc::clone(&next);
        server.live_epochs(Some(&next));
    }
}

/// One `Refrag` round: every site of `by_site` installs its payloads as
/// fragment versions at the epoch `ctx` is pinned to.
pub(super) fn install(
    ctx: &mut ExecCtx<'_>,
    by_site: BTreeMap<SiteId, Vec<Fragment>>,
) -> PaxResult<()> {
    let requests = by_site
        .into_iter()
        .map(|(site, installs)| (site, ProtocolRequest::Refrag(MsgRefrag { installs })))
        .collect();
    for response in ctx.round(requests)?.into_values() {
        if let Some(rejected) = response.into_refragged()?.rejected.into_iter().next() {
            return Err(rejected.into());
        }
    }
    Ok(())
}
