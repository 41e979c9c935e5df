//! A deployment: the transport to the sites, the sites' health, and the
//! round gate every round passes; and the [`Topology`] versions that route
//! by it.
//!
//! The coordinator (query site `S_Q`) knows the fragment tree `FT` — which
//! fragment is a sub-fragment of which, where each fragment lives, and the
//! XPath annotations with their §5 index — from the topology an execution
//! is pinned with, but never the fragment *data*; all data access goes
//! through the messaging layer so that traffic and visits are accounted
//! faithfully. The messaging layer itself is pluggable: by
//! default a deployment owns an in-process simulated [`Cluster`], but any
//! [`Transport`] (such as `paxml-wire`'s TCP cluster of real site
//! processes) can stand in — the drivers only ever see the trait.
//!
//! A transport only moves frames. Whether a round is delivered at all, and
//! what it costs, is decided in one place for every transport: the
//! deployment's **round gate** ([`ExecCtx::round`]) consults the installed
//! [`FaultPlan`], ticks the fault clock, lets the transport deliver, and
//! commits the observed bytes, ops and time with one function
//! ([`ClusterStats::commit_round`]) to the execution's recorder and the
//! deployment's cumulative ledger.

use crate::error::{PaxError, PaxResult};
use crate::prune::{FragmentLabels, PathTrie};
use crate::transport::{
    injected_fault_error, EpochRequest, ProtocolRequest, ProtocolResponse, Transport,
};
use paxml_distsim::{Cluster, ClusterStats, Delivery, FaultKind, FaultPlan, ReplicaSet, SiteId};
use paxml_fragment::{Fragment, FragmentId, FragmentTree, FragmentedTree};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One immutable version of the deployment's *topology*: the fragment tree
/// (with its §5 annotations) plus the fragment→site placement map, tagged
/// with a monotonically increasing version, and the §5 index over them.
///
/// A topology belongs to the epochs that route by it: the server's pinned
/// epoch holds its `Arc`, and every execution routes through the one its
/// [`ExecCtx`] was pinned with. A reader that pinned epoch `N` therefore
/// keeps routing fragments to the sites that held them at `N` even while a
/// re-fragmentation publishes epoch `N+1` with fragments moved elsewhere,
/// and a version nobody pins any more is simply dropped.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The fragment tree `FT` with its annotations.
    pub fragment_tree: FragmentTree,
    /// Which sites store each fragment — an ordered [`ReplicaSet`] per
    /// fragment, primary first. Unreplicated deployments hold solo sets.
    pub placement: BTreeMap<FragmentId, ReplicaSet>,
    /// Version counter: 0 for the deploy-time topology, bumped by every
    /// published re-fragmentation. Carried on `ExecReport` so callers can
    /// assert which topology served a read.
    pub version: u64,
    /// The document root element's label, where every annotation path
    /// starts.
    root_label: String,
    /// The §5 index: the label-path trie over the fragment annotations,
    /// carrying the fragments' label sets, shared by every query planned
    /// under this topology; `None` when the server runs without
    /// annotations. An update that brings a label into a fragment publishes
    /// a copy of the topology with grown sets under the same version.
    annotations: Option<Arc<PathTrie>>,
}

impl Topology {
    /// Assemble a topology version, building its §5 index when `labels`
    /// is given. `labels` must describe `fragment_tree`, whose document
    /// root element is labelled `root_label`.
    pub fn new(
        fragment_tree: FragmentTree,
        placement: BTreeMap<FragmentId, ReplicaSet>,
        version: u64,
        root_label: String,
        labels: Option<Arc<FragmentLabels>>,
    ) -> Topology {
        let annotations = labels.map(|labels| {
            Arc::new(PathTrie::build(&fragment_tree, &root_label).with_labels(labels))
        });
        Topology { fragment_tree, placement, version, root_label, annotations }
    }

    /// The same topology with grown label sets, and its index rebuilt over
    /// them.
    pub(crate) fn with_labels(&self, labels: Arc<FragmentLabels>) -> Topology {
        let (ft, placement) = (self.fragment_tree.clone(), self.placement.clone());
        Topology::new(ft, placement, self.version, self.root_label.clone(), Some(labels))
    }

    /// The §5 index every query under this topology is analysed with;
    /// `None` without annotations.
    pub fn annotations(&self) -> Option<&PathTrie> {
        self.annotations.as_deref()
    }

    /// The document root element's label.
    pub fn root_label(&self) -> &str {
        &self.root_label
    }

    /// The fragments' label sets; `None` without annotations.
    pub fn labels(&self) -> Option<&FragmentLabels> {
        self.annotations()?.labels.as_deref()
    }

    /// The *primary* site storing a fragment (the first replica).
    ///
    /// # Panics
    /// Panics if the fragment is not part of this topology — routing a
    /// fragment through the wrong epoch's topology is a coordinator bug.
    pub fn site_of(&self, fragment: FragmentId) -> SiteId {
        self.replicas_of(fragment).primary()
    }

    /// All sites storing a fragment, primary first.
    ///
    /// # Panics
    /// Panics if the fragment is not part of this topology.
    pub fn replicas_of(&self, fragment: FragmentId) -> &ReplicaSet {
        self.placement.get(&fragment).expect("every fragment of a topology version has a placement")
    }

    /// Number of fragments in this topology.
    pub fn fragment_count(&self) -> usize {
        self.fragment_tree.len()
    }

    /// The sites that hold at least one fragment copy under this topology.
    pub fn occupied_sites(&self) -> BTreeSet<SiteId> {
        self.placement.values().flat_map(|set| set.sites().iter().copied()).collect()
    }
}

/// The epoch range over which one fragment copy is known to be outdated.
///
/// A copy goes stale when an update (or re-fragmentation install) could not
/// reach its site: every epoch from `stale_from` on reads wrong data there.
/// A later repair re-installs the copy as of epoch `repaired_at`, closing
/// the range — readers pinned inside `[stale_from, repaired_at)` must still
/// avoid the copy (the repair installed only the *current* snapshot, not
/// the missed intermediate versions), readers at or after `repaired_at` may
/// use it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRange {
    /// First epoch (inclusive) at which the copy is outdated.
    pub stale_from: u64,
    /// Epoch at which the copy was re-installed from a live replica, if it
    /// has been.
    pub repaired_at: Option<u64>,
}

impl StaleRange {
    /// Is the copy unusable for a reader pinned at `epoch`?
    pub fn covers(&self, epoch: u64) -> bool {
        self.stale_from <= epoch && self.repaired_at.is_none_or(|r| epoch < r)
    }
}

/// Coordinator-side health bookkeeping for the sites: quarantine and
/// per-copy staleness.
///
/// The state machine per site is `live → quarantined → (probe ok) → live`:
/// a transient fault quarantines the site (the router stops choosing its
/// copies), and after a cooldown the server probes it for readmission.
/// Staleness is tracked per *(fragment, site)* copy, not per site: a
/// readmitted site serves again immediately for copies that never missed a
/// write, while copies that did stay off the routing path until repaired.
///
/// All methods take `&self`: the tracker is shared by every concurrent
/// execution of a server and synchronizes internally.
#[derive(Debug, Default)]
pub struct SiteHealth {
    inner: Mutex<HealthState>,
}

#[derive(Debug, Default)]
struct HealthState {
    /// Quarantined sites with the time of quarantine entry (or of the last
    /// failed probe — the probe cooldown restarts on every failure).
    quarantined: BTreeMap<SiteId, Instant>,
    /// Copies that missed a write, with the epoch range they are unusable
    /// for.
    stale: BTreeMap<(FragmentId, SiteId), StaleRange>,
}

impl SiteHealth {
    fn lock(&self) -> std::sync::MutexGuard<'_, HealthState> {
        self.inner.lock().expect("the health lock is never poisoned")
    }

    /// Record a transient fault at `site`: quarantine it, keeping the
    /// entry time of a site already quarantined.
    pub fn record_fault(&self, site: SiteId) {
        self.lock().quarantined.entry(site).or_insert_with(Instant::now);
    }

    /// Is the site currently quarantined?
    pub fn is_quarantined(&self, site: SiteId) -> bool {
        self.lock().quarantined.contains_key(&site)
    }

    /// Quarantined sites whose cooldown has elapsed — due for a liveness
    /// probe.
    pub fn due_for_probe(&self, cooldown: Duration) -> Vec<SiteId> {
        let state = self.lock();
        state
            .quarantined
            .iter()
            .filter(|(_, since)| since.elapsed() >= cooldown)
            .map(|(&site, _)| site)
            .collect()
    }

    /// A probe failed: keep the site quarantined and restart its cooldown.
    pub fn probe_failed(&self, site: SiteId) {
        if let Some(since) = self.lock().quarantined.get_mut(&site) {
            *since = Instant::now();
        }
    }

    /// A probe succeeded: readmit the site. Stale copies it holds stay off
    /// the routing path until repaired.
    pub fn readmit(&self, site: SiteId) {
        self.lock().quarantined.remove(&site);
    }

    /// Record that the copy of `fragment` at `site` missed the write that
    /// produced `epoch`. If the copy is already stale and unrepaired the
    /// earlier range stands; a repaired copy going stale again opens a new
    /// range.
    pub fn mark_stale(&self, fragment: FragmentId, site: SiteId, epoch: u64) {
        let mut state = self.lock();
        match state.stale.get_mut(&(fragment, site)) {
            Some(range) if range.repaired_at.is_none() => {
                range.stale_from = range.stale_from.min(epoch);
            }
            _ => {
                state
                    .stale
                    .insert((fragment, site), StaleRange { stale_from: epoch, repaired_at: None });
            }
        }
    }

    /// Is the copy of `fragment` at `site` unusable at `epoch`?
    pub fn is_stale_at(&self, fragment: FragmentId, site: SiteId, epoch: u64) -> bool {
        self.lock().stale.get(&(fragment, site)).is_some_and(|range| range.covers(epoch))
    }

    /// Every copy currently stale with no repair recorded.
    pub fn unrepaired_stale(&self) -> Vec<(FragmentId, SiteId)> {
        self.lock()
            .stale
            .iter()
            .filter(|(_, range)| range.repaired_at.is_none())
            .map(|(&key, _)| key)
            .collect()
    }

    /// Record that the copy of `fragment` at `site` was re-installed from a
    /// live replica as of `epoch`.
    pub fn mark_repaired(&self, fragment: FragmentId, site: SiteId, epoch: u64) {
        if let Some(range) = self.lock().stale.get_mut(&(fragment, site)) {
            range.repaired_at = Some(epoch);
        }
    }

    /// Drop the marks of every copy `placed` rejects: copies no live
    /// epoch's topology places any more, which no reader can route to.
    pub fn forget_unplaced(&self, placed: impl Fn(FragmentId, SiteId) -> bool) {
        self.lock().stale.retain(|&(fragment, site), _| placed(fragment, site));
    }
}

/// The round gate's state: everything that decides whether a round goes out
/// and records what it cost, kept above the [`Transport`] so every transport
/// is faulted and charged by the same code.
#[derive(Default)]
struct RoundGate {
    /// The installed fault schedule, if any (interior mutability so a test
    /// can arm faults on an already-shared deployment).
    fault: Mutex<Option<FaultPlan>>,
    /// Round counter indexing the fault plan: advanced once per attempted
    /// round while a plan is installed, so the same workload replays the
    /// same fault sequence on any transport.
    fault_tick: AtomicU64,
    /// Cumulative meters since deployment, committed one whole round at a
    /// time under the lock so a snapshot never observes a torn round.
    ledger: Mutex<ClusterStats>,
    /// Source of unique scratch slots (see [`Deployment::allocate_slots`]).
    next_slot: AtomicUsize,
}

impl RoundGate {
    fn plan(&self) -> std::sync::MutexGuard<'_, Option<FaultPlan>> {
        self.fault.lock().expect("the fault-plan lock is never poisoned")
    }

    /// Decide whether a round addressed to `requests`' sites goes out. With
    /// a plan installed, every attempted round advances the fault clock and
    /// is checked against the schedule *atomically*: a `Kill`/`Drop`/
    /// `Garble` on any target fails the whole round with nothing delivered
    /// (the link itself stays healthy, so the site serves again once its
    /// window closes); `Delay`s stall the coordinator, then the round goes.
    fn admit(
        &self,
        transport: &dyn Transport,
        requests: &BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<()> {
        let stall = {
            let plan = self.plan();
            let Some(plan) = plan.as_ref() else { return Ok(()) };
            let tick = self.fault_tick.fetch_add(1, Ordering::Relaxed);
            if let Some((site, kind)) = plan.first_failure(tick, requests.keys().copied()) {
                let operation = requests[&site].body.kind();
                return Err(injected_fault_error(site, &kind, &transport.peer(site), operation));
            }
            plan.total_delay(tick, requests.keys().copied())
        };
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        Ok(())
    }

    /// Charge a delivered round to the execution's `recorder` and to the
    /// cumulative ledger — the same function over the same observations, so
    /// the two can only differ by which rounds they saw.
    fn commit(
        &self,
        recorder: &mut ClusterStats,
        delivered: &BTreeMap<SiteId, Delivery<ProtocolResponse>>,
    ) {
        let mut ledger = self.ledger.lock().expect("the ledger lock is never poisoned");
        for stats in [&mut *ledger, recorder] {
            stats.commit_round(delivered.iter().map(|(site, d)| (*site, d.work)));
        }
    }
}

/// A deployment of one fragmented document over a set of sites: the
/// transport, the sites' health and the round gate. It holds no document
/// metadata — what the coordinator knows of the document is in the
/// [`Topology`] each execution is pinned with.
pub struct Deployment {
    /// The transport to the simulated or real sites.
    transport: Arc<dyn Transport>,
    /// Site health bookkeeping shared by every execution: quarantine and
    /// stale copies.
    health: SiteHealth,
    /// Fault plan, fault clock, cumulative ledger and slot counter.
    gate: RoundGate,
}

impl Deployment {
    /// Run over an already-built transport: a simulated [`Cluster`] (e.g.
    /// `Arc::new(Cluster::new(&fragmented, sites, placement))`), or a TCP
    /// cluster whose site processes have already loaded their fragments.
    /// The fragment *data* is wherever the transport put it.
    pub fn over_transport(transport: Arc<dyn Transport>) -> Self {
        Deployment { transport, health: SiteHealth::default(), gate: RoundGate::default() }
    }

    /// The transport this deployment talks to its sites through.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// The in-process simulator cluster, when that is the transport
    /// (test instrumentation and simulator-only reporting).
    pub fn cluster(&self) -> Option<&Cluster> {
        self.transport().as_cluster()
    }

    /// Number of sites behind the transport.
    pub fn site_count(&self) -> usize {
        self.transport().site_count()
    }

    /// The deploy-time topology (version 0): `fragmented`'s tree, placed
    /// where the transport loaded it, with its §5 index over its fragments'
    /// label sets when `annotations` is on. The server pins it as epoch 0's; server-less
    /// callers pin it into their [`ExecCtx`] themselves. This is the only
    /// time the transport's static assignment is consulted (it cannot know
    /// about fragments created by later splits).
    pub fn deployed_topology(
        &self,
        fragmented: &FragmentedTree,
        annotations: bool,
    ) -> Arc<Topology> {
        let ft = &fragmented.fragment_tree;
        let placement = ft.ids().iter().map(|&f| (f, self.transport.replicas_of(f))).collect();
        let root_label = fragmented.root_fragment().root_label.clone();
        let labels = annotations.then(|| Arc::new(FragmentLabels::build(fragmented)));
        Arc::new(Topology::new(ft.clone(), placement, 0, root_label, labels))
    }

    /// The health tracker shared by every execution over this deployment.
    pub fn health(&self) -> &SiteHealth {
        &self.health
    }

    /// Pick the replica of `fragment` a reader pinned at `epoch` should
    /// visit: the first copy (primary-first order) whose site is not
    /// quarantined and whose data is not stale at `epoch`. With no faults
    /// recorded this is always the primary, so fault-free meters are
    /// bit-identical to unreplicated routing.
    pub fn choose_replica(
        &self,
        topology: &Topology,
        fragment: FragmentId,
        epoch: u64,
    ) -> PaxResult<SiteId> {
        let replicas = topology.replicas_of(fragment);
        for &site in replicas.sites() {
            if !self.health.is_quarantined(site) && !self.health.is_stale_at(fragment, site, epoch)
            {
                return Ok(site);
            }
        }
        // Every copy is out. Blame the primary — with replication factor 1
        // this is exactly the site whose death the caller observed, which
        // keeps single-copy failure reporting unchanged.
        Err(PaxError::SiteUnreachable {
            site: replicas.primary(),
            detail: format!(
                "no live replica of fragment {} at epoch {epoch}: all of {replicas} are \
                 quarantined or stale",
                fragment.index()
            ),
        })
    }

    /// Hand out `n` scratch *slots* no other caller will ever receive.
    ///
    /// A slot is the namespace key executions use to keep their per-site
    /// scratch state apart (candidate answer sets between the two PaX
    /// visits, per-query batch state). Executions that may run concurrently
    /// over one deployment must not share slots; allocating is a single
    /// atomic add. Returns the first slot of the contiguous block
    /// `[base, base+n)`.
    pub fn allocate_slots(&self, n: usize) -> usize {
        self.gate.next_slot.fetch_add(n.max(1), Ordering::Relaxed)
    }

    /// A consistent snapshot of the cumulative meters since deployment.
    /// Rounds are committed whole under a lock, so two snapshots bracketing
    /// any set of (even concurrent) executions yield an accurate
    /// [`ClusterStats::delta_since`].
    pub fn stats(&self) -> ClusterStats {
        self.gate.ledger.lock().expect("the ledger lock is never poisoned").clone()
    }

    /// Install (or clear) the deterministic fault schedule consulted before
    /// every subsequent round, whatever the transport.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.gate.plan() = plan;
    }

    /// The round tick the *next* round will be indexed at under the
    /// installed [`FaultPlan`], without advancing the clock — chaos
    /// schedules use it to aim fault windows at workload phases.
    pub fn current_fault_tick(&self) -> u64 {
        self.gate.fault_tick.load(Ordering::Relaxed)
    }

    /// Is the site answering *right now*? Used by the health tracker to
    /// re-probe a quarantined site before readmitting it. A scheduled fault
    /// makes a live link look dead too; probes *peek* at the fault clock
    /// (they are not rounds) and touch no meter.
    pub fn probe(&self, site: SiteId) -> bool {
        let tick = self.current_fault_tick();
        let faulted = self.gate.plan().as_ref().is_some_and(|plan| {
            matches!(
                plan.fault_at(site, tick),
                Some(FaultKind::Kill | FaultKind::Drop | FaultKind::Garble)
            )
        });
        !faulted && self.transport().link_alive(site)
    }
}

/// A borrowed execution context: one execution's private view of a shared
/// deployment.
///
/// Every algorithm driver runs against an `ExecCtx` instead of a
/// `&mut Deployment`. The context borrows the deployment *shared* — any
/// number of executions may run concurrently over one deployment — and owns
/// this execution's [`ClusterStats`] recorder: [`ExecCtx::round`] commits
/// every delivered round to it, so [`ExecCtx::stats`] accumulates the
/// visits/bytes/ops of **this execution only** while the deployment's
/// cumulative ledger grows in the background. This is what lets
/// per-execution reports stay exact without racing `delta_since` snapshots
/// of a shared counter.
///
/// Every context is **pinned to one deployment epoch**: each round wraps its
/// requests in an [`EpochRequest`] envelope carrying the pinned epoch (and a
/// retirement watermark), so all visits of an execution read one consistent
/// set of fragment snapshots no matter how many updates publish mid-flight,
/// and routes them by the [`Topology`] it was pinned with. A `PaxServer`
/// pins the epoch current at execution entry, with that epoch's topology;
/// pinning the read-only [`paxml_distsim::LATEST_EPOCH`] reads the newest
/// snapshots.
pub struct ExecCtx<'a> {
    deployment: &'a Deployment,
    /// The epoch every round of this execution reads.
    epoch: u64,
    /// The fragment tree and placement every round routes by.
    topology: Arc<Topology>,
    /// The retirement watermark shipped with every round (0 retires
    /// nothing; update rounds carry the coordinator's min-live epoch).
    retire_below: u64,
    /// Memoized per-fragment replica choice. PaX parks per-site scratch
    /// between its two visits, so *both* rounds of one execution must hit
    /// the same copy of each fragment even if health state changes
    /// mid-execution — the first resolution wins for the execution's whole
    /// lifetime.
    route: BTreeMap<FragmentId, SiteId>,
    /// The cluster meters of this execution only.
    pub stats: ClusterStats,
}

impl<'a> ExecCtx<'a> {
    /// Start an execution pinned to `epoch` and routed by `topology`,
    /// shipping `retire_below` as the retirement watermark on every round.
    pub fn pinned(
        deployment: &'a Deployment,
        epoch: u64,
        topology: Arc<Topology>,
        retire_below: u64,
    ) -> Self {
        ExecCtx {
            deployment,
            epoch,
            topology,
            retire_below,
            route: BTreeMap::new(),
            stats: ClusterStats::default(),
        }
    }

    /// The replica site this execution visits for `fragment`: the first
    /// live copy under the execution's epoch, memoized so every later round
    /// of this execution routes identically (PaX's parked scratch lives at
    /// that site). Fails when no copy of the fragment is live.
    pub fn site_for(&mut self, fragment: FragmentId) -> PaxResult<SiteId> {
        if let Some(&site) = self.route.get(&fragment) {
            return Ok(site);
        }
        let site = self.deployment.choose_replica(&self.topology, fragment, self.epoch)?;
        self.route.insert(fragment, site);
        Ok(site)
    }

    /// Group fragments by the replica site this execution visits for each.
    /// Every driver routes its rounds through this.
    pub fn group_by_site(
        &mut self,
        fragments: impl IntoIterator<Item = FragmentId>,
    ) -> PaxResult<BTreeMap<SiteId, Vec<FragmentId>>> {
        let mut out: BTreeMap<SiteId, Vec<FragmentId>> = BTreeMap::new();
        for f in fragments {
            out.entry(self.site_for(f)?).or_default().push(f);
        }
        Ok(out)
    }

    /// Fetch fragment payloads from the sites this execution routes them
    /// to: one charged round, grouped by site.
    pub(crate) fn fetch(
        &mut self,
        fragments: impl IntoIterator<Item = FragmentId>,
    ) -> PaxResult<BTreeMap<FragmentId, Fragment>> {
        let requests = self
            .group_by_site(fragments)?
            .into_iter()
            .map(|(site, fragments)| (site, ProtocolRequest::FetchFragments(fragments)))
            .collect();
        let mut fetched = BTreeMap::new();
        for response in self.round(requests)?.into_values() {
            fetched.extend(response.into_fragments()?.into_iter().map(|f| (f.id, f)));
        }
        Ok(fetched)
    }

    /// The shared deployment this execution runs over.
    pub fn deployment(&self) -> &'a Deployment {
        self.deployment
    }

    /// The epoch this execution is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The topology this execution was pinned with — the fragment tree and
    /// placement every round of this execution routes by.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// One coordinator round through the deployment's round gate: admit
    /// (fault plan and clock), let the transport deliver, commit what it
    /// observed to this execution's meters and the cumulative ledger. An
    /// empty round touches neither the clock nor the meters. Fails on an
    /// injected fault (nothing delivered, nothing charged), when a remote
    /// site is unreachable, or — after charging the delivered round — with
    /// [`PaxError::FragmentMissing`] when a site answered
    /// [`ProtocolResponse::Missing`].
    pub fn round(
        &mut self,
        requests: BTreeMap<SiteId, ProtocolRequest>,
    ) -> PaxResult<BTreeMap<SiteId, ProtocolResponse>> {
        if requests.is_empty() {
            return Ok(BTreeMap::new());
        }
        let requests: BTreeMap<SiteId, EpochRequest> = requests
            .into_iter()
            .map(|(site, body)| {
                (site, EpochRequest { epoch: self.epoch, retire_below: self.retire_below, body })
            })
            .collect();
        let (gate, transport) = (&self.deployment.gate, self.deployment.transport());
        gate.admit(transport, &requests)?;
        let delivered = transport.deliver(requests)?;
        gate.commit(&mut self.stats, &delivered);
        let mut responses = BTreeMap::new();
        for (site, delivery) in delivered {
            if let ProtocolResponse::Missing(fragment) = delivery.response {
                return Err(PaxError::FragmentMissing { site, fragment, epoch: self.epoch });
            }
            responses.insert(site, delivery.response);
        }
        Ok(responses)
    }
}

#[cfg(test)]
impl<'a> ExecCtx<'a> {
    /// A context reading the newest snapshots, routed by `fragmented`'s
    /// deploy-time topology, with its §5 index when `annotations` is on:
    /// what server-less unit tests run over.
    pub(crate) fn latest(
        deployment: &'a Deployment,
        fragmented: &FragmentedTree,
        annotations: bool,
    ) -> Self {
        let topology = deployment.deployed_topology(fragmented, annotations);
        ExecCtx::pinned(deployment, paxml_distsim::LATEST_EPOCH, topology, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_distsim::{FaultEvent, Placement, SiteWork};
    use paxml_fragment::strategy::cut_children_of_root;
    use paxml_xml::TreeBuilder;

    fn fragmented() -> FragmentedTree {
        let tree = TreeBuilder::new("sites")
            .open("site")
            .leaf("a", "1")
            .close()
            .open("site")
            .leaf("a", "2")
            .close()
            .open("site")
            .leaf("a", "3")
            .close()
            .build();
        cut_children_of_root(&tree).unwrap()
    }

    #[test]
    fn deployment_exposes_metadata() {
        let f = fragmented();
        let d = Deployment::over_transport(Arc::new(Cluster::new(&f, 2, Placement::RoundRobin)));
        assert_eq!(d.deployed_topology(&f, false).fragment_count(), 4);
        assert_eq!(d.deployed_topology(&f, false).root_label(), "sites");
        let mut ctx = ExecCtx::latest(&d, &f, false);
        let groups = ctx.group_by_site([FragmentId(0), FragmentId(1), FragmentId(2)]).unwrap();
        assert_eq!(groups[&SiteId(0)], vec![FragmentId(0), FragmentId(2)]);
        assert_eq!(groups[&SiteId(1)], vec![FragmentId(1)]);
    }

    /// One `FetchFragments` request per site, routed by the context.
    fn fetch_all(ctx: &mut ExecCtx<'_>) -> BTreeMap<SiteId, ProtocolRequest> {
        let fragments = ctx.topology().fragment_tree.ids().to_vec();
        let by_site = ctx.group_by_site(fragments).unwrap();
        by_site.into_iter().map(|(s, ids)| (s, ProtocolRequest::FetchFragments(ids))).collect()
    }

    #[test]
    fn a_custom_transport_is_reachable_through_the_trait_surface() {
        // The simulator itself, held behind `Arc<dyn Transport>`: exercises
        // the custom-transport arm end to end.
        let f = fragmented();
        let cluster: Arc<dyn Transport> = Arc::new(Cluster::new(&f, 2, Placement::RoundRobin));
        let d = Deployment::over_transport(cluster);
        assert!(d.cluster().is_some(), "as_cluster sees through the Arc");
        assert_eq!(d.site_count(), 2);
        let mut ctx = ExecCtx::latest(&d, &fragmented(), false);
        let requests = fetch_all(&mut ctx);
        let responses = ctx.round(requests).unwrap();
        let shipped: usize =
            responses.into_values().map(|r| r.into_fragments().unwrap().len()).sum();
        assert_eq!(shipped, f.fragment_count());
    }

    /// A two-site transport that answers every request with an empty
    /// shipment at a fixed cost, and counts how often it was asked to.
    #[derive(Default)]
    struct FakeTransport {
        deliveries: AtomicUsize,
    }

    const FAKE_WORK: SiteWork =
        SiteWork { request_bytes: 10, response_bytes: 2, ops: 3, busy: Duration::from_micros(7) };

    impl Transport for FakeTransport {
        fn deliver(
            &self,
            requests: BTreeMap<SiteId, EpochRequest>,
        ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>> {
            self.deliveries.fetch_add(1, Ordering::Relaxed);
            let response = ProtocolResponse::Fragments(Vec::new());
            let answer = Delivery { response, work: FAKE_WORK };
            Ok(requests.into_keys().map(|site| (site, answer.clone())).collect())
        }
        fn site_count(&self) -> usize {
            2
        }
        fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
            ReplicaSet::solo(SiteId(fragment.index() % 2))
        }
        fn peer(&self, site: SiteId) -> String {
            format!("fake://{site}")
        }
        fn scratch_len(&self, _site: SiteId) -> usize {
            0
        }
    }

    fn fake_deployment() -> (Deployment, Arc<FakeTransport>) {
        let transport = Arc::new(FakeTransport::default());
        (Deployment::over_transport(transport.clone()), transport)
    }

    fn fault(site: usize, from_round: u64, to_round: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { site: SiteId(site), from_round, to_round, kind }
    }

    #[test]
    fn a_faulted_round_delivers_nothing_and_charges_nothing() {
        let (d, transport) = fake_deployment();
        d.set_fault_plan(Some(FaultPlan::scripted(vec![fault(1, 0, 0, FaultKind::Kill)])));
        let mut ctx = ExecCtx::latest(&d, &fragmented(), false);

        // An empty round is no round: no tick, no delivery, no meters.
        assert!(ctx.round(BTreeMap::new()).unwrap().is_empty());
        assert_eq!(d.current_fault_tick(), 0);

        let requests = fetch_all(&mut ctx);
        let err = ctx.round(requests.clone()).unwrap_err();
        assert_eq!(
            err.to_string(),
            PaxError::SiteUnreachable {
                site: SiteId(1),
                detail: "fake://S1: injected Kill fault while sending FetchFragments".into(),
            }
            .to_string()
        );
        assert_eq!(transport.deliveries.load(Ordering::Relaxed), 0, "nothing was delivered");
        assert_eq!(d.current_fault_tick(), 1, "the attempt advanced the clock");
        assert_eq!((&ctx.stats, &d.stats()), (&ClusterStats::default(), &ClusterStats::default()));

        // The window has passed: the same round now goes through.
        assert_eq!(ctx.round(requests).unwrap().len(), 2);
        assert_eq!(transport.deliveries.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.stats.rounds, 1);
    }

    #[test]
    fn a_delay_stalls_the_round_but_delivers_it() {
        let (d, transport) = fake_deployment();
        let stall = Duration::from_millis(20);
        d.set_fault_plan(Some(FaultPlan::scripted(vec![fault(0, 0, 0, FaultKind::Delay(stall))])));
        let mut ctx = ExecCtx::latest(&d, &fragmented(), false);
        let requests = fetch_all(&mut ctx);
        let started = Instant::now();
        assert_eq!(ctx.round(requests).unwrap().len(), 2);
        assert!(started.elapsed() >= stall);
        assert_eq!(transport.deliveries.load(Ordering::Relaxed), 1);
        assert_eq!(d.stats().rounds, 1);
    }

    #[test]
    fn probes_peek_at_the_fault_clock_without_advancing_it() {
        let (d, _transport) = fake_deployment();
        assert!(d.probe(SiteId(1)), "no plan, live link");
        d.set_fault_plan(Some(FaultPlan::scripted(vec![
            fault(1, 0, 0, FaultKind::Drop),
            fault(0, 0, 0, FaultKind::Delay(Duration::from_millis(1))),
        ])));
        assert!(!d.probe(SiteId(1)), "a scheduled fault makes a live link look dead");
        assert!(d.probe(SiteId(0)), "a slow site is not a dead one");
        assert_eq!(d.current_fault_tick(), 0, "probes are not rounds");
        assert_eq!(d.stats(), ClusterStats::default(), "and touch no meter");

        // One round to the healthy site moves the clock past the window.
        let mut ctx = ExecCtx::latest(&d, &fragmented(), false);
        let to_s0 = BTreeMap::from([(SiteId(0), ProtocolRequest::FetchFragments(Vec::new()))]);
        ctx.round(to_s0).unwrap();
        assert!(d.probe(SiteId(1)), "the site revived by schedule");
    }

    #[test]
    fn the_commit_charges_recorder_and_ledger_identically() {
        let (d, _transport) = fake_deployment();
        // Background traffic from another execution.
        let mut other = ExecCtx::latest(&d, &fragmented(), false);
        let requests = fetch_all(&mut other);
        other.round(requests.clone()).unwrap();

        let baseline = d.stats();
        let mut ctx = ExecCtx::latest(&d, &fragmented(), false);
        ctx.round(requests.clone()).unwrap();
        ctx.round(requests).unwrap();
        // The recorder saw exactly its own two rounds, charged as observed…
        assert_eq!(ctx.stats.rounds, 2);
        assert_eq!(ctx.stats.messages, 8);
        assert_eq!(ctx.stats.total_ops, 4 * FAKE_WORK.ops);
        assert_eq!(ctx.stats.parallel_ops, 2 * FAKE_WORK.ops);
        assert_eq!(ctx.stats.sites[&SiteId(1)].bytes_received, 2 * FAKE_WORK.request_bytes);
        assert_eq!(ctx.stats.sites[&SiteId(1)].bytes_sent, 2 * FAKE_WORK.response_bytes);
        assert_eq!(ctx.stats.parallel_time(), 2 * FAKE_WORK.busy);
        // …and the ledger grew by exactly the same amounts, on top of the
        // other execution's round.
        assert_eq!(d.stats().delta_since(&baseline), ctx.stats);
        assert_eq!(d.stats().rounds, 3);
    }

    #[test]
    fn concurrent_executions_never_tear_the_ledger() {
        // Many coordinator threads hammer one shared deployment; each meters
        // its own rounds, and the cumulative ledger must equal the sum of
        // all per-thread recorders.
        let f = fragmented();
        let d = Arc::new(Deployment::over_transport(Arc::new(Cluster::new(
            &f,
            3,
            Placement::RoundRobin,
        ))));
        let (threads, rounds_per_thread) = (4u32, 25u32);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut ctx = ExecCtx::latest(&d, &fragmented(), false);
                    let requests = fetch_all(&mut ctx);
                    for _ in 0..rounds_per_thread {
                        assert_eq!(ctx.round(requests.clone()).unwrap().len(), 3);
                    }
                    ctx.stats
                })
            })
            .collect();
        let mut merged = ClusterStats::default();
        for handle in handles {
            merged.merge(&handle.join().unwrap());
        }
        let cumulative = d.stats();
        assert_eq!(cumulative.rounds, threads * rounds_per_thread);
        assert_eq!(cumulative.rounds, merged.rounds);
        assert_eq!(cumulative.total_ops, merged.total_ops);
        assert_eq!(cumulative.messages, merged.messages);
        for (site, stats) in &cumulative.sites {
            assert_eq!(stats.visits, merged.sites[site].visits);
            assert_eq!(stats.bytes_received, merged.sites[site].bytes_received);
            assert_eq!(stats.bytes_sent, merged.sites[site].bytes_sent);
        }
    }

    #[test]
    fn slot_allocation_never_repeats() {
        let d = Arc::new(Deployment::over_transport(Arc::new(Cluster::new(
            &fragmented(),
            1,
            Placement::SingleSite,
        ))));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    (0..50).map(|_| d.allocate_slots(3)).collect::<Vec<usize>>()
                })
            })
            .collect();
        let mut seen = BTreeSet::new();
        for handle in handles {
            for base in handle.join().unwrap() {
                assert!(seen.insert(base), "slot base {base} handed out twice");
                assert_eq!(base % 3, 0);
            }
        }
    }
}
