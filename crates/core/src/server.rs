//! The `PaxServer` session API: every evaluation mode behind one
//! **concurrently shareable** handle.
//!
//! The paper's algorithms — PaX3, PaX2 (one query or a batch), incremental
//! maintenance, the naive baseline — are one system: a coordinator holding the
//! fragment tree of a long-lived deployment and serving queries over it.
//! This module is that coordinator. A [`PaxServer`]:
//!
//! * **owns the deployment** — callers never thread `&mut Deployment`
//!   around, and every execution reports *its own* cluster meters (each
//!   execution threads a private [`ClusterStats`] recorder through its
//!   rounds);
//! * **prepares queries once** — [`PaxServer::prepare`] compiles and
//!   normalizes a query and caches it by text; a [`PreparedQuery`] is a
//!   cheap handle that can be executed any number of times;
//! * **routes every mode through the right engine** —
//!   [`PaxServer::execute`] (single query), [`PaxServer::execute_batch`]
//!   (shared-visit batch), [`PaxServer::apply_updates`] (fragment updates),
//!   [`PaxServer::query_once`] (one-shot text query), all returning the
//!   unified [`ExecReport`];
//! * **maintains the incremental residual-vector cache across all prepared
//!   queries** (PaX2 servers): the first execution of a prepared query
//!   snapshots its per-fragment residual vectors coordinator-side; an
//!   update round then refreshes *every* prepared query's cache in the one
//!   visit it pays to each dirty site — clean sites are never visited, and
//!   re-executing any prepared query afterwards costs **zero** visits.
//!
//! # The concurrency model: epoch-versioned snapshots
//!
//! `PaxServer` is `Send + Sync`: wrap one in an [`Arc`] and share it with
//! any number of client threads — **no `&mut self` anywhere in the serving
//! path**. The session is MVCC at *deployment* granularity: updates never
//! block readers, readers never block updates, and every execution reads
//! one immutable **epoch** of the deployment from its first visit to its
//! last.
//!
//! The lifecycle is **pin → build → swap → retire**:
//!
//! * **Pin.** Every execution clones the current epoch handle on entry (one
//!   short mutex hold — no lock is kept for the execution's duration) and
//!   tags all of its protocol messages with that epoch number. Sites read
//!   the fragment version current *at that epoch*, and every scratch slot
//!   lives in a per-epoch namespace, so the execution is bit-identical to
//!   one that ran with the cluster frozen at its pinned epoch.
//! * **Build.** [`PaxServer::apply_updates`] (serialized against other
//!   updaters by a writer mutex that readers never touch) takes the current
//!   epoch `N` as its base and builds epoch `N + 1` **concurrently with
//!   in-flight readers**: it visits only the dirty sites, which install new
//!   fragment versions under epoch `N + 1` copy-on-write — clean sites are
//!   never visited, and a clean fragment's epoch-`N` version *is* its
//!   epoch-`N + 1` version by reference. Coordinator-side, every prepared
//!   query's residual-vector session is cloned copy-on-write (clean
//!   fragments' cached vectors are shared by `Arc`) and refreshed against
//!   the new data. During the build the writer holds **no lock a reader
//!   ever takes**.
//! * **Swap.** Publishing epoch `N + 1` is a single pointer swap of the
//!   current-epoch handle. Executions that pinned epoch `N` keep reading
//!   epoch `N` to completion; executions entering after the swap read
//!   epoch `N + 1`. A failed build (e.g. an unreachable site) publishes
//!   nothing — the current epoch stays `N` and pinned readers are
//!   unaffected.
//! * **Retire.** An epoch handle is an `Arc`; when the last pinned
//!   execution drops it the epoch is dead. Site-side, superseded fragment
//!   versions are dropped lazily: every update round piggybacks the oldest
//!   still-live epoch as a retirement watermark on the sites it visits,
//!   and [`PaxServer::vacuum`] sweeps every site explicitly.
//!   [`PaxServer::server_stats`] meters live epochs and cache bytes.
//!
//! Lock order (outermost first): writer mutex → current-epoch handle →
//! epoch session table → individual session → epoch registry. Concurrent
//! executions never block each other: each runs with a private stats
//! recorder and private site-scratch slots; the first (cache-snapshotting)
//! execution of one particular PaX2 prepared query serializes on that
//! query's session lock, after which re-executions are lock-cheap cache
//! reads. `prepare` is exclusive only against other `prepare` calls — it
//! never blocks executions.
//!
//! ```
//! use paxml_core::server::PaxServer;
//! use paxml_core::Algorithm;
//! use paxml_distsim::Placement;
//! use paxml_fragment::strategy::cut_at_labels;
//! use paxml_xml::TreeBuilder;
//!
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .open("client").leaf("country", "Canada")
//!         .open("broker").leaf("name", "CIBC").close()
//!     .close()
//!     .build();
//! let fragmented = cut_at_labels(&tree, &["broker"]).unwrap();
//!
//! let server = PaxServer::builder()
//!     .algorithm(Algorithm::PaX2)
//!     .annotations(true)
//!     .placement(Placement::RoundRobin)
//!     .sites(3)
//!     .deploy(&fragmented)
//!     .unwrap();
//!
//! let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
//! let report = server.execute(&q).unwrap();
//! assert_eq!(report.answer_texts(), vec!["E*trade".to_string()]);
//! assert!(report.max_visits_per_site() <= 2);
//!
//! // A batch shares site visits across queries...
//! let q2 = server.prepare("client/broker/name").unwrap();
//! let batch = server.execute_batch(&[q.clone(), q2]).unwrap();
//! assert_eq!(batch.len(), 2);
//! assert!(batch.max_visits_per_site() <= 2);
//!
//! // ...and re-executing a prepared query is served from the cache.
//! assert_eq!(server.execute(&q).unwrap().max_visits_per_site(), 0);
//! ```
//!
//! Two client threads sharing one server through an `Arc` — the
//! concurrent-serving shape the session API is built for:
//!
//! ```
//! use paxml_core::server::PaxServer;
//! use paxml_core::Algorithm;
//! use paxml_fragment::strategy::cut_at_labels;
//! use paxml_xml::TreeBuilder;
//! use std::sync::Arc;
//! use std::thread;
//!
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .build();
//! let fragmented = cut_at_labels(&tree, &["broker"]).unwrap();
//! let server = Arc::new(
//!     PaxServer::builder().algorithm(Algorithm::PaX2).sites(2).deploy(&fragmented).unwrap(),
//! );
//! let query = server.prepare("client/broker/name").unwrap();
//!
//! let clients: Vec<_> = (0..2)
//!     .map(|_| {
//!         let server = Arc::clone(&server);
//!         let query = query.clone();
//!         thread::spawn(move || server.execute(&query).unwrap().answer_texts())
//!     })
//!     .collect();
//! for client in clients {
//!     assert_eq!(client.join().unwrap(), vec!["E*trade".to_string()]);
//! }
//! ```

use crate::deployment::{Deployment, ExecCtx, Topology};
use crate::error::{PaxError, PaxResult};
use crate::incremental::{session_round, QuerySession};
use crate::protocol::{MsgRefrag, MsgVacuum};
use crate::report::{Algorithm, ExecMode, ExecReport, QueryOutcome, UpdateOutcome};
use crate::transport::{ProtocolRequest, TcpOptions, VacuumOutcome};
use crate::EvalOptions;
use crate::{naive, pax2, pax3};
use paxml_distsim::{Cluster, ClusterStats, Placement, ReplicaSet, SiteId};
use paxml_fragment::{Fragment, FragmentId, FragmentTree, FragmentedTree, UpdateOp};
use paxml_xpath::{compile_text, CompileCache, CompiledQuery};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

/// A query compiled and normalized once by [`PaxServer::prepare`], reusable
/// across any number of executions of the server that prepared it. Cloning
/// is cheap (the compiled form is shared), and a clone may be moved to any
/// thread.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Position in the server's prepared-query table.
    id: usize,
    text: Arc<str>,
    compiled: Arc<CompiledQuery>,
}

impl PreparedQuery {
    /// The query text as prepared.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The compiled, normalized form.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }
}

/// How much work [`PaxServer::prepare_set`] shared across its queries,
/// measured against compiling every text independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareSetStats {
    /// Number of texts in the set (including duplicates).
    pub queries: usize,
    /// Number of distinct normal forms among them — only these were
    /// actually compiled (or found already compiled).
    pub distinct_queries: usize,
    /// Qualifier sub-trees served from the shared pool during this set.
    pub subtree_hits: u64,
    /// Qualifier sub-trees compiled fresh into the pool during this set.
    pub subtree_misses: u64,
    /// Total `QVect` entries in the server's shared compilation pool after
    /// the set was prepared.
    pub arena_entries: usize,
    /// Total `QVect` entries the set's texts would occupy if each were
    /// compiled independently (the sum of their `QVect` lengths — cached
    /// compilation produces identical queries, so this is exact).
    pub arena_entries_independent: usize,
    /// Wall-clock time for the whole set, parse to table insertion.
    pub elapsed: Duration,
}

/// Builder for a [`PaxServer`]. Obtain with [`PaxServer::builder`],
/// configure, then [`PaxServerBuilder::deploy`] over a fragmented tree.
#[derive(Debug, Clone)]
pub struct PaxServerBuilder {
    algorithm: Algorithm,
    use_annotations: bool,
    placement: Placement,
    sites: Option<usize>,
    assignment: Option<BTreeMap<FragmentId, SiteId>>,
    replication: usize,
    sequential: bool,
    site_delays: BTreeMap<SiteId, Duration>,
    auto_vacuum_threshold: Option<u64>,
    retry_policy: RetryPolicy,
    tcp_options: TcpOptions,
}

impl Default for PaxServerBuilder {
    fn default() -> Self {
        PaxServerBuilder {
            algorithm: Algorithm::PaX2,
            use_annotations: false,
            placement: Placement::RoundRobin,
            sites: None,
            assignment: None,
            replication: 1,
            sequential: false,
            site_delays: BTreeMap::new(),
            auto_vacuum_threshold: None,
            retry_policy: RetryPolicy::default(),
            tcp_options: TcpOptions::default(),
        }
    }
}

/// How a [`PaxServer`] turns transient site faults into retries and
/// failovers. Every client-facing operation — executions, updates,
/// re-fragmentations — runs under this policy: a transient failure
/// ([`PaxError::is_transient`]) records a strike against the faulty site,
/// backs off, and retries the whole operation, which re-routes around
/// quarantined sites onto their next live replica. Permanent errors
/// surface immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, first try included (default 3).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_step × n` (default 10 ms).
    pub backoff_step: Duration,
    /// Backoff never exceeds this (default 200 ms).
    pub backoff_cap: Duration,
    /// Per-operation deadline budget: once elapsed time plus the pending
    /// backoff would cross it, the operation fails with the last transient
    /// error instead of retrying (default `None` — only `max_attempts`
    /// bounds the loop).
    pub deadline: Option<Duration>,
    /// Transient faults a site may accumulate before it is quarantined
    /// (default 1: the first fault quarantines).
    pub quarantine_after: u32,
    /// How long a quarantined site rests before the server probes it for
    /// readmission; a failed probe restarts the cooldown (default 100 ms).
    pub probe_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_step: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            deadline: None,
            quarantine_after: 1,
            probe_cooldown: Duration::from_millis(100),
        }
    }
}

impl PaxServerBuilder {
    /// Which engine serves single-query executions (default
    /// [`Algorithm::PaX2`], the only engine with an incremental
    /// residual-vector cache).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable the XPath-annotation optimization of §5 (default off).
    pub fn annotations(mut self, on: bool) -> Self {
        self.use_annotations = on;
        self
    }

    /// How fragments are placed onto sites (default round-robin). Ignored
    /// when an explicit [`PaxServerBuilder::assignment`] is given.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Number of simulated sites (default: one site per fragment).
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = Some(sites);
        self
    }

    /// An explicit fragment→site assignment (fragments not mentioned go to
    /// site 0). Overrides [`PaxServerBuilder::placement`].
    pub fn assignment(mut self, assignment: BTreeMap<FragmentId, SiteId>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Store every fragment on that many sites (default 1: unreplicated).
    /// The primary copy is placed by [`PaxServerBuilder::placement`] as
    /// before; each extra copy goes to the next site round-robin, so no two
    /// copies of one fragment share a site. Clamped to the site count.
    /// Incompatible with an explicit [`PaxServerBuilder::assignment`].
    pub fn replication(mut self, copies: usize) -> Self {
        self.replication = copies.max(1);
        self
    }

    /// The fault-handling policy of every operation of the server (default
    /// [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Socket tuning for TCP transports: read timeout, connect-retry
    /// schedule, probe budget (default [`TcpOptions::default`]). Applied by
    /// [`PaxServerBuilder::deploy_over`]; the in-process simulator ignores
    /// it.
    pub fn tcp_options(mut self, options: TcpOptions) -> Self {
        self.tcp_options = options;
        self
    }

    /// Run coordinator rounds sequentially (deterministic) instead of on
    /// the per-site worker pool (default parallel).
    pub fn sequential(mut self, sequential: bool) -> Self {
        self.sequential = sequential;
        self
    }

    /// Slow one site down artificially (skew/failure-injection studies).
    pub fn site_delay(mut self, site: SiteId, delay: Duration) -> Self {
        self.site_delays.insert(site, delay);
        self
    }

    /// Sweep the cluster automatically once that many epochs have retired
    /// since the last sweep (default: never — [`PaxServer::vacuum`] stays
    /// explicit). The sweep runs at the end of the update or
    /// re-fragmentation that crossed the threshold, under the same writer
    /// lock, so it never races another publisher.
    pub fn auto_vacuum_threshold(mut self, retired_epochs: u64) -> Self {
        self.auto_vacuum_threshold = Some(retired_epochs.max(1));
        self
    }

    /// Deploy `fragmented` over the configured cluster and start the
    /// session.
    pub fn deploy(mut self, fragmented: &FragmentedTree) -> PaxResult<PaxServer> {
        if self.sites == Some(0) {
            return Err(PaxError::InvalidConfig {
                message: "a deployment needs at least one site".into(),
            });
        }
        let sites = self.sites.unwrap_or_else(|| fragmented.fragment_count().max(1));
        if let Some(assignment) = &self.assignment {
            if let Some((f, s)) = assignment.iter().find(|(_, s)| s.index() >= sites) {
                return Err(PaxError::InvalidConfig {
                    message: format!("fragment {f} assigned to nonexistent site {s} (of {sites})"),
                });
            }
        }
        if self.assignment.is_some() && self.replication > 1 {
            return Err(PaxError::InvalidConfig {
                message: "an explicit assignment fixes one site per fragment; use placement() \
                          with replication() instead"
                    .into(),
            });
        }
        let mut cluster = match self.assignment.take() {
            Some(assignment) => Cluster::with_assignment(fragmented, sites, assignment),
            None => Cluster::replicated(fragmented, sites, self.placement, self.replication),
        };
        cluster.sequential = self.sequential;
        cluster.site_delay = std::mem::take(&mut self.site_delays);
        self.deploy_over(fragmented, Arc::new(cluster))
    }

    /// Deploy over an externally built [`Transport`](crate::Transport)
    /// (e.g. `paxml-wire`'s `TcpCluster`) and start the session.
    ///
    /// The transport already owns the site topology, so the simulator-only
    /// builder knobs — [`sites`](PaxServerBuilder::sites),
    /// [`placement`](PaxServerBuilder::placement),
    /// [`assignment`](PaxServerBuilder::assignment),
    /// [`sequential`](PaxServerBuilder::sequential) and
    /// [`site_delay`](PaxServerBuilder::site_delay) — do not apply here and
    /// are ignored; [`algorithm`](PaxServerBuilder::algorithm),
    /// [`annotations`](PaxServerBuilder::annotations),
    /// [`retry_policy`](PaxServerBuilder::retry_policy) and
    /// [`tcp_options`](PaxServerBuilder::tcp_options) take effect.
    pub fn deploy_over(
        self,
        fragmented: &FragmentedTree,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> PaxResult<PaxServer> {
        transport.configure_tcp(&self.tcp_options);
        let (current, epochs) = initial_epoch();
        Ok(PaxServer {
            deployment: Deployment::over_transport(fragmented, transport),
            algorithm: self.algorithm,
            options: EvalOptions { use_annotations: self.use_annotations },
            retry: self.retry_policy,
            writer: Mutex::new(()),
            current,
            epochs,
            prepared: RwLock::new(PreparedTable::default()),
            update_hook: Mutex::new(None),
            retired_placements: Mutex::new(Vec::new()),
            auto_vacuum_threshold: self.auto_vacuum_threshold,
            retired_at_last_vacuum: AtomicU64::new(0),
        })
    }
}

/// The prepared-query table: compilations cached by query text, plus the
/// two sharing layers that make overlapping prepared queries cheap:
///
/// * `by_norm` — whole-query sharing: two texts with the same normal form
///   (e.g. `a[b][2]` and `a[2][b]`) share one compiled `Arc`;
/// * `compile_cache` — sub-query sharing: distinct queries whose qualifier
///   sub-trees overlap (e.g. a hundred variants of
///   `person[address/country/text()='US']/…`) compile each shared sub-tree
///   once into a common pool and splice it thereafter.
#[derive(Default)]
struct PreparedTable {
    queries: Vec<PreparedQuery>,
    by_text: BTreeMap<String, usize>,
    by_norm: BTreeMap<String, usize>,
    compile_cache: CompileCache,
}

/// One immutable deployment epoch: the unit executions pin on entry.
///
/// The fragment *data* of an epoch lives site-side (each site keeps a
/// version list per fragment, read at the pinned epoch number); the
/// coordinator side of an epoch is the per-prepared-query residual-vector
/// sessions consistent with that data. An epoch is dead when the last
/// pinned execution drops its `Arc`; the server tracks epochs through
/// [`Weak`] handles so retirement needs no reference counting of its own.
struct EpochInner {
    /// The epoch number tagged onto every protocol message of a pinned
    /// execution. Epoch 0 is the initial deployment.
    number: u64,
    /// Residual-vector caches per prepared query (PaX2 servers), keyed by
    /// the prepared query's id, *consistent with this epoch's data*.
    /// Populated on first execution, carried copy-on-write into the next
    /// epoch by every update. Each session has its own lock so executions
    /// of *different* prepared queries never contend.
    sessions: Mutex<BTreeMap<usize, Arc<Mutex<QuerySession>>>>,
}

impl EpochInner {
    /// Clone every session copy-on-write for the next epoch: clean
    /// fragments' cached vectors are shared by reference, only the entries
    /// the build dirties are deep-copied. Each session is locked only for
    /// the duration of its clone — readers on this epoch are never blocked
    /// behind the build. Sessions a concurrent cold execution adds to this
    /// epoch *after* the snapshot simply re-snapshot on their first
    /// execution in the next epoch.
    fn cloned_sessions(&self) -> BTreeMap<usize, QuerySession> {
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
        self.site_loads.iter().map(|l| l.resident_bytes).max().unwrap_or(0)
    }
}

/// One site's load figures inside [`ServerStats`]: what it stores now
/// (resident fragments/bytes at the newest epoch) and what it has served
/// since the deployment started (cumulative visits and protocol bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteLoad {
    /// The site.
    pub site: SiteId,
    /// Distinct fragments resident at the site's newest epoch.
    pub fragment_count: usize,
    /// Bytes those fragments occupy under the canonical encoding.
    pub resident_bytes: u64,
    /// Cumulative visits the coordinator paid this site.
    pub visits: u32,
    /// Cumulative protocol bytes moved to and from this site.
    pub bytes_served: u64,
}

/// A long-lived evaluation session over one deployment: prepared queries,
/// single and batched execution, and fragment updates, all through one
/// `Send + Sync` handle shared by any number of client threads. See the
/// [module docs](self) for the full picture, including which operations
/// block which.
pub struct PaxServer {
    deployment: Deployment,
    algorithm: Algorithm,
    options: EvalOptions,
    /// Fault handling: retry budget, backoff, quarantine thresholds.
    retry: RetryPolicy,
    /// Serializes updaters against each other — never taken by the read
    /// path. Held across the whole build-and-publish of one update (and
    /// by [`PaxServer::vacuum`]), so epoch numbers advance one at a time.
    writer: Mutex<()>,
    /// The epoch new executions pin. Readers hold this lock only long
    /// enough to clone the `Arc`; `apply_updates` only long enough to swap
    /// in the next epoch.
    current: Mutex<Arc<EpochInner>>,
    /// Every epoch not yet proven dead, by number. `Weak`: the registry
    /// never keeps an epoch alive, it only observes which ones still are.
    epochs: Mutex<EpochRegistry>,
    /// Queries compiled so far, cached by text.
    prepared: RwLock<PreparedTable>,
    /// Test instrumentation: invoked by `apply_updates` (and
    /// [`PaxServer::refragment`]) after the build round and before the
    /// publish swap, with no reader-visible lock held. Lets the
    /// wait-freedom suite hold an update open mid-air.
    update_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// `(fragment, site)` placements dissolved by re-fragmentations, kept
    /// until a vacuum sweep can prove no live epoch still routes to them
    /// and purges the stale copies wholesale.
    retired_placements: Mutex<Vec<RetiredPlacement>>,
    /// Auto-vacuum: sweep once this many epochs retired since the last
    /// sweep (`None`: only explicit [`PaxServer::vacuum`] calls sweep).
    auto_vacuum_threshold: Option<u64>,
    /// Total retired-epoch count as of the last (auto or explicit) vacuum.
    retired_at_last_vacuum: AtomicU64,
}

/// A fragment→site placement dissolved by a re-fragmentation. The old
/// site's copy must outlive every epoch that still routes to it; the
/// vacuum sweep purges it once the oldest live epoch reaches
/// `removal_epoch`.
struct RetiredPlacement {
    fragment: FragmentId,
    site: SiteId,
    /// The first epoch in which the placement no longer exists.
    removal_epoch: u64,
}

/// The epoch registry: every epoch not yet proven dead, by number.
type EpochRegistry = BTreeMap<u64, Weak<EpochInner>>;

/// Build the epoch-0 state shared by both deployment constructors.
fn initial_epoch() -> (Mutex<Arc<EpochInner>>, Mutex<EpochRegistry>) {
    let epoch0 = Arc::new(EpochInner { number: 0, sessions: Mutex::new(BTreeMap::new()) });
    let registry = BTreeMap::from([(0, Arc::downgrade(&epoch0))]);
    (Mutex::new(epoch0), Mutex::new(registry))
}

impl PaxServer {
    /// Start configuring a server.
    pub fn builder() -> PaxServerBuilder {
        PaxServerBuilder::default()
    }

    /// The engine serving single-query executions.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The evaluation options of this session.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The owned deployment (read-only; all mutation goes through the
    /// server so the meters stay faithful).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Number of queries prepared so far.
    pub fn prepared_count(&self) -> usize {
        self.prepared.read().expect("the prepared-query lock is never poisoned").queries.len()
    }

    /// A consistent snapshot of the cumulative cluster meters since the
    /// deployment started (each [`ExecReport`] carries the per-execution
    /// counters instead). Snapshots are committed whole-round, so two
    /// snapshots bracketing any set of concurrent executions yield an
    /// accurate [`ClusterStats::delta_since`].
    pub fn cumulative_stats(&self) -> ClusterStats {
        self.deployment.stats()
    }

    /// Pin the current epoch: clone the handle under a short lock hold.
    /// The returned `Arc` keeps the epoch live (and its site-side fragment
    /// versions unretired) until the caller drops it.
    fn pin(&self) -> Arc<EpochInner> {
        Arc::clone(&self.current.lock().expect("the current-epoch lock is never poisoned"))
    }

    /// The retry/failover policy of this server.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Probe every quarantined site whose cooldown has elapsed; a site that
    /// answers is readmitted (strikes cleared — its stale copies stay off
    /// the routing path until [`PaxServer::repair`] refreshes them).
    fn probe_quarantined(&self) {
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
    /// quarantined sites, attempt, and on a *transient* failure strike the
    /// faulty site (quarantining it once it crosses the threshold), back
    /// off, and retry the whole operation — which re-routes around
    /// quarantined sites onto their next live replicas. Each attempt is
    /// whole-operation: a retried execution pins the epoch afresh and gets
    /// fresh scratch slots, a retried update re-builds its round, so no
    /// attempt ever reads another attempt's partial state. Permanent errors
    /// surface immediately; the deadline budget bounds the total time spent
    /// retrying.
    fn with_failover<T>(&self, mut operation: impl FnMut() -> PaxResult<T>) -> PaxResult<T> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            self.probe_quarantined();
            let error = match operation() {
                Ok(value) => return Ok(value),
                Err(error) if error.is_transient() => error,
                Err(error) => return Err(error),
            };
            if let PaxError::SiteUnreachable { site, .. } = &error {
                self.deployment.health().record_fault(*site, self.retry.quarantine_after);
            }
            attempt += 1;
            if attempt >= self.retry.max_attempts.max(1) {
                return Err(error);
            }
            let backoff = (self.retry.backoff_step * attempt).min(self.retry.backoff_cap);
            if let Some(deadline) = self.retry.deadline {
                if started.elapsed() + backoff >= deadline {
                    return Err(error);
                }
            }
            std::thread::sleep(backoff);
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
        let _writer = self.writer.lock().expect("the writer lock is never poisoned");
        self.repair_locked()
    }

    /// The repair pass itself, writer lock already held.
    fn repair_locked(&self) -> PaxResult<usize> {
        let health = self.deployment.health();
        let pending = health.unrepaired_stale();
        if pending.is_empty() {
            return Ok(0);
        }
        let current = self.pin();
        let topology = self.deployment.topology_at(current.number);
        let mut repaired = 0usize;
        for (fragment, site) in pending {
            let still_placed =
                topology.placement.get(&fragment).is_some_and(|set| set.contains(site));
            if !still_placed {
                // The copy was re-fragmented away; nothing to repair and
                // the vacuum sweep owns the leftover versions.
                health.mark_repaired(fragment, site, current.number);
                continue;
            }
            if health.is_quarantined(site) {
                continue; // Still down; a later pass will get it.
            }
            let source = self.deployment.choose_replica(&topology, fragment, current.number)?;
            let mut ctx = ExecCtx::pinned(&self.deployment, current.number, 0);
            let fetched = ctx
                .round(BTreeMap::from([(source, ProtocolRequest::FetchFragments(vec![fragment]))]))?
                .remove(&source)
                .map(|response| response.into_fragments())
                .transpose()?
                .unwrap_or_default();
            let installs: Vec<Fragment> =
                fetched.into_iter().filter(|f| f.id == fragment).collect();
            if installs.is_empty() {
                continue;
            }
            let responses = ctx
                .round(BTreeMap::from([(site, ProtocolRequest::Refrag(MsgRefrag { installs }))]))?;
            for response in responses.into_values() {
                response.into_refragged()?;
            }
            health.mark_repaired(fragment, site, current.number);
            repaired += 1;
        }
        Ok(repaired)
    }

    /// The oldest epoch still pinned anywhere — the retirement watermark:
    /// site-side versions superseded at or below it can never be read
    /// again. Prunes dead registry entries as a side effect.
    fn live_watermark(&self) -> u64 {
        let mut registry = self.epochs.lock().expect("the epoch registry is never poisoned");
        registry.retain(|_, weak| weak.strong_count() > 0);
        registry.keys().next().copied().unwrap_or(0)
    }

    /// A consistent snapshot of the epoch machinery: current epoch, how
    /// many epochs are still pinned, and the current epoch's session-cache
    /// footprint. The leak check of the stress suite asserts `live_epochs`
    /// returns to 1 once readers drain.
    pub fn server_stats(&self) -> ServerStats {
        let current = self.pin();
        let live_epochs = {
            let mut registry = self.epochs.lock().expect("the epoch registry is never poisoned");
            registry.retain(|_, weak| weak.strong_count() > 0);
            registry.len()
        };
        let session_cache_bytes = {
            let sessions =
                current.sessions.lock().expect("the session-table lock is never poisoned");
            sessions
                .values()
                .map(|arc| arc.lock().expect("a session lock is never poisoned").cache_bytes())
                .sum()
        };
        let cumulative = self.deployment.stats();
        let site_loads = (0..self.deployment.site_count())
            .map(|index| {
                let site = SiteId(index);
                let report = self.deployment.transport().site_load(site);
                let served = cumulative.sites.get(&site).cloned().unwrap_or_default();
                SiteLoad {
                    site,
                    fragment_count: report.fragment_count(),
                    resident_bytes: report.resident_bytes(),
                    visits: served.visits,
                    bytes_served: served.bytes_received + served.bytes_sent,
                }
            })
            .collect();
        ServerStats {
            current_epoch: current.number,
            live_epochs,
            retired_epochs: current.number + 1 - live_epochs as u64,
            session_cache_bytes,
            placement_version: self.deployment.topology_at(current.number).version,
            site_loads,
        }
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
    /// live epoch can still read and purging copies left behind by
    /// migrations and merges once no live epoch routes to them. Update
    /// rounds already piggyback the retirement watermark onto the sites
    /// they visit; `vacuum` reaches the sites a sparse update stream never
    /// touches. Returns the total versions dropped and left live across
    /// the cluster.
    ///
    /// With [`PaxServerBuilder::auto_vacuum_threshold`] set, the server
    /// also runs this sweep by itself at the end of an update or
    /// re-fragmentation once enough epochs have retired; the explicit call
    /// keeps working either way.
    pub fn vacuum(&self) -> PaxResult<VacuumOutcome> {
        let _writer = self.writer.lock().expect("the writer lock is never poisoned");
        self.vacuum_locked()
    }

    /// The sweep itself, callers already holding the writer lock (the
    /// public [`PaxServer::vacuum`] and the auto-vacuum trigger inside the
    /// publish paths — taking the writer mutex here again would deadlock).
    fn vacuum_locked(&self) -> PaxResult<VacuumOutcome> {
        let current = self.pin();
        let watermark = self.live_watermark();
        // Placements dissolved at or below the watermark can never be
        // routed to again: purge their copies wholesale. Later removals
        // stay queued for a future sweep.
        let mut purge_by_site: BTreeMap<SiteId, Vec<FragmentId>> = BTreeMap::new();
        {
            let retired = self
                .retired_placements
                .lock()
                .expect("the retired-placement lock is never poisoned");
            for placement in retired.iter().filter(|p| p.removal_epoch <= watermark) {
                purge_by_site.entry(placement.site).or_default().push(placement.fragment);
            }
        }
        let mut ctx = ExecCtx::pinned(&self.deployment, current.number, watermark);
        let requests: BTreeMap<SiteId, ProtocolRequest> = (0..self.deployment.site_count())
            .map(|index| {
                let site = SiteId(index);
                let purge = purge_by_site.remove(&site).unwrap_or_default();
                (site, ProtocolRequest::Vacuum(MsgVacuum { purge }))
            })
            .collect();
        // A failed sweep (a site process died) keeps every queued removal:
        // purges are idempotent, so the next sweep simply retries them.
        let responses = ctx.round(requests)?;
        let mut outcome = VacuumOutcome { dropped: 0, live_versions: 0 };
        for response in responses.into_values() {
            let swept = response.into_vacuumed()?;
            outcome.dropped += swept.dropped;
            outcome.live_versions += swept.live_versions;
        }
        self.retired_placements
            .lock()
            .expect("the retired-placement lock is never poisoned")
            .retain(|p| p.removal_epoch > watermark);
        self.retired_at_last_vacuum
            .store(current.number + 1 - self.live_epoch_count() as u64, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Live epochs right now (prunes dead registry entries).
    fn live_epoch_count(&self) -> usize {
        let mut registry = self.epochs.lock().expect("the epoch registry is never poisoned");
        registry.retain(|_, weak| weak.strong_count() > 0);
        registry.len()
    }

    /// The auto-vacuum trigger, run at the end of every publish while the
    /// writer lock is still held. A failed sweep is deliberately swallowed:
    /// the publish it piggybacks on has already succeeded, and the queued
    /// removals survive for the next sweep.
    fn maybe_auto_vacuum(&self, published_epoch: u64) {
        let Some(threshold) = self.auto_vacuum_threshold else {
            return;
        };
        let retired_total = published_epoch + 1 - self.live_epoch_count() as u64;
        if retired_total.saturating_sub(self.retired_at_last_vacuum.load(Ordering::Relaxed))
            >= threshold
        {
            let _ = self.vacuum_locked();
        }
    }

    /// Publish a fully built epoch, writer lock held. Everything fallible
    /// has already happened by the time a build gets here, which is what
    /// makes "a failed build publishes nothing" true. `topology` is the new
    /// topology version of a re-fragmentation; it is published *before* the
    /// epoch pointer swaps, so a reader that pins the new epoch always
    /// finds its topology.
    fn publish_epoch(
        &self,
        number: u64,
        sessions: BTreeMap<usize, QuerySession>,
        topology: Option<Arc<Topology>>,
    ) {
        // Test instrumentation: hold the fully built, not-yet-visible epoch
        // open. No reader-visible lock is held here — readers must keep
        // completing on the base epoch however long the hook takes.
        {
            let hook = self.update_hook.lock().expect("the update-hook lock is never poisoned");
            if let Some(hook) = hook.as_ref() {
                hook();
            }
        }
        if let Some(topology) = topology {
            self.deployment.publish_topology(number, topology);
        }
        let next = Arc::new(EpochInner {
            number,
            sessions: Mutex::new(
                sessions.into_iter().map(|(id, s)| (id, Arc::new(Mutex::new(s)))).collect(),
            ),
        });
        *self.current.lock().expect("the current-epoch lock is never poisoned") = Arc::clone(&next);
        {
            let mut registry = self.epochs.lock().expect("the epoch registry is never poisoned");
            registry.insert(number, Arc::downgrade(&next));
            registry.retain(|_, weak| weak.strong_count() > 0);
        }
        self.maybe_auto_vacuum(number);
    }

    /// Compile and normalize `text` once, caching by query text: preparing
    /// the same text again returns the cached compilation, and a text whose
    /// *normal form* matches an earlier prepared query shares that query's
    /// compiled `Arc`. Exclusive only against other `prepare` calls —
    /// in-flight executions are not blocked.
    pub fn prepare(&self, text: &str) -> PaxResult<PreparedQuery> {
        {
            let table = self.prepared.read().expect("the prepared-query lock is never poisoned");
            if let Some(&id) = table.by_text.get(text) {
                return Ok(table.queries[id].clone());
            }
        }
        // Parse and normalize outside any lock — a slow parse must not
        // stall resolve() calls of concurrent executions. Only the (cheap,
        // cache-assisted) compilation step runs under the write lock, so it
        // can consult the server's shared sub-tree pool.
        let norm = paxml_xpath::normalize(&paxml_xpath::parse(text)?);
        let mut table = self.prepared.write().expect("the prepared-query lock is never poisoned");
        Self::prepare_normalized(&mut table, text, &norm)
    }

    /// Table-level prepare of one text whose normal form is already in
    /// hand. Shares whole compilations via `by_norm` and qualifier
    /// sub-trees via the table's `compile_cache`.
    fn prepare_normalized(
        table: &mut PreparedTable,
        text: &str,
        norm: &paxml_xpath::NormQuery,
    ) -> PaxResult<PreparedQuery> {
        if let Some(&id) = table.by_text.get(text) {
            // A racing prepare of the same text won; use its entry.
            return Ok(table.queries[id].clone());
        }
        let norm_key = format!("{norm:?}");
        let compiled = match table.by_norm.get(&norm_key) {
            Some(&id) => Arc::clone(&table.queries[id].compiled),
            None => Arc::new(paxml_xpath::compile_with_cache(norm, &mut table.compile_cache)?),
        };
        let id = table.queries.len();
        let query = PreparedQuery { id, text: Arc::from(text), compiled };
        table.queries.push(query.clone());
        table.by_text.insert(text.to_string(), id);
        table.by_norm.entry(norm_key).or_insert(id);
        Ok(query)
    }

    /// Prepare a whole set of queries in one call, maximising sharing
    /// across them: texts with equal normal forms share one compiled query,
    /// and distinct queries with overlapping qualifier sub-trees share
    /// those sub-trees through the server's compilation pool. Returns the
    /// prepared queries in input order plus a [`PrepareSetStats`] report
    /// quantifying the sharing against independent compilation.
    ///
    /// The whole set is admitted atomically under one table lock; any parse
    /// or compile error rejects the entire set without side effects on the
    /// table (beyond sub-trees already pooled, which are harmless).
    pub fn prepare_set(&self, texts: &[&str]) -> PaxResult<(Vec<PreparedQuery>, PrepareSetStats)> {
        let start = Instant::now();
        // Parse and normalize everything outside the lock; fail fast before
        // touching the table.
        let mut norms = Vec::with_capacity(texts.len());
        for text in texts {
            norms.push(paxml_xpath::normalize(&paxml_xpath::parse(text)?));
        }
        let mut table = self.prepared.write().expect("the prepared-query lock is never poisoned");
        let (hits_before, misses_before) = (table.compile_cache.hits, table.compile_cache.misses);
        let mut queries = Vec::with_capacity(texts.len());
        let mut distinct: BTreeSet<String> = BTreeSet::new();
        let mut arena_entries_independent = 0usize;
        for (text, norm) in texts.iter().zip(&norms) {
            let query = Self::prepare_normalized(&mut table, text, norm)?;
            // What compiling this text on its own would have cost: its full
            // QVect (the cached output is identical to an uncached compile).
            arena_entries_independent += query.compiled.qvect_len();
            distinct.insert(format!("{norm:?}"));
            queries.push(query);
        }
        let stats = PrepareSetStats {
            queries: texts.len(),
            distinct_queries: distinct.len(),
            subtree_hits: table.compile_cache.hits - hits_before,
            subtree_misses: table.compile_cache.misses - misses_before,
            arena_entries: table.compile_cache.pool_entries(),
            arena_entries_independent,
            elapsed: start.elapsed(),
        };
        Ok((queries, stats))
    }

    /// Check a prepared query belongs to this server and return its id.
    fn resolve(&self, query: &PreparedQuery) -> PaxResult<usize> {
        let table = self.prepared.read().expect("the prepared-query lock is never poisoned");
        match table.queries.get(query.id) {
            Some(own) if *own.text == *query.text => Ok(query.id),
            _ => Err(PaxError::ForeignQuery { query: query.text().to_string() }),
        }
    }

    /// Execute a prepared query through the configured engine. Takes
    /// `&self`: any number of executions may run concurrently, and none is
    /// ever blocked by an in-flight [`PaxServer::apply_updates`] — the
    /// execution pins the epoch current at entry and reads it to
    /// completion (see the [module docs](self)).
    ///
    /// On a PaX2 server the first execution also snapshots the query's
    /// residual vectors coordinator-side (one visit per relevant site —
    /// within the ≤ 2 bound); later executions are served from that cache
    /// with **zero visits** until an update dirties it, and
    /// [`PaxServer::apply_updates`] re-freshens it in the update's own
    /// visit. PaX3 and naive servers run their classic protocols each time.
    pub fn execute(&self, query: &PreparedQuery) -> PaxResult<ExecReport> {
        self.resolve(query)?;
        self.with_failover(|| {
            let epoch = self.pin();
            match self.algorithm {
                Algorithm::NaiveCentralized => {
                    naive::run(&self.deployment, &query.compiled, query.text(), epoch.number)
                }
                Algorithm::PaX3 => pax3::run(
                    &self.deployment,
                    &query.compiled,
                    query.text(),
                    &self.options,
                    epoch.number,
                ),
                Algorithm::PaX2 => self.execute_session(query, &epoch),
            }
        })
    }

    /// Prepare (or fetch the cached preparation of) `text` and execute it.
    pub fn execute_text(&self, text: &str) -> PaxResult<ExecReport> {
        let query = self.prepare(text)?;
        self.execute(&query)
    }

    /// One-shot evaluation of `text` through the configured classic engine:
    /// compiles fresh, runs the full protocol, touches no prepared-query
    /// cache — what benchmarks use as the un-amortized baseline. Shares the
    /// deployment like [`PaxServer::execute`] does.
    pub fn query_once(&self, text: &str) -> PaxResult<ExecReport> {
        let compiled = compile_text(text)?;
        self.with_failover(|| {
            let epoch = self.pin();
            match self.algorithm {
                Algorithm::NaiveCentralized => {
                    naive::run(&self.deployment, &compiled, text, epoch.number)
                }
                Algorithm::PaX3 => {
                    pax3::run(&self.deployment, &compiled, text, &self.options, epoch.number)
                }
                Algorithm::PaX2 => pax2::run(
                    &self.deployment,
                    &[(&compiled, text)],
                    &self.options,
                    epoch.number,
                    ExecMode::Query,
                ),
            }
        })
    }

    /// Execute a batch of prepared queries in one shared-visit execution.
    ///
    /// PaX2 and PaX3 servers run the batched combined protocol (the whole
    /// batch costs each site at most two visits, §4 extended); a naive
    /// server evaluates the batch one query at a time. Batch executions do
    /// not touch the prepared-query residual caches, and run concurrently
    /// with other executions like [`PaxServer::execute`] does.
    pub fn execute_batch(&self, queries: &[PreparedQuery]) -> PaxResult<ExecReport> {
        for query in queries {
            self.resolve(query)?;
        }
        self.with_failover(|| self.execute_batch_pinned(queries))
    }

    /// One attempt of [`PaxServer::execute_batch`], pinning the epoch
    /// afresh (so a retry after a failover sees current health state).
    fn execute_batch_pinned(&self, queries: &[PreparedQuery]) -> PaxResult<ExecReport> {
        let epoch = self.pin();
        match self.algorithm {
            Algorithm::NaiveCentralized => {
                let start = Instant::now();
                let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(queries.len());
                let mut coordinator_ops = 0u64;
                let mut stats = ClusterStats::default();
                for query in queries {
                    let report =
                        naive::run(&self.deployment, &query.compiled, query.text(), epoch.number)?;
                    coordinator_ops += report.coordinator_ops;
                    stats.merge(&report.stats);
                    outcomes.extend(report.queries);
                }
                let topology = self.deployment.topology_at(epoch.number);
                Ok(ExecReport {
                    algorithm: Algorithm::NaiveCentralized,
                    annotations_used: false,
                    mode: ExecMode::Batch,
                    queries: outcomes,
                    update: None,
                    fragments_total: topology.fragment_tree.len(),
                    stats,
                    coordinator_ops,
                    elapsed: start.elapsed(),
                    from_cache: false,
                    epoch: epoch.number,
                    placement_version: topology.version,
                })
            }
            Algorithm::PaX3 | Algorithm::PaX2 => {
                let slice: Vec<(&CompiledQuery, &str)> =
                    queries.iter().map(|q| (q.compiled.as_ref(), q.text())).collect();
                let mut report = pax2::run(
                    &self.deployment,
                    &slice,
                    &self.options,
                    epoch.number,
                    ExecMode::Batch,
                )?;
                // Batched execution always uses the shared-visit combined
                // protocol; the report names the server's configured
                // algorithm (PaX3's ≤ 3 bound holds a fortiori).
                report.algorithm = self.algorithm;
                Ok(report)
            }
        }
    }

    /// Prepare every text and execute them as one batch.
    pub fn execute_batch_text<S: AsRef<str>>(&self, texts: &[S]) -> PaxResult<ExecReport> {
        let queries: Vec<PreparedQuery> =
            texts.iter().map(|t| self.prepare(t.as_ref())).collect::<PaxResult<_>>()?;
        self.execute_batch(&queries)
    }

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
        let _writer = self.writer.lock().expect("the writer lock is never poisoned");
        // Recovered sites first: a repaired copy takes this update's write
        // instead of falling further behind. Best-effort — a copy a failed
        // repair leaves stale simply stays off the routing path.
        let _ = self.repair_locked();
        self.with_failover(|| self.apply_updates_locked(updates, start))
    }

    /// One attempt of [`PaxServer::apply_updates`], writer lock held. Safe
    /// to retry wholesale: a failed attempt publishes nothing, and versions
    /// it installed under the next epoch are unreadable orphans the retry
    /// overwrites (installs read their base strictly *below* the target
    /// epoch, so retried builds never stack on orphaned state).
    fn apply_updates_locked(
        &self,
        updates: &[(FragmentId, UpdateOp)],
        start: Instant,
    ) -> PaxResult<ExecReport> {
        // The writer lock makes this the only publisher: the base epoch
        // (and its topology) is stable for the whole build.
        let base = self.pin();
        let topology = self.deployment.topology_at(base.number);
        let fragments_total = topology.fragment_tree.len();
        let mut ops_by_fragment: BTreeMap<FragmentId, Vec<UpdateOp>> = BTreeMap::new();
        for (fragment, op) in updates {
            if !topology.fragment_tree.contains(*fragment) {
                return Err(paxml_fragment::FragmentError::UnknownFragment {
                    fragment: fragment.index(),
                }
                .into());
            }
            ops_by_fragment.entry(*fragment).or_default().push(op.clone());
        }
        let dirty_fragments: BTreeSet<FragmentId> = ops_by_fragment.keys().copied().collect();

        if dirty_fragments.is_empty() {
            // Nothing changes: no visit, no new epoch.
            let refreshed_sessions =
                base.sessions.lock().expect("the session-table lock is never poisoned").len();
            return Ok(ExecReport {
                algorithm: self.algorithm,
                annotations_used: self.options.use_annotations,
                mode: ExecMode::Update,
                queries: Vec::new(),
                update: Some(UpdateOutcome {
                    dirty_fragments,
                    dirty_sites: BTreeSet::new(),
                    applied_ops: 0,
                    rejected: BTreeMap::new(),
                    refreshed_sessions,
                    recomputed_fragments: 0,
                    reunified_fragments: 0,
                }),
                fragments_total,
                stats: ClusterStats::default(),
                coordinator_ops: 0,
                elapsed: start.elapsed(),
                from_cache: false,
                epoch: base.number,
                placement_version: topology.version,
            });
        }
        let next_number = base.number + 1;

        // -------------------- fan the dirty fragments out to their replicas
        // Every *live* copy of a dirty fragment takes the write; copies on
        // quarantined sites (or already stale ones) are skipped and marked
        // stale from this epoch on — the routing layer avoids them until a
        // repair closes the range. A fragment with no live copy at all
        // fails the update (transiently: the failover loop re-probes and
        // retries).
        let health = self.deployment.health();
        let mut stale_marks: Vec<(FragmentId, SiteId)> = Vec::new();
        let mut site_fragments: BTreeMap<SiteId, Vec<FragmentId>> = BTreeMap::new();
        for &fragment in &dirty_fragments {
            let replicas = topology.replicas_of(fragment);
            let mut live = 0usize;
            for &site in replicas.sites() {
                if health.is_quarantined(site) || health.is_stale_at(fragment, site, base.number) {
                    stale_marks.push((fragment, site));
                } else {
                    site_fragments.entry(site).or_default().push(fragment);
                    live += 1;
                }
            }
            if live == 0 {
                return Err(PaxError::SiteUnreachable {
                    site: replicas.primary(),
                    detail: format!(
                        "no live replica of fragment {} to update: all of {replicas} are \
                         quarantined or stale",
                        fragment.index()
                    ),
                });
            }
        }
        let dirty_sites: BTreeSet<SiteId> = site_fragments.keys().copied().collect();

        let mut next_sessions = base.cloned_sessions();

        // ----------------------------------------------- the one dirty round
        // Each dirty site gets the ops for its fragments plus, per session,
        // the recompute instructions for its share of that session's
        // dirty-and-relevant fragments. The round is pinned to the *next*
        // epoch: sites install the updated fragments as new versions and
        // recompute vectors against them, while readers on older epochs
        // keep seeing the old versions. The round also piggybacks the
        // oldest-live-epoch watermark so visited sites retire dead
        // versions for free.
        //
        // A failed round (e.g. a site became unreachable mid-build) returns
        // here: nothing was published, readers keep the base epoch. The
        // versions already installed under `next_number` on reached sites
        // are unreadable orphans; a retried update overwrites them
        // (installs read their base strictly *below* the target epoch).
        let mut ctx = ExecCtx::pinned(&self.deployment, next_number, self.live_watermark());
        let round = session_round(
            &mut ctx,
            &site_fragments,
            &ops_by_fragment,
            next_sessions.iter_mut().map(|(&id, session)| (id, session)).collect(),
        )?;
        // Only now that every live replica took the write do the skipped
        // copies go stale — a failed round publishes nothing, so marking
        // earlier would poison copies against an epoch that never existed.
        for &(fragment, site) in &stale_marks {
            health.mark_stale(fragment, site, next_number);
        }

        self.publish_epoch(next_number, next_sessions, None);

        Ok(ExecReport {
            algorithm: self.algorithm,
            annotations_used: self.options.use_annotations,
            mode: ExecMode::Update,
            queries: Vec::new(),
            update: Some(UpdateOutcome {
                dirty_fragments,
                dirty_sites,
                applied_ops: round.applied_ops,
                rejected: round.rejected,
                refreshed_sessions: round.refreshed_sessions,
                recomputed_fragments: round.recomputed_fragments,
                reunified_fragments: round.reunified_fragments,
            }),
            fragments_total,
            stats: ctx.stats,
            coordinator_ops: round.unify_ops,
            elapsed: start.elapsed(),
            from_cache: false,
            epoch: next_number,
            placement_version: topology.version,
        })
    }

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
    ///    publishes **nothing**: readers keep epoch `N`, and the versions
    ///    already installed are unreadable orphans a retry overwrites);
    /// 2. publishes the new topology version, then swaps the epoch pointer
    ///    — in that order, so a reader that pins `N + 1` always finds
    ///    `N + 1`'s topology;
    /// 3. carries every residual-vector session into the new epoch:
    ///    sessions whose relevant fragments were untouched are
    ///    re-anchored to the new fragment tree coordinator-side (zero
    ///    visits), sessions that overlap the touched fragments are
    ///    cold-reset and re-snapshot lazily on their next execution;
    /// 4. queues the dissolved `(fragment, site)` placements for the
    ///    vacuum sweep, which purges the stale copies once no live epoch
    ///    can route to them.
    ///
    /// Readers are never blocked: in-flight executions keep reading their
    /// pinned epoch and its topology version to completion.
    pub fn refragment(
        &self,
        mut build: impl FnMut(&mut RefragBase<'_>) -> PaxResult<TopologyChange>,
    ) -> PaxResult<RefragReport> {
        let start = Instant::now();
        let _writer = self.writer.lock().expect("the writer lock is never poisoned");
        let _ = self.repair_locked();
        self.with_failover(|| self.refragment_locked(&mut build, start))
    }

    /// One attempt of [`PaxServer::refragment`], writer lock held. The
    /// builder closure is `FnMut` precisely so a failover can re-run it
    /// against fresh health state (its fetches re-route around sites
    /// quarantined by the failed attempt).
    fn refragment_locked(
        &self,
        build: &mut impl FnMut(&mut RefragBase<'_>) -> PaxResult<TopologyChange>,
        start: Instant,
    ) -> PaxResult<RefragReport> {
        let base = self.pin();
        let base_topology = self.deployment.topology_at(base.number);
        let mut refrag_base = RefragBase {
            ctx: ExecCtx::pinned(&self.deployment, base.number, 0),
            topology: Arc::clone(&base_topology),
        };
        let change = build(&mut refrag_base)?;
        let mut stats = refrag_base.ctx.stats;
        self.validate_change(&change, &base_topology)?;

        let next_number = base.number + 1;
        let watermark = self.live_watermark();

        // ------------------------- transfer: one install round at N + 1
        // Installs only — never removals — so a partial round cannot
        // corrupt any epoch: old placements still hold their data, and
        // versions installed under `N + 1` are invisible until publish.
        // Every *live* replica site of an installed fragment gets a copy;
        // quarantined targets are skipped and their copies marked stale
        // once the round lands (a fragment all of whose new homes are
        // quarantined fails the change — nothing ships, nothing publishes).
        let health = self.deployment.health();
        let installed_fragments = change.installs.len();
        let mut stale_marks: Vec<(FragmentId, SiteId)> = Vec::new();
        let mut shipped_to: Vec<(FragmentId, SiteId)> = Vec::new();
        let mut by_site: BTreeMap<SiteId, Vec<Fragment>> = BTreeMap::new();
        for fragment in &change.installs {
            let replicas = &change.placement[&fragment.id];
            let mut live = 0usize;
            for &site in replicas.sites() {
                if health.is_quarantined(site) {
                    stale_marks.push((fragment.id, site));
                } else {
                    by_site.entry(site).or_default().push(fragment.clone());
                    shipped_to.push((fragment.id, site));
                    live += 1;
                }
            }
            if live == 0 {
                return Err(PaxError::SiteUnreachable {
                    site: replicas.primary(),
                    detail: format!(
                        "no live site to install fragment {} on: all of {replicas} are \
                         quarantined",
                        fragment.id.index()
                    ),
                });
            }
        }
        if !by_site.is_empty() {
            let mut ctx = ExecCtx::pinned(&self.deployment, next_number, watermark);
            let requests: BTreeMap<SiteId, ProtocolRequest> = by_site
                .into_iter()
                .map(|(site, installs)| (site, ProtocolRequest::Refrag(MsgRefrag { installs })))
                .collect();
            let responses = ctx.round(requests)?;
            for response in responses.into_values() {
                response.into_refragged()?;
            }
            stats.merge(&ctx.stats);
        }
        // The round landed: record which copies missed it, and close any
        // open stale range on copies this round just re-installed fresh.
        for &(fragment, site) in &stale_marks {
            health.mark_stale(fragment, site, next_number);
        }
        for &(fragment, site) in &shipped_to {
            health.mark_repaired(fragment, site, next_number);
        }

        // ---------------- carry the sessions into the new epoch (no visits)
        let next_topology = Arc::new(Topology::new(
            change.fragment_tree,
            change.placement,
            base_topology.version + 1,
        ));
        let root_label = &self.deployment.root_label;
        let mut next_sessions = base.cloned_sessions();
        let mut invalidated_sessions = 0usize;
        let mut retopologized_sessions = 0usize;
        for session in next_sessions.values_mut() {
            let overlaps = session.relevant().iter().any(|f| change.touched.contains(f));
            if session.initialized && !overlaps {
                session.retopologize(&next_topology, root_label, &change.touched);
                retopologized_sessions += 1;
            } else {
                // Residual vectors mention fragments that changed shape (or
                // were never snapshotted): start over. The next execution
                // re-snapshots against the new topology.
                invalidated_sessions += 1;
                *session = QuerySession::new(
                    session.query.clone(),
                    session.query_text(),
                    session.options(),
                    &next_topology,
                    root_label,
                );
            }
        }

        // ------------ queue dissolved placements for the vacuum sweep
        {
            let mut retired = self
                .retired_placements
                .lock()
                .expect("the retired-placement lock is never poisoned");
            // A fragment returning to a site it once left supersedes the
            // pending wholesale purge of its old copy there — the install
            // just made that placement live again, and the version-level
            // sweep reclaims the stale copy instead.
            retired.retain(|p| {
                !next_topology.placement.get(&p.fragment).is_some_and(|set| set.contains(p.site))
            });
            for (&fragment, old_set) in &base_topology.placement {
                for &old_site in old_set.sites() {
                    let keeps = next_topology
                        .placement
                        .get(&fragment)
                        .is_some_and(|set| set.contains(old_site));
                    if !keeps {
                        retired.push(RetiredPlacement {
                            fragment,
                            site: old_site,
                            removal_epoch: next_number,
                        });
                    }
                }
            }
        }
        // Staleness bookkeeping for fragments the change dissolved entirely
        // dies with them (their leftover versions are the vacuum's job).
        for &fragment in base_topology.fragment_tree.ids() {
            if !next_topology.fragment_tree.contains(fragment) {
                health.forget_fragment(fragment);
            }
        }

        self.publish_epoch(next_number, next_sessions, Some(Arc::clone(&next_topology)));

        Ok(RefragReport {
            base_epoch: base.number,
            epoch: next_number,
            placement_version: next_topology.version,
            installed_fragments,
            invalidated_sessions,
            retopologized_sessions,
            stats,
            elapsed: start.elapsed(),
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
            let epoch = self.pin();
            let topology = self.deployment.topology_at(epoch.number);
            let mut ctx = ExecCtx::pinned(&self.deployment, epoch.number, 0);
            let mut requests: BTreeMap<SiteId, ProtocolRequest> = BTreeMap::new();
            for (site, fragments) in
                ctx.group_by_site(topology.fragment_tree.ids().iter().copied())?
            {
                requests.insert(site, ProtocolRequest::FetchFragments(fragments));
            }
            let responses = ctx.round(requests)?;
            let mut shipped: Vec<Fragment> = Vec::new();
            for response in responses.into_values() {
                shipped.extend(response.into_fragments()?);
            }
            paxml_fragment::compact_fragmentation(shipped, &topology.fragment_tree)
                .map_err(Into::into)
        })
    }

    /// The PaX2 session path of [`PaxServer::execute`]: snapshot on first
    /// run, serve from the maintained cache afterwards. Runs against the
    /// epoch the caller pinned; cold snapshots of one particular query
    /// serialize on that query's session lock, warm executions of
    /// different queries run fully in parallel.
    fn execute_session(&self, query: &PreparedQuery, epoch: &EpochInner) -> PaxResult<ExecReport> {
        let start = Instant::now();
        let topology = self.deployment.topology_at(epoch.number);
        let session_arc = {
            let mut map = epoch.sessions.lock().expect("the session-table lock is never poisoned");
            Arc::clone(map.entry(query.id).or_insert_with(|| {
                Arc::new(Mutex::new(QuerySession::new(
                    (*query.compiled).clone(),
                    query.text(),
                    &self.options,
                    &topology,
                    &self.deployment.root_label,
                )))
            }))
        };
        let mut session = session_arc.lock().expect("a session lock is never poisoned");
        let fragments_total = topology.fragment_tree.len();
        if session.initialized {
            // The cache is current for this epoch (every update carries
            // the sessions into the next epoch refreshed): answer without
            // visiting a single site.
            return Ok(ExecReport {
                algorithm: Algorithm::PaX2,
                annotations_used: self.options.use_annotations,
                mode: ExecMode::Query,
                queries: vec![QueryOutcome {
                    query: session.query_text().to_string(),
                    answers: session.answers().to_vec(),
                    fragments_evaluated: 0,
                    coordinator_ops: 0,
                }],
                update: None,
                fragments_total,
                stats: ClusterStats::default(),
                coordinator_ops: 0,
                elapsed: start.elapsed(),
                from_cache: true,
                epoch: epoch.number,
                placement_version: topology.version,
            });
        }
        // Cold snapshot: a session round with no ops, one visit per relevant
        // site, reading the pinned epoch's fragment versions.
        let mut ctx = ExecCtx::pinned(&self.deployment, epoch.number, 0);
        let relevant_by_site = ctx.group_by_site(session.relevant().iter().copied())?;
        let round = session_round(
            &mut ctx,
            &relevant_by_site,
            &BTreeMap::new(),
            BTreeMap::from([(query.id, &mut *session)]),
        )?;
        Ok(ExecReport {
            algorithm: Algorithm::PaX2,
            annotations_used: self.options.use_annotations,
            mode: ExecMode::Query,
            queries: vec![QueryOutcome {
                query: session.query_text().to_string(),
                answers: session.answers().to_vec(),
                fragments_evaluated: session.relevant().len(),
                coordinator_ops: round.unify_ops,
            }],
            update: None,
            fragments_total,
            stats: ctx.stats,
            coordinator_ops: round.unify_ops,
            elapsed: start.elapsed(),
            from_cache: false,
            epoch: epoch.number,
            placement_version: topology.version,
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
    ctx: ExecCtx<'a>,
    topology: Arc<Topology>,
}

impl RefragBase<'_> {
    /// The topology at the base epoch — what the change is relative to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Fetch fragment payloads from the sites holding them (one charged
    /// round, grouped by site, pinned to the base epoch).
    pub fn fetch(&mut self, fragments: &[FragmentId]) -> PaxResult<BTreeMap<FragmentId, Fragment>> {
        if fragments.is_empty() {
            return Ok(BTreeMap::new());
        }
        let mut requests: BTreeMap<SiteId, ProtocolRequest> = BTreeMap::new();
        for (site, fragments) in self.ctx.group_by_site(fragments.iter().copied())? {
            requests.insert(site, ProtocolRequest::FetchFragments(fragments));
        }
        let responses = self.ctx.round(requests)?;
        let mut fetched = BTreeMap::new();
        for response in responses.into_values() {
            for fragment in response.into_fragments()? {
                fetched.insert(fragment.id, fragment);
            }
        }
        Ok(fetched)
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

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_fragment::strategy;
    use paxml_xml::{TreeBuilder, XmlTree};
    use paxml_xpath::centralized;

    fn clientele() -> XmlTree {
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "40")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Lisa")
            .leaf("country", "Canada")
            .open("broker")
            .leaf("name", "CIBC")
            .open("market")
            .leaf("name", "TSE")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$382")
            .leaf("qt", "90")
            .close()
            .close()
            .close()
            .close()
            .build()
    }

    fn server_for(algorithm: Algorithm, fragmented: &FragmentedTree) -> PaxServer {
        PaxServer::builder()
            .algorithm(algorithm)
            .sites(4)
            .sequential(true)
            .deploy(fragmented)
            .unwrap()
    }

    #[test]
    fn the_server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PaxServer>();
        assert_send_sync::<PreparedQuery>();
    }

    #[test]
    fn every_algorithm_matches_the_centralized_reference_through_the_server() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker", "market"]).unwrap();
        for query in [
            "client/name",
            "client[country/text()='US']/broker/name",
            "//stock[qt >= 50]/code",
            "//broker[//stock/code/text()='GOOG']/name",
            "nonexistent/path",
        ] {
            let mut expected = centralized::evaluate(&tree, query).unwrap().answers;
            expected.sort();
            for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX3, Algorithm::PaX2] {
                let server = server_for(algorithm, &fragmented);
                let q = server.prepare(query).unwrap();
                let report = server.execute(&q).unwrap();
                assert_eq!(report.answer_origins(), expected, "{algorithm} on {query}");
                // And again: per-execution meters, answers unchanged.
                let report = server.execute(&q).unwrap();
                assert_eq!(report.answer_origins(), expected, "{algorithm} rerun on {query}");
            }
        }
    }

    #[test]
    fn prepare_caches_by_query_text() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let server = server_for(Algorithm::PaX2, &fragmented);
        let a = server.prepare("client/name").unwrap();
        let b = server.prepare("client/name").unwrap();
        assert_eq!(a.id, b.id);
        assert_eq!(server.prepared_count(), 1);
        let c = server.prepare("client/broker/name").unwrap();
        assert_ne!(a.id, c.id);
        assert_eq!(server.prepared_count(), 2);
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let a = server_for(Algorithm::PaX2, &fragmented);
        let b = server_for(Algorithm::PaX2, &fragmented);
        let qa = a.prepare("client/name").unwrap();
        let _qb = b.prepare("//name").unwrap();
        // Same id slot, different text: must be rejected, not silently
        // executed as the wrong query.
        assert!(matches!(b.execute(&qa), Err(PaxError::ForeignQuery { .. })));
    }

    #[test]
    fn pax2_reexecution_is_served_from_the_cache() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let server = server_for(Algorithm::PaX2, &fragmented);
        let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
        let first = server.execute(&q).unwrap();
        assert!(!first.from_cache);
        assert!(first.max_visits_per_site() >= 1);
        let second = server.execute(&q).unwrap();
        assert!(second.from_cache);
        assert_eq!(second.max_visits_per_site(), 0);
        assert_eq!(second.rounds(), 0);
        assert_eq!(second.answer_origins(), first.answer_origins());
        assert!(second.summary().contains("(cached)"));
    }

    #[test]
    fn consecutive_executions_report_per_execution_stats() {
        // The `&mut Deployment` stats footgun, fixed: no reset() anywhere,
        // yet the second run's meters equal the first run's instead of
        // doubling.
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker", "market"]).unwrap();
        for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX3] {
            let server = server_for(algorithm, &fragmented);
            let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
            let first = server.execute(&q).unwrap();
            let second = server.execute(&q).unwrap();
            assert_eq!(
                first.max_visits_per_site(),
                second.max_visits_per_site(),
                "{algorithm}: visits accumulated across executions"
            );
            assert_eq!(first.network_bytes(), second.network_bytes());
            assert_eq!(first.rounds(), second.rounds());
            // The cumulative view keeps growing, for capacity planning.
            assert_eq!(server.cumulative_stats().rounds, first.rounds() + second.rounds());
        }
        // Same through the one-shot path.
        let server = server_for(Algorithm::PaX2, &fragmented);
        let first = server.query_once("client/broker/name").unwrap();
        let second = server.query_once("client/broker/name").unwrap();
        assert_eq!(first.max_visits_per_site(), second.max_visits_per_site());
        assert_eq!(first.network_bytes(), second.network_bytes());
    }

    #[test]
    fn batches_share_visits_for_pax_servers_and_loop_for_naive() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker", "market"]).unwrap();
        let queries =
            ["client/name", "//stock/code", "client[country/text()='US']/broker/name", "//name"];
        let mut expected: Vec<Vec<paxml_xml::NodeId>> = Vec::new();
        for query in queries {
            let mut answers = centralized::evaluate(&tree, query).unwrap().answers;
            answers.sort();
            expected.push(answers);
        }
        for algorithm in [Algorithm::PaX2, Algorithm::PaX3, Algorithm::NaiveCentralized] {
            let server = server_for(algorithm, &fragmented);
            let batch = server.execute_batch_text(&queries).unwrap();
            assert_eq!(batch.len(), queries.len());
            assert_eq!(batch.mode, ExecMode::Batch);
            assert_eq!(batch.algorithm, algorithm);
            for (outcome, expected) in batch.queries.iter().zip(&expected) {
                let mut origins: Vec<_> = outcome.answers.iter().map(|a| a.origin).collect();
                origins.sort();
                assert_eq!(&origins, expected, "{algorithm} batch on {}", outcome.query);
            }
            if algorithm != Algorithm::NaiveCentralized {
                assert!(batch.max_visits_per_site() <= 2, "{algorithm} batch broke the bound");
            }
        }
        // A single query is the batch of one: same driver, same numbers.
        let server = server_for(Algorithm::PaX2, &fragmented);
        for query in queries {
            let batch = server.execute_batch_text(&[query]).unwrap();
            let once = server.query_once(query).unwrap();
            assert_eq!(batch.queries[0].answers, once.queries[0].answers, "{query}");
            assert_eq!(batch.queries[0].fragments_evaluated, once.queries[0].fragments_evaluated);
            assert_eq!(batch.queries[0].coordinator_ops, once.queries[0].coordinator_ops);
        }
        // An unparsable member rejects the whole batch before any visit.
        let rounds_before = server.cumulative_stats().rounds;
        assert!(server.execute_batch_text(&["client/name", "client[", "//name"]).is_err());
        assert_eq!(server.cumulative_stats().rounds, rounds_before);
    }

    #[test]
    fn updates_refresh_every_prepared_query_without_visiting_clean_sites() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let mut mirror = fragmented.clone();
        let server = server_for(Algorithm::PaX2, &fragmented);
        let q1 = server.prepare("client[country/text()='US']/broker/name").unwrap();
        let q2 = server.prepare("client/name").unwrap();
        assert_eq!(server.execute(&q1).unwrap().answer_texts(), vec!["E*trade".to_string()]);
        assert_eq!(
            server.execute(&q2).unwrap().answer_texts(),
            vec!["Anna".to_string(), "Lisa".to_string()]
        );

        // Lisa's country text node lives in the root fragment (F0).
        let root_tree = &mirror.fragments[0].tree;
        let countries = root_tree.find_all("country");
        let lisa_country = root_tree.children(countries[1]).next().unwrap();
        let updates =
            vec![(FragmentId(0), UpdateOp::EditText { node: lisa_country, text: "US".into() })];
        for (fragment, op) in &updates {
            paxml_fragment::apply_update(&mut mirror.fragments[fragment.index()], op).unwrap();
        }
        let update = server.apply_updates(&updates).unwrap();
        assert_eq!(update.mode, ExecMode::Update);
        let outcome = update.update.as_ref().unwrap();
        assert_eq!(outcome.applied_ops, 1);
        assert_eq!(outcome.refreshed_sessions, 2);
        assert_eq!(update.clean_site_visits(), 0, "clean sites must not be visited");
        assert_eq!(update.max_visits_per_site(), 1);

        // Both prepared queries are current — served with zero visits — and
        // agree with a from-scratch evaluation over the updated fragments.
        for (q, query_text) in
            [(q1, "client[country/text()='US']/broker/name"), (q2, "client/name")]
        {
            let scratch = server_for(Algorithm::PaX2, &mirror);
            let expected = scratch.query_once(query_text).unwrap().answer_origins();
            let report = server.execute(&q).unwrap();
            assert!(report.from_cache);
            assert_eq!(report.max_visits_per_site(), 0);
            assert_eq!(report.answer_origins(), expected, "stale cache for {query_text}");
        }
    }

    #[test]
    fn unknown_fragments_fail_before_any_visit_and_empty_updates_are_free() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let server = server_for(Algorithm::PaX2, &fragmented);
        let node = fragmented.fragments[1].tree.root();
        let err = server.apply_updates(&[(FragmentId(99), UpdateOp::DeleteSubtree { node })]);
        assert!(matches!(err, Err(PaxError::Fragment(_))));
        assert_eq!(server.cumulative_stats().rounds, 0);

        let report = server.apply_updates(&[]).unwrap();
        assert_eq!(report.rounds(), 0);
        assert_eq!(report.network_bytes(), 0);
        assert!(report.update.unwrap().dirty_fragments.is_empty());
    }

    #[test]
    fn builder_validates_its_configuration() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        assert!(matches!(
            PaxServer::builder().sites(0).deploy(&fragmented),
            Err(PaxError::InvalidConfig { .. })
        ));
        let mut assignment = BTreeMap::new();
        assignment.insert(FragmentId(1), SiteId(9));
        assert!(matches!(
            PaxServer::builder().sites(2).assignment(assignment).deploy(&fragmented),
            Err(PaxError::InvalidConfig { .. })
        ));
        // Defaults: one site per fragment.
        let server = PaxServer::builder().deploy(&fragmented).unwrap();
        assert_eq!(server.deployment().site_count(), fragmented.fragment_count());
        assert_eq!(server.algorithm(), Algorithm::PaX2);
    }

    #[test]
    fn updates_on_a_naive_server_still_change_the_data() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let server = server_for(Algorithm::NaiveCentralized, &fragmented);
        let q = server.prepare("client/broker/name").unwrap();
        assert_eq!(
            server.execute(&q).unwrap().answer_texts(),
            vec!["E*trade".to_string(), "CIBC".to_string()]
        );
        let f2 = &fragmented.fragments[2].tree;
        let name = f2.find_first("name").unwrap();
        let text = f2.children(name).next().unwrap();
        let update = server
            .apply_updates(&[(
                FragmentId(2),
                UpdateOp::EditText { node: text, text: "RBC".into() },
            )])
            .unwrap();
        assert_eq!(update.update.unwrap().applied_ops, 1);
        assert_eq!(
            server.execute(&q).unwrap().answer_texts(),
            vec!["E*trade".to_string(), "RBC".to_string()]
        );
    }

    #[test]
    fn prepare_set_shares_whole_queries_and_subtrees() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let server = server_for(Algorithm::PaX2, &fragmented);

        // Three texts, two normal forms ([a][b] commutes with [b][a] only
        // in compiled form, but a[b][c] and a[c][b] normalize differently;
        // use literal duplicates plus a shared qualifier subtree instead).
        let texts = [
            "client[country/text()='US']/broker/name",
            "client[country/text()='US']/broker/name",
            "client[country/text()='US']/name",
            "client[country/text()='Canada']/broker/name",
        ];
        let (queries, stats) = server.prepare_set(&texts).unwrap();
        assert_eq!(queries.len(), 4);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.distinct_queries, 3);
        // Duplicate texts share the identical compiled allocation.
        assert!(Arc::ptr_eq(&queries[0].compiled, &queries[1].compiled));
        // The country/text()='US' subtree is compiled once and spliced into
        // the second distinct query from the pool.
        assert!(stats.subtree_hits >= 1, "expected pool hits, got {stats:?}");
        assert!(
            stats.arena_entries < stats.arena_entries_independent,
            "sharing must shrink the pool: {stats:?}"
        );

        // Set-prepared queries execute exactly like singly-prepared ones.
        let expected = centralized::evaluate(&tree, texts[0]).unwrap();
        let report = server.execute(&queries[0]).unwrap();
        assert_eq!(report.answer_origins(), expected.answers);

        // A later single prepare of an equivalent text reuses the compiled
        // Arc through the normal-form index.
        let again = server
            .prepare("client[country/text()='US']/broker/name ")
            .unwrap_or_else(|_| server.prepare("client[country/text()='US']/broker/name").unwrap());
        assert!(Arc::ptr_eq(&again.compiled, &queries[0].compiled));
    }

    #[test]
    fn concurrent_executions_share_one_server_through_an_arc() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker", "market"]).unwrap();
        for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX3, Algorithm::PaX2] {
            let server = Arc::new(
                PaxServer::builder().algorithm(algorithm).sites(4).deploy(&fragmented).unwrap(),
            );
            let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
            let expected = server.execute(&q).unwrap().answer_origins();
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    let server = Arc::clone(&server);
                    let q = q.clone();
                    std::thread::spawn(move || {
                        (0..8).map(|_| server.execute(&q).unwrap().answer_origins()).collect()
                    })
                })
                .collect();
            for client in clients {
                let runs: Vec<Vec<paxml_xml::NodeId>> = client.join().unwrap();
                for run in runs {
                    assert_eq!(run, expected, "{algorithm} diverged under concurrency");
                }
            }
        }
    }
}
