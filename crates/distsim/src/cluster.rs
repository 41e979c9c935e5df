//! The simulated cluster: sites, fragment placement, and the coordinator's
//! visit primitive — callable from any number of coordinator threads at
//! once.
//!
//! The paper's setting is a coordinator site `S_Q` plus a number of sites
//! each holding one or more fragments, communicating over a network. This
//! module reproduces that setting on one machine:
//!
//! * each **round** ([`Cluster::deliver`]) models the coordinator visiting a
//!   subset of the sites in parallel — every selected site runs the supplied
//!   task on its own long-lived worker thread against its local fragments
//!   and scratch state;
//! * rounds take `&self`: a cluster is `Sync`, and **concurrent rounds from
//!   different coordinator threads are safe** — each round collects its
//!   responses over a private channel, sites serialize overlapping visits on
//!   their own mutex, and per-execution state is kept apart by caller-owned
//!   scratch *slots*;
//! * the worker threads form a **persistent per-site pool**: they are
//!   spawned once per cluster (lazily, on the first round to two or more
//!   sites) and fed jobs over channels, so thread setup cost does not scale
//!   with `rounds × sites` the way the earlier thread-per-site-per-round
//!   design did — a difference that compounds under batch workloads. A
//!   round to one site runs inline on the coordinator thread instead;
//! * every request and response is **measured** site-side with the byte
//!   meter ([`encoded_size`], the wire codec run over a counting sink), and
//!   every task is bracketed by [`SiteLocal::metered`] — but the cluster
//!   **charges nothing**: a round hands back, per site, the response plus
//!   the [`SiteWork`] it observed, and the caller commits that with
//!   [`ClusterStats::commit_round`](crate::ClusterStats::commit_round) to
//!   whichever recorders it keeps (`paxml-core`'s round gate keeps one per
//!   execution and one cumulative ledger per deployment);
//! * a site's reported busy time is its task time; committing a round
//!   charges its parallel cost at the **slowest** site's, modelling the
//!   parallel computation cost of §3.4.
//!
//! ```
//! use paxml_distsim::{Cluster, ClusterStats, Placement};
//! use paxml_fragment::strategy::cut_children_of_root;
//! use paxml_xml::TreeBuilder;
//!
//! let tree = TreeBuilder::new("sites")
//!     .open("site").leaf("person", "p1").close()
//!     .open("site").leaf("person", "p2").close()
//!     .open("site").leaf("person", "p3").close()
//!     .build();
//! let fragmented = cut_children_of_root(&tree).unwrap();
//! let cluster = Cluster::new(&fragmented, 2, Placement::RoundRobin);
//!
//! // One round: ask every occupied site how many nodes it stores. Each
//! // site runs the task on its own worker thread and reports what the
//! // visit cost; committing that accounts one visit per site and the exact
//! // request/response bytes.
//! let requests = cluster.occupied_sites().into_iter().map(|s| (s, ())).collect();
//! let delivered = cluster.deliver(requests, |site, ()| site.cumulative_size() as u64);
//! let total: u64 = delivered.values().map(|d| d.response).sum();
//! assert_eq!(total as usize, fragmented.total_real_nodes());
//!
//! let mut stats = ClusterStats::default();
//! stats.commit_round(delivered.iter().map(|(site, d)| (*site, d.work)));
//! assert_eq!(stats.rounds, 1);
//! assert_eq!(stats.max_visits_per_site(), 1);
//! assert!(stats.total_bytes() > 0);
//! ```

use crate::bytecount::encoded_size;
use crate::fault::ReplicaSet;
use crate::site::{SiteId, SiteLocal};
use crate::stats::SiteWork;
use paxml_fragment::{FragmentId, FragmentedTree};
use serde::Serialize;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// How fragments are placed onto sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fragment `F_i` goes to site `S_{i mod site_count}` — the placement
    /// used by Experiment 1 (one fragment per machine when
    /// `site_count >= fragment_count`).
    RoundRobin,
    /// Every fragment on site `S0` (degenerate single-site deployment, the
    /// first iteration of Experiment 1).
    SingleSite,
}

impl Placement {
    /// Where every fragment lives with `replication` copies over
    /// `site_count` sites: the primary chosen by this placement, plus
    /// secondaries on the next sites round-robin
    /// (`(primary + k) mod site_count`) — which also guarantees copies are
    /// never co-located. `replication` is clamped to `site_count`.
    pub fn replica_sets(
        self,
        fragmented: &FragmentedTree,
        site_count: usize,
        replication: usize,
    ) -> BTreeMap<FragmentId, ReplicaSet> {
        let site_count = site_count.max(1);
        let copies = replication.clamp(1, site_count);
        let set_of = |fragment: FragmentId| {
            let primary = match self {
                Placement::RoundRobin => fragment.index() % site_count,
                Placement::SingleSite => 0,
            };
            ReplicaSet::of((0..copies).map(|k| SiteId((primary + k) % site_count)))
        };
        fragmented.fragments.iter().map(|f| (f.id, set_of(f.id))).collect()
    }
}

/// Make an explicit fragment→replica-set assignment total and in range for
/// `site_count` sites: fragments not mentioned get a solo copy on `S0`, and
/// site indices beyond the last site are clamped to it. Every transport
/// derives its deploy-time placement through this, so the simulator and a
/// socket cluster given the same assignment store the same copies.
pub fn clamp_assignment(
    fragmented: &FragmentedTree,
    site_count: usize,
    assignment: &BTreeMap<FragmentId, ReplicaSet>,
) -> BTreeMap<FragmentId, ReplicaSet> {
    let last = SiteId(site_count.max(1) - 1);
    let set_of = |fragment: FragmentId| match assignment.get(&fragment) {
        // `of` re-dedupes whatever the clamp makes collide.
        Some(set) => ReplicaSet::of(set.sites().iter().map(|&s| s.min(last))),
        None => ReplicaSet::solo(SiteId(0)),
    };
    fragmented.fragments.iter().map(|f| (f.id, set_of(f.id))).collect()
}

/// One site's share of a delivered round: what it answered and what the
/// visit cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<Resp> {
    /// The site's response.
    pub response: Resp,
    /// The traffic and work the visit was measured at.
    pub work: SiteWork,
}

/// What a round collects per site: the delivery, or the payload of a
/// panicking task (re-raised on that round's coordinator thread so a faulty
/// task crashes its round immediately instead of hanging it).
type WorkerResult<Resp> = Result<(SiteId, Delivery<Resp>), Box<dyn Any + Send>>;

/// A job shipped to a site's worker thread. The job runs the site task,
/// catches any panic, and ships the result back on the channel of the round
/// that posted it — workers themselves are round-agnostic, which is what
/// lets rounds from different coordinator threads overlap without their
/// responses crossing.
type Job = Box<dyn FnOnce(&mut SiteLocal) + Send>;

/// The persistent per-site worker threads plus their job channels.
struct WorkerPool {
    job_senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(sites: &[Arc<Mutex<SiteLocal>>]) -> Self {
        let mut job_senders = Vec::with_capacity(sites.len());
        let mut handles = Vec::with_capacity(sites.len());
        for (index, site) in sites.iter().enumerate() {
            let (job_tx, job_rx) = channel::<Job>();
            let site = Arc::clone(site);
            let handle = std::thread::Builder::new()
                .name(format!("paxml-site-{index}"))
                .spawn(move || {
                    // The worker owns nothing but a channel end and a handle
                    // on its site; it idles on `recv` between rounds and
                    // exits when the cluster drops its job sender. Jobs never
                    // unwind (each catches its own panic before the site
                    // guard drops, so the mutex is not poisoned) and deliver
                    // their outcome to their round's private channel.
                    while let Ok(job) = job_rx.recv() {
                        let mut guard =
                            site.lock().expect("a site task panicked while holding the site");
                        job(&mut guard);
                    }
                })
                .expect("spawning a site worker thread");
            job_senders.push(job_tx);
            handles.push(handle);
        }
        WorkerPool { job_senders, handles }
    }
}

/// The simulated cluster.
///
/// `Cluster` is `Sync`: rounds take `&self` and may be issued from many
/// coordinator threads concurrently (see the module docs for how responses
/// are kept apart).
pub struct Cluster {
    sites: Vec<Arc<Mutex<SiteLocal>>>,
    assignment: BTreeMap<FragmentId, ReplicaSet>,
    /// The persistent worker pool (spawned lazily on the first round to
    /// two or more sites).
    pool: OnceLock<WorkerPool>,
}

impl Cluster {
    /// Build a cluster with `site_count` sites and distribute the fragments
    /// of `fragmented` according to `placement` (one copy each).
    pub fn new(fragmented: &FragmentedTree, site_count: usize, placement: Placement) -> Self {
        Self::with_replicas(
            fragmented,
            site_count,
            placement.replica_sets(fragmented, site_count, 1),
        )
    }

    /// Build a cluster with an explicit fragment→replica-set assignment,
    /// completed by [`clamp_assignment`] ([`Placement::replica_sets`] builds
    /// one from a placement). Every replica site stores a full copy of the
    /// fragment.
    pub fn with_replicas(
        fragmented: &FragmentedTree,
        site_count: usize,
        assignment: BTreeMap<FragmentId, ReplicaSet>,
    ) -> Self {
        let site_count = site_count.max(1);
        let assignment = clamp_assignment(fragmented, site_count, &assignment);
        let mut sites: Vec<SiteLocal> =
            (0..site_count).map(|i| SiteLocal::new(SiteId(i))).collect();
        for fragment in &fragmented.fragments {
            for &site in assignment[&fragment.id].sites() {
                sites[site.index()].add_fragment(fragment.clone());
            }
        }
        Cluster {
            sites: sites.into_iter().map(|s| Arc::new(Mutex::new(s))).collect(),
            assignment,
            pool: OnceLock::new(),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The primary site storing a fragment (the first replica).
    pub fn site_of(&self, fragment: FragmentId) -> SiteId {
        self.replicas_of(fragment).primary()
    }

    /// All sites storing a fragment, primary first.
    pub fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        self.assignment
            .get(&fragment)
            .cloned()
            .expect("every fragment was assigned to a replica set at construction")
    }

    /// All sites that hold at least one fragment copy.
    pub fn occupied_sites(&self) -> BTreeSet<SiteId> {
        self.assignment.values().flat_map(|set| set.sites().iter().copied()).collect()
    }

    /// Direct read-only access to a site, for assertions in tests. Algorithm
    /// code must not use this to bypass the messaging layer. The guard must
    /// be dropped before the next round starts, or the round deadlocks.
    pub fn inspect_site(&self, site: SiteId) -> MutexGuard<'_, SiteLocal> {
        Self::lock(&self.sites[site.index()])
    }

    fn lock(site: &Arc<Mutex<SiteLocal>>) -> MutexGuard<'_, SiteLocal> {
        site.lock().expect("a site task panicked while holding the site")
    }

    /// One coordinator round: send each request to its site, run `task`
    /// there (in parallel across the persistent site workers), and collect
    /// per site the response and the measured cost of the visit. Nothing is
    /// charged here — see the module docs.
    ///
    /// Every targeted site is *visited* exactly once per round regardless of
    /// how many fragments it stores, which is precisely how the paper counts
    /// visits. Rounds issued concurrently from different threads are safe:
    /// overlapping visits to one site serialize on that site's lock, and
    /// each round's responses travel over a channel private to the round.
    pub fn deliver<Req, Resp, F>(
        &self,
        requests: BTreeMap<SiteId, Req>,
        task: F,
    ) -> BTreeMap<SiteId, Delivery<Resp>>
    where
        Req: Serialize + Send + 'static,
        Resp: Serialize + Send + 'static,
        F: Fn(&mut SiteLocal, Req) -> Resp + Send + Sync + 'static,
    {
        for site in requests.keys() {
            assert!(site.index() < self.sites.len(), "request addressed to unknown site {site}");
        }

        // A site's whole share of the round, measured where it runs: both
        // messages at their encoded size, the task's ops and time.
        let task = Arc::new(task);
        let make_job = |site_id: SiteId, req: Req| {
            let task = Arc::clone(&task);
            move |site: &mut SiteLocal| {
                let request_bytes = encoded_size(&req);
                let (response, ops, busy) = site.metered(|site| task(site, req));
                let response_bytes = encoded_size(&response);
                let work = SiteWork { request_bytes, response_bytes, ops, busy };
                (site_id, Delivery { response, work })
            }
        };

        if requests.len() <= 1 {
            // A round to one site runs inline on the coordinator thread: it
            // has nothing to overlap, so it skips the pool wake-up. The panic
            // is caught and re-raised after the site guard is released, so a
            // faulty task cannot poison the site mutex.
            let mut delivered = BTreeMap::new();
            for (site_id, req) in requests {
                let job = make_job(site_id, req);
                let mut guard = self.inspect_site(site_id);
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut guard)));
                drop(guard);
                match outcome {
                    Ok((site, delivery)) => delivered.insert(site, delivery),
                    Err(payload) => std::panic::resume_unwind(payload),
                };
            }
            return delivered;
        }

        let pool = self.pool.get_or_init(|| WorkerPool::spawn(&self.sites));
        // A channel *per round*: results of overlapping rounds cannot
        // cross, because each job carries its own round's sender.
        let (results_tx, results_rx) = channel::<WorkerResult<Resp>>();
        let expected = requests.len();
        for (site_id, req) in requests {
            let inner = make_job(site_id, req);
            let results_tx = results_tx.clone();
            let job: Job = Box::new(move |site: &mut SiteLocal| {
                // The catch happens before the worker's site guard
                // drops, so the mutex is not poisoned; if the round's
                // coordinator is already gone the send result is moot.
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner(site)));
                let _ = results_tx.send(outcome);
            });
            pool.job_senders[site_id.index()].send(job).expect("site worker thread is alive");
        }
        drop(results_tx);
        // Drain *every* targeted site before acting on a failure, so a
        // caught round leaves no job of its own still running when the
        // caller observes the panic.
        let mut delivered = BTreeMap::new();
        let mut panicked: Option<Box<dyn Any + Send>> = None;
        for _ in 0..expected {
            match results_rx.recv().expect("site worker thread is alive") {
                Ok((site, delivery)) => {
                    delivered.insert(site, delivery);
                }
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            // Re-raise a site task's panic on the round's coordinator
            // thread so a faulty task crashes the round loudly instead of
            // hanging it.
            std::panic::resume_unwind(payload);
        }
        delivered
    }

    /// Convenience wrapper: visit *every occupied site* with the same
    /// (cloneable) request and keep only the responses.
    pub fn broadcast<Req, Resp, F>(&self, request: Req, task: F) -> BTreeMap<SiteId, Resp>
    where
        Req: Serialize + Send + Clone + 'static,
        Resp: Serialize + Send + 'static,
        F: Fn(&mut SiteLocal, Req) -> Resp + Send + Sync + 'static,
    {
        let requests = self.occupied_sites().into_iter().map(|s| (s, request.clone())).collect();
        self.deliver(requests, task).into_iter().map(|(site, d)| (site, d.response)).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            // Closing the job channels lets every worker fall out of its
            // receive loop; join so no thread outlives its cluster.
            drop(pool.job_senders);
            for handle in pool.handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterStats;
    use paxml_fragment::strategy::cut_children_of_root;
    use paxml_xml::TreeBuilder;

    /// Broadcast and commit the round into `stats`, the way a coordinator
    /// does with what `deliver` reports.
    fn broadcast_into<Req, Resp, F>(
        cluster: &Cluster,
        stats: &mut ClusterStats,
        request: Req,
        task: F,
    ) -> BTreeMap<SiteId, Resp>
    where
        Req: Serialize + Send + Clone + 'static,
        Resp: Serialize + Send + 'static,
        F: Fn(&mut SiteLocal, Req) -> Resp + Send + Sync + 'static,
    {
        let requests = cluster.occupied_sites().into_iter().map(|s| (s, request.clone())).collect();
        let delivered = cluster.deliver(requests, task);
        stats.commit_round(delivered.iter().map(|(site, d)| (*site, d.work)));
        delivered.into_iter().map(|(site, d)| (site, d.response)).collect()
    }

    fn fragmented() -> FragmentedTree {
        let tree = TreeBuilder::new("sites")
            .open("site")
            .leaf("person", "p1")
            .close()
            .open("site")
            .leaf("person", "p2")
            .close()
            .open("site")
            .leaf("person", "p3")
            .close()
            .build();
        cut_children_of_root(&tree).unwrap()
    }

    #[test]
    fn round_robin_placement_spreads_fragments() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 2, Placement::RoundRobin);
        assert_eq!(cluster.site_count(), 2);
        assert_eq!(cluster.site_of(FragmentId(0)), SiteId(0));
        assert_eq!(cluster.site_of(FragmentId(1)), SiteId(1));
        assert_eq!(cluster.site_of(FragmentId(2)), SiteId(0));
        assert_eq!(
            cluster.inspect_site(SiteId(0)).fragment_ids(),
            vec![FragmentId(0), FragmentId(2)]
        );
        assert_eq!(cluster.occupied_sites().len(), 2);
    }

    #[test]
    fn single_site_placement_puts_everything_on_s0() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 4, Placement::SingleSite);
        assert_eq!(cluster.occupied_sites(), std::iter::once(SiteId(0)).collect());
        assert_eq!(cluster.inspect_site(SiteId(0)).cumulative_size(), f.total_real_nodes());
    }

    #[test]
    fn explicit_assignment_is_respected_and_clamped() {
        let f = fragmented();
        let mut assignment = BTreeMap::new();
        assignment.insert(FragmentId(1), SiteId(1).into());
        assignment.insert(FragmentId(2), SiteId(99).into()); // clamped to the last site
        let cluster = Cluster::with_replicas(&f, 2, assignment);
        assert_eq!(cluster.site_of(FragmentId(0)), SiteId(0)); // default
        assert_eq!(cluster.site_of(FragmentId(1)), SiteId(1));
        assert_eq!(cluster.site_of(FragmentId(2)), SiteId(1));
    }

    #[test]
    fn replicated_placement_stores_every_copy_and_never_colocates() {
        let f = fragmented();
        let cluster = Cluster::with_replicas(&f, 3, Placement::RoundRobin.replica_sets(&f, 3, 2));
        for fragment in [FragmentId(0), FragmentId(1), FragmentId(2), FragmentId(3)] {
            let set = cluster.replicas_of(fragment);
            assert_eq!(set.len(), 2, "every fragment has two distinct copies");
            // The primary matches the unreplicated round-robin placement…
            assert_eq!(set.primary(), SiteId(fragment.index() % 3));
            assert_eq!(cluster.site_of(fragment), set.primary());
            // …and each replica site actually stores the fragment.
            for &site in set.sites() {
                assert!(cluster.inspect_site(site).fragment_ids().contains(&fragment));
            }
        }
        assert_eq!(cluster.occupied_sites().len(), 3);
        // Replication clamps to the site count instead of wrapping into
        // duplicates.
        let full = Cluster::with_replicas(&f, 2, Placement::RoundRobin.replica_sets(&f, 2, 5));
        assert_eq!(full.replicas_of(FragmentId(0)).len(), 2);
    }

    #[test]
    fn rounds_report_visits_messages_and_bytes() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);
        let mut stats = ClusterStats::default();
        let responses =
            broadcast_into(&cluster, &mut stats, "how many nodes?".to_string(), |site, _req| {
                site.charge_ops(10);
                site.cumulative_size() as u64
            });
        assert_eq!(responses.len(), 3);
        let total: u64 = responses.values().sum();
        assert_eq!(total as usize, f.total_real_nodes());
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.max_visits_per_site(), 1);
        assert_eq!(stats.messages, 6);
        assert_eq!(stats.total_ops, 30);
        assert!(stats.total_bytes() > 0);

        // A second, targeted round visits only one site, and reports the
        // request and the response at their encoded sizes.
        let delivered = cluster.deliver(BTreeMap::from([(SiteId(1), 5u32)]), |site, factor| {
            site.charge_ops(1);
            site.cumulative_size() as u64 * factor as u64
        });
        assert_eq!(delivered.len(), 1);
        let visit = &delivered[&SiteId(1)];
        assert_eq!(visit.work.request_bytes, encoded_size(&5u32));
        assert_eq!(visit.work.response_bytes, encoded_size(&visit.response));
        assert_eq!(visit.work.ops, 1);
        stats.commit_round(delivered.iter().map(|(site, d)| (*site, d.work)));
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.sites[&SiteId(1)].visits, 2);
        assert_eq!(stats.sites[&SiteId(0)].visits, 1);
    }

    #[test]
    fn worker_pool_threads_persist_across_rounds() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);
        assert!(cluster.pool.get().is_none(), "pool is lazy");
        let mut stats = ClusterStats::default();
        for round in 0..20 {
            let responses = broadcast_into(&cluster, &mut stats, round as u32, |site, r| {
                site.charge_ops(1);
                r as u64 + site.id.index() as u64
            });
            assert_eq!(responses.len(), 3);
        }
        // Twenty multi-site rounds ran on the same three threads.
        let pool = cluster.pool.get().expect("pool spawned on first parallel round");
        assert_eq!(pool.handles.len(), 3);
        assert_eq!(stats.rounds, 20);
        assert_eq!(stats.total_ops, 60);
    }

    #[test]
    fn concurrent_rounds_do_not_cross_responses() {
        // Many coordinator threads hammer one shared cluster with rounds of
        // *different* response types; every thread must see exactly its own
        // responses (the per-round channel guarantee). That the cumulative
        // ledger equals the sum of the per-thread recorders is asserted where
        // the ledger lives: `paxml-core`'s `deployment.rs`.
        let f = fragmented();
        let cluster = Arc::new(Cluster::new(&f, 3, Placement::RoundRobin));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        if t % 2 == 0 {
                            let responses = cluster.broadcast(t, |site, req| {
                                site.charge_ops(1);
                                format!("t{req}-s{}", site.id.index())
                            });
                            assert_eq!(responses.len(), 3);
                            for (site, response) in &responses {
                                assert_eq!(response, &format!("t{t}-s{}", site.index()));
                            }
                        } else {
                            let responses = cluster.broadcast(i, |site, req| {
                                site.charge_ops(1);
                                req * 1000 + site.id.index() as u64
                            });
                            assert_eq!(responses.len(), 3);
                            for (site, response) in &responses {
                                assert_eq!(*response, i * 1000 + site.index() as u64);
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "task blew up")]
    fn a_panicking_site_task_crashes_the_round_not_hangs_it() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);
        cluster.broadcast(0u8, |site, _| {
            if site.id == SiteId(1) {
                panic!("task blew up");
            }
            0u8
        });
    }

    #[test]
    fn a_caught_panic_leaves_no_stale_outcomes_for_later_rounds() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.broadcast(0u8, |site, _| {
                if site.id == SiteId(2) {
                    panic!("task blew up");
                }
                0u8
            })
        }));
        assert!(boom.is_err());
        // The surviving sites' outcomes from the aborted round must not leak
        // into this one: a fresh round sees exactly its own responses, with
        // its own response type.
        let responses = cluster.broadcast(0u8, |site, _| format!("site {}", site.id.index()));
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[&SiteId(1)], "site 1");
    }

    #[test]
    fn a_batch_round_panic_is_reraised_exactly_once_and_does_not_poison_later_rounds() {
        // Regression test for the worker-pool panic path: even when *several*
        // sites panic in the same (batch-style) round, the coordinator
        // re-raises exactly one panic, the site mutexes stay usable, and the
        // pool serves subsequent rounds with no stale outcomes.
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);

        let mut observed_panics = 0;
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cluster.broadcast(0u8, |site, _| {
                    if site.id != SiteId(0) {
                        panic!("site {} blew up", site.id);
                    }
                    0u8
                })
            }));
            if caught.is_err() {
                observed_panics += 1;
            }
        }
        // One panic per failing round — two sites panicking in one round must
        // not surface as two unwinds, and no unwind may leak into the second
        // catch block's round beyond its own.
        assert_eq!(observed_panics, 2);

        // The pool is intact: a healthy batch round over every site works,
        // sees only its own responses, and the per-site scratch state is
        // still writable (the mutexes were never poisoned).
        let responses = cluster.broadcast(0u8, |site, _| {
            site.put_scratch(0, 0, FragmentId(0), true);
            site.id.index() as u64
        });
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[&SiteId(2)], 2);
        let ok = cluster.broadcast(0u8, |site, _| site.take_scratch::<bool>(0, 0, FragmentId(0)));
        assert!(ok.values().all(|&b| b == Some(true)));
    }

    #[test]
    fn one_site_rounds_run_inline_and_never_spawn_workers() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 3, Placement::RoundRobin);
        let coordinator = std::thread::current().id();
        for site in [SiteId(0), SiteId(1), SiteId(2), SiteId(1)] {
            let delivered = cluster.deliver(BTreeMap::from([(site, 0u8)]), move |_, _| {
                std::thread::current().id() == coordinator
            });
            assert!(delivered[&site].response, "a one-site round ran off the coordinator thread");
        }
        assert!(cluster.pool.get().is_none(), "a one-site round woke the pool");
        // The first round to two sites spawns it.
        let requests = BTreeMap::from([(SiteId(0), 0u8), (SiteId(1), 0u8)]);
        let delivered =
            cluster.deliver(requests, move |_, _| std::thread::current().id() == coordinator);
        assert!(delivered.values().all(|d| !d.response), "a two-site round ran inline");
        assert!(cluster.pool.get().is_some());
    }

    #[test]
    fn scratch_state_persists_across_rounds() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 2, Placement::RoundRobin);
        cluster.broadcast(0u8, |site, _| {
            site.put_scratch(0, 0, FragmentId(0), site.id.index() as u64 + 100);
            0u8
        });
        let markers = cluster
            .broadcast(0u8, |site, _| site.take_scratch::<u64>(0, 0, FragmentId(0)).unwrap());
        assert_eq!(markers[&SiteId(0)], 100);
        assert_eq!(markers[&SiteId(1)], 101);
        let taken = cluster.broadcast(0u8, |site, _| site.scratch_len());
        assert!(taken.values().all(|&len| len == 0));
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let f = fragmented();
        let cluster = Cluster::new(&f, 2, Placement::RoundRobin);
        let out = cluster.deliver(BTreeMap::<SiteId, u8>::new(), |_, r| r);
        assert!(out.is_empty());
        assert!(cluster.pool.get().is_none(), "nothing to deliver wakes no worker");
    }

    #[test]
    fn larger_responses_cost_more_bytes() {
        let f = fragmented();
        let small = Cluster::new(&f, 1, Placement::SingleSite);
        let large = Cluster::new(&f, 1, Placement::SingleSite);
        let (mut small_stats, mut large_stats) = (ClusterStats::default(), ClusterStats::default());
        broadcast_into(&small, &mut small_stats, 0u8, |_, _| "x".to_string());
        broadcast_into(&large, &mut large_stats, 0u8, |_, _| "x".repeat(10_000));
        assert!(large_stats.total_bytes() > small_stats.total_bytes() + 9_000);
    }
}
