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
//!   unified [`ExecReport`](crate::ExecReport);
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
//!   short mutex hold — no lock is kept for the execution's duration),
//!   routes by the topology that epoch owns, and tags all of its protocol
//!   messages with that epoch number. Sites read the fragment version
//!   current *at that epoch*, and every scratch slot lives in a per-epoch
//!   namespace, so the execution is bit-identical to one that ran with the
//!   cluster frozen at its pinned epoch.
//! * **Build.** Every writer — [`PaxServer::apply_updates`],
//!   [`PaxServer::refragment`], [`PaxServer::repair`] — serializes on a
//!   writer mutex readers never touch and runs one private transaction,
//!   `EpochBuild` (`server/epochs.rs`): it takes the current epoch `N` as
//!   its base and builds epoch `N + 1` **concurrently with in-flight
//!   readers**. An update visits only the dirty sites, which install new
//!   fragment versions under epoch `N + 1` copy-on-write — clean sites are
//!   never visited, and a clean fragment's epoch-`N` version *is* its
//!   epoch-`N + 1` version by reference. Coordinator-side, every prepared
//!   query's residual-vector session is cloned copy-on-write (clean
//!   fragments' cached vectors are shared by `Arc`) and refreshed against
//!   the new data. During the build the writer holds **no lock a reader
//!   ever takes**, and nothing a reader can observe changes.
//! * **Swap.** Everything a build changes, it changes in the transaction's
//!   one infallible `commit`, in one fixed order that ends in a single
//!   pointer swap of the current-epoch handle. The new epoch carries its
//!   topology (a re-fragmentation's new one, the base epoch's with the
//!   label sets an update grew, or the base epoch's); nothing else records
//!   which topology routes which epoch. Executions that pinned
//!   `N` keep reading `N` to completion; executions entering after the swap
//!   read `N + 1`. A failed build (e.g. an unreachable site) never reaches
//!   `commit`, so it publishes nothing and pinned readers are unaffected.
//! * **Retire.** An epoch handle is an `Arc`; when the last pinned
//!   execution drops it the epoch is dead, and a topology version dies
//!   with the last epoch routing by it. Site-side, superseded fragment
//!   versions are dropped lazily: every update round piggybacks the oldest
//!   still-live epoch as a retirement watermark on the sites it visits, and
//!   [`PaxServer::vacuum`] sweeps every site, purging the fragments no live
//!   epoch's topology places there and forgetting their stale marks.
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

mod builder;
mod epochs;
mod execute;
mod failover;
mod prepared;
mod refrag;
mod updates;

pub use builder::PaxServerBuilder;
pub use epochs::{ServerStats, SiteLoad};
pub use failover::RetryPolicy;
pub use prepared::{PrepareSetStats, PreparedQuery};
pub use refrag::{RefragOp, RefragReport};

use crate::deployment::Deployment;
use crate::report::Algorithm;
use epochs::{EpochInner, EpochRegistry};
use paxml_distsim::ClusterStats;
use prepared::PreparedTable;
use std::sync::{Arc, Mutex, RwLock};

/// A long-lived evaluation session over one deployment: prepared queries,
/// single and batched execution, and fragment updates, all through one
/// `Send + Sync` handle shared by any number of client threads. See the
/// [module docs](self) for the full picture, including which operations
/// block which.
pub struct PaxServer {
    deployment: Deployment,
    algorithm: Algorithm,
    /// Fault handling: retry budget, backoff, probe cooldown.
    retry: RetryPolicy,
    /// Serializes updaters against each other — never taken by the read
    /// path. Held across the whole build-and-publish of one update (and
    /// by [`PaxServer::vacuum`]), so epoch numbers advance one at a time.
    writer: Mutex<()>,
    /// The epoch new executions pin, with the topology they route by.
    /// Readers hold this lock only long enough to clone the `Arc`;
    /// `apply_updates` only long enough to swap in the next epoch.
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

    /// The owned deployment (read-only; all mutation goes through the
    /// server so the meters stay faithful).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// A consistent snapshot of the cumulative cluster meters since the
    /// deployment started (each [`ExecReport`](crate::ExecReport) carries the
    /// per-execution counters instead). Snapshots are committed whole-round, so two
    /// snapshots bracketing any set of concurrent executions yield an
    /// accurate [`ClusterStats::delta_since`].
    pub fn cumulative_stats(&self) -> ClusterStats {
        self.deployment.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PaxError;
    use crate::report::ExecMode;
    use paxml_distsim::{FaultEvent, FaultKind, FaultPlan, SiteId};
    use paxml_fragment::{strategy, FragmentId, FragmentedTree, UpdateOp};
    use paxml_xml::{TreeBuilder, XmlTree};
    use paxml_xpath::centralized;
    use std::collections::BTreeMap;
    use std::time::Duration;

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
        PaxServer::builder().algorithm(algorithm).sites(4).deploy(fragmented).unwrap()
    }

    #[test]
    fn a_naive_server_gets_no_index_and_no_report_claims_one() {
        // The baseline ships every fragment, so `.annotations(true)` gives
        // it no label sets to build or grow, and none of its reports says
        // the optimization was used.
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let builder = PaxServer::builder().algorithm(Algorithm::NaiveCentralized).annotations(true);
        let server = builder.sites(3).deploy(&fragmented).unwrap();
        assert!(server.topology().labels().is_none());
        let q = server.prepare("client/name").unwrap();
        assert!(!server.execute(&q).unwrap().annotations_used);
        assert!(!server.execute_batch(&[q]).unwrap().annotations_used);
        let update = server.apply_updates(&rename_broker(&fragmented, "RBC")).unwrap();
        assert!(!update.annotations_used);
        assert!(server.topology().labels().is_none());
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

        // Empty updates visit nothing — so they refresh nothing either,
        // however many sessions the epoch holds.
        server.execute_text("client/name").unwrap();
        let report = server.apply_updates(&[]).unwrap();
        assert_eq!(report.rounds(), 0);
        assert_eq!(report.network_bytes(), 0);
        let outcome = report.update.unwrap();
        assert!(outcome.dirty_fragments.is_empty());
        assert_eq!(outcome.refreshed_sessions, 0);
    }

    /// PaX2 over three sites with every fragment of `clientele()` cut at
    /// the brokers on two of them — F0 {S0, S1}, F1 {S1, S2}, F2 {S2, S0} —
    /// probes never deferred, retries never slept on. The (empty) fault plan
    /// starts the fault clock.
    fn replicated_server(max_attempts: u32) -> (PaxServer, FragmentedTree) {
        let fragmented = strategy::cut_at_labels(&clientele(), &["broker"]).unwrap();
        let retry_policy = RetryPolicy {
            max_attempts,
            backoff_step: Duration::ZERO,
            probe_cooldown: Duration::ZERO,
        };
        let builder = PaxServer::builder().sites(3).replication(2);
        let server = builder.retry_policy(retry_policy).deploy(&fragmented).unwrap();
        server.deployment().set_fault_plan(Some(FaultPlan::scripted(Vec::new())));
        (server, fragmented)
    }

    /// Kill S1 for the rounds `from..=to` counted from the next one.
    fn kill_s1(server: &PaxServer, from: u64, to: u64) {
        let now = server.deployment().current_fault_tick();
        let (site, kind) = (SiteId(1), FaultKind::Kill);
        let window = FaultEvent { site, from_round: now + from, to_round: now + to, kind };
        server.deployment().set_fault_plan(Some(FaultPlan::scripted(vec![window])));
    }

    /// Rename Anna's broker: one op on F1, whose copies are on S1 and S2.
    fn rename_broker(fragmented: &FragmentedTree, to: &str) -> Vec<(FragmentId, UpdateOp)> {
        let tree = &fragmented.fragments[1].tree;
        let node = tree.children(tree.find_first("name").unwrap()).next().unwrap();
        vec![(FragmentId(1), UpdateOp::EditText { node, text: to.into() })]
    }

    /// Everything a build may change: current epoch, placement version,
    /// unrepaired stale copies, sessions.
    type Observed = (u64, u64, Vec<(FragmentId, SiteId)>, usize);

    fn observe(server: &PaxServer) -> Observed {
        let stats = server.server_stats();
        (
            stats.current_epoch,
            stats.placement_version,
            server.deployment().health().unrepaired_stale(),
            server.pin().sessions.lock().unwrap().len(),
        )
    }

    #[test]
    fn a_failed_build_of_any_kind_changes_nothing_and_its_retry_publishes_exactly_once() {
        // One attempt per call, so a failed build surfaces instead of being
        // failed over, and the test drives the retry itself.
        let (server, fragmented) = replicated_server(1);
        let (f1, s1) = (FragmentId(1), SiteId(1));
        server.execute_text("client/broker/name").unwrap();
        assert_eq!(observe(&server), (0, 0, vec![], 1));

        // An update whose one round S1 does not answer.
        kill_s1(&server, 0, 0);
        assert!(server.apply_updates(&rename_broker(&fragmented, "B")).is_err());
        assert_eq!(observe(&server), (0, 0, vec![], 1));
        assert_eq!(server.apply_updates(&rename_broker(&fragmented, "B")).unwrap().epoch, 1);
        assert_eq!(observe(&server), (1, 0, vec![], 1));

        // A migration of F2's primary copy from S2 to S1: one fetch round,
        // then the install round S1 does not answer.
        let migrate = move_f2(SiteId(2), s1);
        kill_s1(&server, 1, 1);
        assert!(server.refragment(&migrate).is_err());
        assert_eq!(observe(&server), (1, 0, vec![], 1));
        let report = server.refragment(&migrate).unwrap();
        assert_eq!((report.epoch, report.placement_version), (2, 1));
        assert_eq!(observe(&server), (2, 1, vec![], 1));

        // A repair whose install round S1 does not answer. First the outage
        // that leaves F1's copy there stale: S1 is down for an update's
        // failed attempt and for the retry that routes around it.
        kill_s1(&server, 0, 1);
        assert!(server.apply_updates(&rename_broker(&fragmented, "C")).is_err());
        assert_eq!(server.apply_updates(&rename_broker(&fragmented, "C")).unwrap().epoch, 3);
        assert_eq!(observe(&server), (3, 1, vec![(f1, s1)], 1));
        kill_s1(&server, 1, 1);
        assert!(server.repair().is_err());
        assert_eq!(observe(&server), (3, 1, vec![(f1, s1)], 1));
        assert_eq!(server.repair().unwrap(), 1);
        assert_eq!(observe(&server), (3, 1, vec![], 1));
    }

    #[test]
    fn repair_follows_readmission_at_once_and_costs_two_rounds_per_copy() {
        let (server, fragmented) = replicated_server(2);
        let (f1, s1, s2) = (FragmentId(1), SiteId(1), SiteId(2));
        let deployment = server.deployment();
        let stale = || deployment.health().unrepaired_stale();
        let topology = server.topology();
        let route = |epoch| deployment.choose_replica(&topology, f1, epoch).unwrap();
        let update = |to| server.apply_updates(&rename_broker(&fragmented, to)).unwrap();

        // S1 sits out two updates: epoch 1 fails over around it, epoch 2
        // finds it still down.
        kill_s1(&server, 0, 2);
        assert_eq!((update("B").epoch, update("C").epoch), (1, 2));
        assert_eq!((stale(), route(2)), (vec![(f1, s1)], s2));

        // S1 is back. An explicit pass right away probes it, readmits it and
        // repairs its copy: one fetch round, one install round.
        let before = deployment.current_fault_tick();
        assert_eq!(server.repair().unwrap(), 1);
        assert_eq!(deployment.current_fault_tick() - before, 2);
        assert_eq!(stale(), vec![]);
        assert_eq!(route(2), s1, "readers at the repair epoch use the repaired primary again");
        assert_eq!(route(1), s2, "readers pinned inside the outage still avoid it");
        // With nothing pending a pass is free.
        assert_eq!(server.repair().unwrap(), 0);
        assert_eq!(deployment.current_fault_tick() - before, 2);

        // A second outage. This time nothing runs between the revival and
        // the next update, which must itself readmit S1, repair its copy and
        // write to it.
        kill_s1(&server, 0, 1);
        assert_eq!(update("D").epoch, 3);
        assert_eq!(stale(), vec![(f1, s1)]);
        let report = update("E");
        assert_eq!(stale(), vec![]);
        assert!(report.visits_per_site().contains_key(&s1), "the repaired copy took the write");
    }

    /// Move F2's copy at `from` to `to`, shipping its payload there.
    fn move_f2(from: SiteId, to: SiteId) -> [RefragOp; 1] {
        [RefragOp::Migrate { fragment: FragmentId(2), from, to }]
    }

    #[test]
    fn a_dissolved_fragments_stale_marks_hold_while_its_epoch_can_route_to_it() {
        let (server, fragmented) = replicated_server(1);
        let server = Arc::new(server);
        let (f1, s1) = (FragmentId(1), SiteId(1));
        let (query, rename) = ("client/broker/name", rename_broker(&fragmented, "B"));

        // S1 misses the rename of F1's broker: its copy goes stale at epoch 1.
        kill_s1(&server, 0, 1);
        assert!(server.apply_updates(&rename).is_err());
        assert_eq!(server.apply_updates(&rename).unwrap().epoch, 1);
        assert_eq!(server.deployment().health().unrepaired_stale(), vec![(f1, s1)]);
        let mut mirror = fragmented.clone();
        paxml_fragment::apply_update(&mut mirror.fragments[1], &rename[0].1).unwrap();
        // In the order the server reports answers: by origin id.
        let (tree, origin) = paxml_fragment::reassemble_with_origin(&mirror).unwrap();
        let mut answers = centralized::evaluate(&tree, query).unwrap().answers;
        answers.sort_by_key(|n| origin[n.index()]);
        let expected: Vec<String> = answers.iter().filter_map(|&n| tree.text_of(n)).collect();

        // A reader that pins epoch 1 while the merge of F1 into F0 commits.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (weak, into) = (Arc::downgrade(&server), Arc::clone(&seen));
        server.set_update_hook(move || {
            let server = weak.upgrade().expect("the hook runs inside a server call");
            let report = server.query_once(query).unwrap();
            into.lock().unwrap().push((report.epoch, report.answer_texts()));
        });
        // S1 is back, but down for the install round of the merge's
        // opening repair pass, so its copy of F1 stays stale.
        kill_s1(&server, 1, 1);
        assert_eq!(server.refragment(&[RefragOp::Merge { child: f1 }]).unwrap().epoch, 2);
        server.clear_update_hook();
        assert_eq!(*seen.lock().unwrap(), vec![(1, expected.clone())], "epoch 1 read a stale copy");
        assert_eq!(server.query_once(query).unwrap().answer_texts(), expected);

        // Once no live epoch routes to F1, the sweep forgets the mark.
        assert_eq!(server.deployment().health().unrepaired_stale(), vec![(f1, s1)]);
        server.vacuum().unwrap();
        assert_eq!(server.deployment().health().unrepaired_stale(), vec![]);
    }

    #[test]
    fn a_split_or_merge_recomputes_the_label_sets_it_installs() {
        // Cut at the brokers; then split F1 at its market into F3 and merge
        // it back. `//market/stock` starts every fragment exact, so it reads
        // each fragment's own labels: after the split F1 holds no market,
        // F3 does; after the merge F1 holds it again.
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker"]).unwrap();
        let builder = PaxServer::builder().annotations(true).sites(3);
        let server = builder.deploy(&fragmented).unwrap();
        let query = "//market/stock";
        let mut expected = centralized::evaluate(&tree, query).unwrap().answers;
        expected.sort();
        let check = |fragments_evaluated: usize| {
            let report = server.query_once(query).unwrap();
            assert_eq!(report.answer_origins(), expected);
            assert_eq!(report.queries[0].fragments_evaluated, fragments_evaluated);
        };
        let holds = |fragment: usize, label: &str| {
            server.topology().labels().unwrap().holds(FragmentId(fragment), label)
        };
        let q = server.prepare("client/name").unwrap();
        server.execute(&q).unwrap();
        check(3);

        let (f1, f3) = (FragmentId(1), FragmentId(3));
        let cut = fragmented.fragments[1].tree.find_first("market").unwrap();
        let split = RefragOp::Split { fragment: f1, cut, place_on: SiteId(0).into() };
        server.refragment(&[split]).unwrap();
        assert!(!holds(1, "market") && !holds(1, "stock") && holds(1, "broker"));
        assert!(holds(3, "market") && holds(3, "stock"));
        check(3);
        assert!(server.execute(&q).unwrap().from_cache, "an untouched session carries over");

        server.refragment(&[RefragOp::Merge { child: f3 }]).unwrap();
        assert!(holds(1, "market") && holds(1, "stock"));
        assert!(!server.topology().fragment_tree.contains(f3));
        check(3);
    }

    #[test]
    fn topology_versions_retire_with_their_epochs() {
        let (server, _) = replicated_server(1);
        server.execute_text("client/broker/name").unwrap();
        let pinned = server.pin();
        let deployed = Arc::downgrade(&pinned.topology);
        server.refragment(&move_f2(SiteId(2), SiteId(1))).unwrap();
        server.refragment(&move_f2(SiteId(1), SiteId(2))).unwrap();
        assert_eq!(server.server_stats().placement_version, 2);
        assert!(deployed.upgrade().is_some(), "a reader pinned at epoch 0 still routes by it");
        drop(pinned);
        server.vacuum().unwrap();
        assert_eq!(server.server_stats().live_epochs, 1);
        assert!(deployed.upgrade().is_none(), "an unpinned topology version leaked");
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
