//! Incremental re-evaluation under fragment updates.
//!
//! The paper proves its guarantees for *one-shot* evaluation; a production
//! federated store sees its fragments change between queries. Recomputing
//! from scratch after every edit wastes exactly the property partial
//! evaluation buys: a fragment's residual vectors depend **only on its own
//! data** (plus the query), never on other fragments — the unknowns are
//! variables. So the coordinator can cache, per fragment, the outputs of
//! the last combined pass:
//!
//! * the root `QV`/`QDV` vectors,
//! * the ancestor summaries recorded at its virtual nodes,
//! * the unconditional answers, and
//! * the candidate answers *with their residual formulas*.
//!
//! That cache is `QuerySession` (crate-internal): one prepared query's
//! residual-vector state. A
//! [`PaxServer`](crate::server::PaxServer) keeps one session per prepared
//! query and maintains *all* of them in the single visit an update round
//! pays to each dirty site. Preprocessing is the update routine run from
//! the empty state: a query's first (cold) snapshot is the same round with
//! no ops and every relevant fragment dirty.
//!
//! When a batch of updates arrives, only the **touched fragments'** vectors
//! are stale. The update round is PaX2's multi-query first visit to the
//! *dirty* sites, ops applied first and answers shipped rather than parked
//! ([`MultiCombinedRequest`]). The coordinator then re-runs `evalFT`'s walk
//! over the **dirty cone** of the fragment tree — the updated fragments,
//! their ancestors whose qualifier values change, and the subtrees whose
//! ancestor summaries change — and re-resolves candidate formulas from the
//! coordinator-side cache. Clean sites are **never visited**: even when an
//! update far away flips a qualifier that decides a clean fragment's
//! candidate answers, the cached formula is re-evaluated locally.
//!
//! Compared to the from-scratch protocol this ships candidate formulas to
//! the coordinator once (an `O(|candidates|)` add-on to the first visit) and
//! in exchange drops the second visit entirely: a re-evaluation after
//! updates costs **one visit per dirty site, zero per clean site**, and
//! traffic proportional to the update batch and the dirty fragments' vector
//! sizes — independent of the total data size.
//!
//! ```
//! use paxml_core::server::PaxServer;
//! use paxml_core::Algorithm;
//! use paxml_distsim::Placement;
//! use paxml_fragment::{strategy::cut_at_labels, FragmentId, UpdateOp};
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
//! let fragmented = cut_at_labels(&tree, &["client"]).unwrap();
//!
//! let server = PaxServer::builder()
//!     .algorithm(Algorithm::PaX2)
//!     .sites(3)
//!     .placement(Placement::RoundRobin)
//!     .deploy(&fragmented)
//!     .unwrap();
//! let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
//! assert_eq!(server.execute(&q).unwrap().answer_texts(), vec!["E*trade".to_string()]);
//!
//! // Edit Lisa's country to US — one dirty fragment, one visit, new answer.
//! let lisa = fragmented.fragments[2].tree.find_first("country").unwrap();
//! let text = fragmented.fragments[2].tree.children(lisa).next().unwrap();
//! let update = server.apply_updates(&[(
//!     FragmentId(2),
//!     UpdateOp::EditText { node: text, text: "US".into() },
//! )]).unwrap();
//! assert_eq!(update.clean_site_visits(), 0);
//!
//! // Re-execution is served from the maintained cache: zero visits.
//! let report = server.execute(&q).unwrap();
//! assert_eq!(report.answer_texts(), vec!["E*trade".to_string(), "CIBC".to_string()]);
//! assert_eq!(report.max_visits_per_site(), 0);
//! ```

use crate::deployment::{ExecCtx, Topology};
use crate::error::PaxResult;
use crate::plan::QueryPlan;
use crate::protocol::{CandidateAnswer, EntryResponse, MultiCombinedRequest};
use crate::report::{AnswerItem, UpdateOutcome};
use crate::transport::ProtocolRequest;
use crate::unify::{walk_qualifiers, walk_selection, DenseAssignment, Walk};
use crate::vars::PaxVar;
use paxml_boolex::CompactVector;
use paxml_distsim::SiteId;
use paxml_fragment::{FragmentId, UpdateOp};
use paxml_xpath::eval::QualVectors;
use paxml_xpath::CompiledQuery;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The per-fragment cache entry: everything the coordinator keeps from the
/// last combined pass over that fragment. `Serialize` exists only so
/// [`ServerStats::session_cache_bytes`](crate::server::ServerStats) can
/// meter the cache with the same canonical encoding the network charges.
#[derive(Debug, Clone, Default, Serialize)]
struct FragmentCache {
    /// Root `QV`/`QDV` vectors (symbolic in the sub-fragments' variables).
    root: Option<QualVectors<PaxVar>>,
    /// Unconditional answers found in the fragment.
    sure: Vec<AnswerItem>,
    /// Conditional answers with their residual formulas.
    candidates: Vec<CandidateAnswer>,
    /// The fragment's current resolved answers (under the latest variable
    /// assignment).
    resolved: Vec<AnswerItem>,
}

/// Coordinator-side work one session did while refreshing its state.
struct RefreshOutcome {
    /// `evalFT` unification operations performed.
    unify_ops: u64,
    /// Fragments the dirty-cone walk actually re-unified.
    reunified_fragments: usize,
}

/// One prepared query's residual-vector cache: the coordinator-side state
/// that lets re-evaluation after updates visit only dirty sites (and serve
/// clean re-executions with no visit at all). A [`session_round`] borrows
/// the deployment per call, so a server can hold many sessions over one
/// deployment.
///
/// `Clone` is copy-on-write at the fragment granularity: the per-fragment
/// cache entries sit behind [`Arc`]s, so cloning a session for the next
/// epoch shares every clean fragment's vectors by reference and only the
/// entries an update actually touches are deep-copied (via
/// [`Arc::make_mut`]). The compiled query, its text and the topology are
/// shared `Arc`s too: the prepared query's and the epoch's. So is the merged
/// answer list, which a refresh replaces only when some fragment's answers
/// changed: a warm execution hands it out by reference count, and a session
/// carried into the next epoch keeps sharing it.
#[derive(Clone)]
pub(crate) struct QuerySession {
    pub(crate) query: Arc<CompiledQuery>,
    query_text: Arc<str>,
    plan: QueryPlan,
    /// The topology whose fragment tree the session's walks run over.
    topology: Arc<Topology>,
    cache: BTreeMap<FragmentId, Arc<FragmentCache>>,
    /// Ancestor summaries recorded at virtual nodes, keyed by the
    /// sub-fragment they stand for (produced by the parent fragment).
    virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// The cached truth values of every `Qual`/`Sel` variable, packed as
    /// per-fragment bitsets.
    assignment: DenseAssignment,
    answers: Arc<[AnswerItem]>,
    /// Has the initial snapshot round run yet?
    pub(crate) initialized: bool,
}

impl QuerySession {
    /// Build the (empty) session state for one compiled query over one
    /// topology version. No site is visited until a [`session_round`] runs
    /// the cold snapshot.
    pub(crate) fn new(
        query: Arc<CompiledQuery>,
        query_text: Arc<str>,
        topology: &Arc<Topology>,
    ) -> QuerySession {
        let plan = QueryPlan::new(&query, topology);
        QuerySession {
            query,
            query_text,
            plan,
            topology: Arc::clone(topology),
            cache: BTreeMap::new(),
            virtuals: BTreeMap::new(),
            assignment: DenseAssignment::new(topology.fragment_tree.len()),
            answers: Arc::new([]),
            initialized: false,
        }
    }

    /// The query this session evaluates.
    pub(crate) fn query_text(&self) -> &Arc<str> {
        &self.query_text
    }

    /// The current answers, sorted by original-document position.
    pub(crate) fn answers(&self) -> &Arc<[AnswerItem]> {
        &self.answers
    }

    /// The fragments the annotation analysis kept for this query.
    pub(crate) fn relevant(&self) -> &BTreeSet<FragmentId> {
        &self.plan.analysis.relevant
    }

    /// Merge one site's entry slice into the cache: every fragment in
    /// `asked` is cleared, then refilled from the slice, whose flat answer
    /// and candidate lists regroup by [`AnswerItem::fragment`].
    /// `Arc::make_mut` unshares exactly the touched entries; clean
    /// fragments' caches stay shared with any prior epoch's sessions.
    fn absorb(&mut self, asked: &[FragmentId], entry: EntryResponse) {
        for &fragment in asked {
            let cleared = self.cached_mut(fragment);
            cleared.sure.clear();
            cleared.candidates.clear();
        }
        for (fragment, root) in entry.roots {
            self.cached_mut(fragment).root = Some(root);
        }
        for item in entry.answers {
            self.cached_mut(item.fragment).sure.push(item);
        }
        for candidate in entry.candidates {
            self.cached_mut(candidate.item.fragment).candidates.push(candidate);
        }
        self.virtuals.extend(entry.virtuals);
    }

    /// A fragment's cache entry, unshared for writing.
    fn cached_mut(&mut self, fragment: FragmentId) -> &mut FragmentCache {
        Arc::make_mut(self.cache.entry(fragment).or_default())
    }

    /// Bytes of the session's per-fragment cache under the canonical wire
    /// encoding — the coordinator-memory meter behind
    /// [`ServerStats::session_cache_bytes`](crate::server::ServerStats).
    /// Entries shared with other epochs' sessions are charged once per
    /// session (the meter reports the logical, not the deduplicated, size).
    pub(crate) fn cache_bytes(&self) -> u64 {
        self.cache.values().map(|entry| paxml_distsim::encoded_size(entry.as_ref())).sum()
    }

    /// Re-unify `evalFT` over the dirty cone and re-resolve the cached
    /// answers — the coordinator-side half of a refresh.
    fn refresh_coordinator_state(
        &mut self,
        dirty_fragments: &BTreeSet<FragmentId>,
        initial: bool,
    ) -> RefreshOutcome {
        // The dirty cone: a fragment is recomputed when it (for `Qual`
        // values) or its parent (for `Sel` values) was updated; the walks
        // add whatever a changed value reaches.
        let (ft, cache) = (&self.topology.fragment_tree, &self.cache);
        let qual = if self.query.has_qualifiers() {
            let root_of =
                |f| cache.get(&f).and_then(|entry: &Arc<FragmentCache>| entry.root.as_ref());
            let updated = |f| initial || dirty_fragments.contains(&f);
            walk_qualifiers(ft, root_of, self.query.qvect_len(), &mut self.assignment, updated)
        } else {
            Walk::default()
        };
        let parent_updated =
            |f| initial || ft.parent(f).is_some_and(|parent| dirty_fragments.contains(&parent));
        let sel = walk_selection(
            ft,
            &self.virtuals,
            &self.plan.root_init,
            &qual.changed,
            &mut self.assignment,
            parent_updated,
        );
        let mut unify_ops = (2 * self.query.qvect_len() * qual.recomputed
            + self.query.init_len() * sel.recomputed) as u64;

        // --------------------------------- re-resolve answers from the cache
        let fragments: Vec<FragmentId> = self.cache.keys().copied().collect();
        let mut any_resolved_changed = false;
        for fragment in fragments {
            let needs = initial
                || dirty_fragments.contains(&fragment)
                || sel.changed.contains(&fragment)
                || ft.children(fragment).iter().any(|c| qual.changed.contains(c));
            if !needs {
                continue;
            }
            let assignment = &self.assignment;
            let entry = self.cache.get_mut(&fragment).expect("iterating cached fragments");
            let mut resolved = entry.sure.clone();
            for candidate in &entry.candidates {
                unify_ops += 1;
                if candidate.formula.eval_with(&|v| assignment.get(v)) == Some(true) {
                    resolved.push(candidate.item.clone());
                }
            }
            if resolved != entry.resolved {
                Arc::make_mut(entry).resolved = resolved;
                any_resolved_changed = true;
            }
        }
        // The global merge is O(total answers); skip it when no fragment's
        // contribution changed, so untouched-answer updates stay O(|dirty|).
        if any_resolved_changed {
            let mut answers: Vec<AnswerItem> =
                self.cache.values().flat_map(|entry| entry.resolved.iter().cloned()).collect();
            answers.sort();
            answers.dedup();
            self.answers = answers.into();
        }
        RefreshOutcome { unify_ops, reunified_fragments: qual.recomputed + sel.recomputed }
    }

    /// Re-plan over `topology`, whose label sets an update with the dirty
    /// fragments `dirty` grew. Relevance only grows with the sets. A newly
    /// relevant fragment that is dirty is evaluated by the update round
    /// itself; a clean one has no cached vectors, so a snapshotted session
    /// that gains one goes cold and re-snapshots on its next execution —
    /// the update round still never visits a clean site.
    pub(crate) fn replan(&mut self, topology: &Arc<Topology>, dirty: &BTreeSet<FragmentId>) {
        let plan = QueryPlan::new(&self.query, topology);
        let gains_a_clean_fragment = plan
            .analysis
            .relevant
            .iter()
            .any(|f| !self.relevant().contains(f) && !dirty.contains(f));
        if self.initialized && gains_a_clean_fragment {
            *self =
                QuerySession::new(Arc::clone(&self.query), Arc::clone(&self.query_text), topology);
        } else {
            self.plan = plan;
            self.topology = Arc::clone(topology);
        }
    }

    /// Adopt a new fragment tree after a re-fragmentation that left this
    /// session's relevant fragments untouched. The annotation analysis is
    /// re-derived over the new tree, the (possibly stale) entries for the
    /// `touched` fragments are dropped, and the truth-value assignment is
    /// rebuilt from the surviving cached vectors — a pure coordinator-side
    /// refresh that costs **zero site visits**. Returns `false`, changing
    /// nothing, when the new analysis keeps a fragment the session holds no
    /// vectors for (a touched one, or one the new label sets let in).
    ///
    /// Sessions whose relevant set intersects the touched fragments cannot
    /// be salvaged this way (their residual vectors mention fragments that
    /// no longer exist); the server cold-resets those instead.
    pub(crate) fn retopologize(
        &mut self,
        topology: &Arc<Topology>,
        touched: &BTreeSet<FragmentId>,
    ) -> bool {
        let plan = QueryPlan::new(&self.query, topology);
        let cached = |f: &FragmentId| self.cache.contains_key(f) && !touched.contains(f);
        if !plan.analysis.relevant.iter().all(cached) {
            return false;
        }
        self.topology = Arc::clone(topology);
        self.plan = plan;
        for fragment in touched {
            self.cache.remove(fragment);
            self.virtuals.remove(fragment);
        }
        // Fragments that left the tree entirely (merged away) must not keep
        // contributing cached answers.
        let ft = &self.topology.fragment_tree;
        self.cache.retain(|fragment, _| ft.contains(*fragment));
        self.virtuals.retain(|fragment, _| ft.contains(*fragment));
        self.assignment = DenseAssignment::new(ft.len());
        self.refresh_coordinator_state(&BTreeSet::new(), true);
        true
    }
}

/// What one [`session_round`] did, summed over the sessions it refreshed.
#[derive(Debug, Default)]
pub(crate) struct SessionRound {
    /// The round as an update reports it: the fragments and sites it
    /// addressed, ops applied and rejected, sessions refreshed.
    pub(crate) update: UpdateOutcome,
    /// Coordinator-side unification operations.
    pub(crate) unify_ops: u64,
}

/// One session round over the execution `ctx` is pinned to: one
/// [`MultiCombinedRequest`] per site of `site_fragments`, carrying the ops
/// for its fragments (applied once, shared by all sessions) and one entry
/// per session with work there, answers shipped rather than parked. The
/// entries' slices merge into the sessions' caches; then each session
/// re-unifies its dirty cone and re-resolves its answers. The round's meters
/// land in `ctx.stats`.
///
/// This is both halves of a session's life. A server update round passes
/// the dirty fragments fanned out to their live replicas, the ops, and the
/// next epoch's sessions. A **cold snapshot** is the same round with no
/// ops: the caller addresses every fragment relevant to the one session it
/// passes, which is thereby treated as entirely dirty.
///
/// A session that was never snapshotted has no cache to keep current, so
/// outside its own cold snapshot it rides along untouched — its next
/// execution snapshots every relevant fragment anyway — and is not counted
/// as refreshed.
pub(crate) fn session_round(
    ctx: &mut ExecCtx<'_>,
    site_fragments: &BTreeMap<SiteId, Vec<FragmentId>>,
    ops_by_fragment: &BTreeMap<FragmentId, Vec<UpdateOp>>,
    sessions: BTreeMap<usize, &mut QuerySession>,
) -> PaxResult<SessionRound> {
    let dirty: BTreeSet<FragmentId> = site_fragments.values().flatten().copied().collect();
    let cold = ops_by_fragment.is_empty();
    let mut refreshing: BTreeMap<usize, &mut QuerySession> =
        sessions.into_iter().filter(|(_, session)| session.initialized || cold).collect();

    // Per site: the session and the fragments behind each entry, in entry
    // order. A session asks only for the fragments its analysis kept —
    // pruned fragments' vectors do not matter.
    let mut asked: BTreeMap<SiteId, Vec<(usize, Vec<FragmentId>)>> = BTreeMap::new();
    let mut requests: BTreeMap<SiteId, ProtocolRequest> = BTreeMap::new();
    for (&site, fragments) in site_fragments {
        let ops = fragments
            .iter()
            .filter_map(|f| ops_by_fragment.get(f).map(|ops| (*f, ops.clone())))
            .collect();
        let mut entries = Vec::new();
        for (&id, session) in &refreshing {
            let here: Vec<FragmentId> =
                fragments.iter().copied().filter(|f| session.relevant().contains(f)).collect();
            if !here.is_empty() {
                let inputs = here.iter().map(|&f| (f, session.plan.combined_input(f))).collect();
                entries.push((session.query.as_ref().clone(), inputs));
                asked.entry(site).or_default().push((id, here));
            }
        }
        let request = MultiCombinedRequest { park: None, ops, entries };
        requests.insert(site, ProtocolRequest::MultiCombined(request));
    }
    let responses = ctx.round(requests)?;

    // Replicated fragments report their ops once per copy; logical progress
    // is the per-fragment maximum, not the sum across copies.
    let mut applied: BTreeMap<FragmentId, usize> = BTreeMap::new();
    let mut outcome = SessionRound::default();
    for (site, response) in responses {
        let asked = asked.remove(&site).unwrap_or_default();
        let response = response.into_multi_combined()?.checked(asked.len())?;
        for (fragment, ops) in response.ops {
            let most = applied.entry(fragment).or_default();
            *most = (*most).max(ops.applied);
            if let Some(reason) = ops.rejected {
                outcome.update.rejected.insert(fragment, reason);
            }
        }
        for ((id, fragments), entry) in asked.iter().zip(response.entries) {
            let session = refreshing.get_mut(id).expect("entries come from refreshing sessions");
            session.absorb(fragments, entry);
        }
    }
    outcome.update.applied_ops = applied.values().sum();

    for session in refreshing.into_values() {
        let refresh = session.refresh_coordinator_state(&dirty, !session.initialized);
        session.initialized = true;
        outcome.update.refreshed_sessions += 1;
        outcome.update.recomputed_fragments += session.relevant().intersection(&dirty).count();
        outcome.update.reunified_fragments += refresh.reunified_fragments;
        outcome.unify_ops += refresh.unify_ops;
    }
    outcome.update.dirty_sites = site_fragments.keys().copied().collect();
    outcome.update.dirty_fragments = dirty;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use crate::server::PaxServer;
    use crate::UpdateOutcome;
    use paxml_fragment::{strategy, FragmentId, FragmentedTree, UpdateOp};
    use paxml_xml::{NodeId, TreeBuilder, XmlTree};

    /// Two clients (Anna/US, Lisa/Canada), one broker each, cut at the
    /// brokers: F0 holds the clients, F1 and F2 a broker each.
    fn clientele() -> FragmentedTree {
        let mut builder = TreeBuilder::new("clientele");
        for (name, country, broker) in [("Anna", "US", "E*trade"), ("Lisa", "Canada", "CIBC")] {
            builder = builder
                .open("client")
                .leaf("name", name)
                .leaf("country", country)
                .open("broker")
                .leaf("name", broker)
                .close()
                .close();
        }
        strategy::cut_at_labels(&builder.build(), &["broker"]).unwrap()
    }

    fn server(fragmented: &FragmentedTree, annotations: bool) -> PaxServer {
        PaxServer::builder().annotations(annotations).sites(3).deploy(fragmented).unwrap()
    }

    /// The text node under the `nth` element labelled `label`.
    fn text_node_of(tree: &XmlTree, label: &str, nth: usize) -> NodeId {
        tree.children(tree.find_all(label)[nth]).next().unwrap()
    }

    fn update(server: &PaxServer, fragment: usize, op: UpdateOp) -> UpdateOutcome {
        let report = server.apply_updates(&[(FragmentId(fragment), op)]).unwrap();
        assert_eq!(report.clean_site_visits(), 0, "clean sites must not be visited");
        assert_eq!(report.max_visits_per_site(), 1);
        report.update.unwrap()
    }

    #[test]
    fn update_in_a_clean_fragment_flips_answers_elsewhere_without_visiting_them() {
        // US clients' broker names: the answers live in the broker
        // fragments, the deciding country in the root fragment. Editing
        // Lisa's country flips the qualifier, so the *clean* fragment F2's
        // cached candidate resolves differently — at the coordinator.
        let fragmented = clientele();
        let server = server(&fragmented, false);
        let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
        assert_eq!(server.execute(&q).unwrap().answer_texts(), vec!["E*trade".to_string()]);

        let lisa_country = text_node_of(&fragmented.fragments[0].tree, "country", 1);
        let outcome =
            update(&server, 0, UpdateOp::EditText { node: lisa_country, text: "US".into() });
        assert_eq!(outcome.dirty_fragments.len(), 1);
        assert_eq!(outcome.recomputed_fragments, 1, "F2 must not be recomputed");
        let report = server.execute(&q).unwrap();
        assert_eq!(report.max_visits_per_site(), 0);
        assert_eq!(report.answer_texts(), vec!["E*trade".to_string(), "CIBC".to_string()]);
    }

    #[test]
    fn annotation_pruned_fragments_still_receive_their_updates() {
        // With XA, `client/name` prunes the broker fragments; an update
        // there must still be applied (the data changes) even though no
        // vectors are recomputed — a later broker query sees the new data.
        let fragmented = clientele();
        let server = server(&fragmented, true);
        let q = server.prepare("client/name").unwrap();
        let names = vec!["Anna".to_string(), "Lisa".to_string()];
        assert_eq!(server.execute(&q).unwrap().answer_texts(), names);

        let f1_name = text_node_of(&fragmented.fragments[1].tree, "name", 0);
        let outcome =
            update(&server, 1, UpdateOp::EditText { node: f1_name, text: "Fidelity".into() });
        assert_eq!(outcome.recomputed_fragments, 0, "pruned fragments need no recompute");
        assert_eq!(outcome.applied_ops, 1);
        assert_eq!(server.execute(&q).unwrap().answer_texts(), names);
        let brokers = server.query_once("client/broker/name").unwrap().answer_texts();
        assert!(brokers.contains(&"Fidelity".to_string()));
    }

    #[test]
    fn rejected_ops_are_reported_and_leave_state_consistent() {
        let fragmented = clientele();
        let server = server(&fragmented, false);
        let q = server.prepare("client/broker/name").unwrap();
        let before = server.execute(&q).unwrap().answers().to_vec();

        // Deleting a fragment root is invalid; the op is rejected site-side.
        let f1_root = fragmented.fragments[1].tree.root();
        let outcome = update(&server, 1, UpdateOp::DeleteSubtree { node: f1_root });
        assert_eq!(outcome.applied_ops, 0);
        assert!(outcome.rejected.contains_key(&FragmentId(1)));
        assert_eq!(server.execute(&q).unwrap().answers(), &before[..]);
    }

    #[test]
    fn dirty_cone_reunification_stays_local() {
        // A chain of nine fragments: an update at the deep end must not
        // re-unify the whole tree for a qualifier-free query (only the dirty
        // fragment's own subtree cone).
        let mut builder = TreeBuilder::new("r");
        for i in 0..8 {
            builder = builder.open("c").leaf("v", format!("{i}"));
        }
        for _ in 0..8 {
            builder = builder.close();
        }
        let fragmented = strategy::cut_at_labels(&builder.build(), &["c"]).unwrap();
        assert_eq!(fragmented.fragment_count(), 9);
        let server = server(&fragmented, false);
        let q = server.prepare("//v").unwrap();
        assert_eq!(server.execute(&q).unwrap().answers().len(), 8);

        let v_text = text_node_of(&fragmented.fragments[8].tree, "v", 0);
        let outcome =
            update(&server, 8, UpdateOp::EditText { node: v_text, text: "edited".into() });
        assert!(
            outcome.reunified_fragments <= 2,
            "a leaf update must re-unify only its cone, got {}",
            outcome.reunified_fragments
        );
        let texts = server.execute(&q).unwrap().answer_texts();
        assert_eq!(texts.len(), 8);
        assert!(texts.contains(&"edited".to_string()));
    }

    /// A site with one US person under `people` and one item under
    /// `regions/europe`, cut at `cuts`.
    fn site_cut_at(cuts: &[&str]) -> FragmentedTree {
        let tree = TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name", "Anna")
            .open("address")
            .leaf("country", "US")
            .close()
            .close()
            .close()
            .open("regions")
            .open("europe")
            .open("item")
            .leaf("name", "Bike")
            .close()
            .close()
            .close()
            .build();
        strategy::cut_at_labels(&tree, cuts).unwrap()
    }

    /// Insert a US person named `name` under the root of `fragment`.
    fn insert_person(fragmented: &FragmentedTree, fragment: usize, name: &str) -> UpdateOp {
        let person = TreeBuilder::new("person")
            .leaf("name", name)
            .open("address")
            .leaf("country", "US")
            .close()
            .build();
        let parent = fragmented.fragments[fragment].tree.root();
        UpdateOp::InsertSubtree { parent, subtree: person, origin_base: 1000 }
    }

    const US_NAMES: &str = "//person[address/country/text()='US']/name";

    #[test]
    fn an_insert_that_brings_a_needed_label_makes_a_pruned_fragment_relevant() {
        // F1 (europe) holds no person, so label pruning drops it; an insert
        // brings one in. F1 is dirty, its parent F0 is relevant: the update
        // round evaluates F1 and the session stays warm.
        let fragmented = site_cut_at(&["europe"]);
        let server = server(&fragmented, true);
        let q = server.prepare(US_NAMES).unwrap();
        let first = server.execute(&q).unwrap();
        assert_eq!(first.answer_texts(), vec!["Anna".to_string()]);
        assert_eq!(first.queries[0].fragments_evaluated, 1);

        let outcome = update(&server, 1, insert_person(&fragmented, 1, "Bert"));
        assert_eq!(outcome.recomputed_fragments, 1, "the newly relevant F1 is evaluated");
        let report = server.execute(&q).unwrap();
        assert!(report.from_cache);
        assert_eq!(report.answer_texts(), vec!["Anna".to_string(), "Bert".to_string()]);
        assert_eq!(server.query_once(US_NAMES).unwrap().queries[0].fragments_evaluated, 2);
    }

    #[test]
    fn a_clean_ancestor_becoming_relevant_sends_the_session_cold() {
        // F1 (regions) → F2 (europe): neither subtree holds a person. An
        // insert into F2 makes F2's and F1's subtrees hold one, so the clean
        // F1 becomes relevant too. The update round still visits only F2's
        // site; the session has no vectors for F1, so it goes cold and its
        // next execution re-snapshots.
        let fragmented = site_cut_at(&["regions", "europe"]);
        let server = server(&fragmented, true);
        let q = server.prepare(US_NAMES).unwrap();
        let first = server.execute(&q).unwrap();
        assert_eq!(first.answer_texts(), vec!["Anna".to_string()]);
        assert_eq!(first.queries[0].fragments_evaluated, 1);

        let outcome = update(&server, 2, insert_person(&fragmented, 2, "Bert"));
        assert_eq!(outcome.refreshed_sessions, 0, "the cold session rides the round untouched");
        let report = server.execute(&q).unwrap();
        assert!(!report.from_cache, "the session went cold");
        assert_eq!(report.queries[0].fragments_evaluated, 3);
        assert_eq!(report.answer_texts(), vec!["Anna".to_string(), "Bert".to_string()]);
        assert!(server.execute(&q).unwrap().from_cache);
    }
}
