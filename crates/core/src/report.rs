//! Evaluation reports: answers plus the measured costs that back the paper's
//! performance guarantees.

use crate::deployment::Topology;
use paxml_distsim::{ClusterStats, SiteId};
use paxml_fragment::FragmentId;
use paxml_xml::{NodeId, XmlTree};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answer node shipped back to the query site.
///
/// Field order matters: `Ord` is derived, so answers sort by their position
/// in the *original* document first — the order the paper's examples (and
/// this crate's reports) present answers in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AnswerItem {
    /// The node's id *in the original, unfragmented tree* (via the
    /// fragment's origin map) — the canonical identity used to compare
    /// distributed and centralized results.
    pub origin: NodeId,
    /// The fragment the node was found in.
    pub fragment: FragmentId,
    /// The element's label.
    pub label: String,
    /// The element's direct text content, when any (e.g. the broker *name*
    /// answers of the running example).
    pub text: Option<String>,
}

/// Which algorithm produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Ship every fragment to the query site and evaluate centrally.
    NaiveCentralized,
    /// The three-stage partial-evaluation algorithm (§3).
    PaX3,
    /// The two-stage partial-evaluation algorithm (§4).
    PaX2,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::NaiveCentralized => write!(f, "NaiveCentralized"),
            Algorithm::PaX3 => write!(f, "PaX3"),
            Algorithm::PaX2 => write!(f, "PaX2"),
        }
    }
}

/// What kind of work one [`ExecReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// One query executed (`PaxServer::execute` / `query_once`).
    Query,
    /// A batch of queries executed together (`PaxServer::execute_batch`).
    Batch,
    /// A batch of fragment updates applied (`PaxServer::apply_updates`).
    Update,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Query => write!(f, "query"),
            ExecMode::Batch => write!(f, "batch"),
            ExecMode::Update => write!(f, "update"),
        }
    }
}

/// One query's slice of an [`ExecReport`]: its answers plus the per-query
/// meters (the cluster-level meters are shared across the execution and live
/// on the report itself).
///
/// The text and the answers are shared and immutable: a cached PaX2
/// execution hands out its session's answer list by reference count, and
/// cloning an outcome never copies an answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The query text as prepared.
    pub query: Arc<str>,
    /// The answers, sorted by their position in the original document.
    pub answers: Arc<[AnswerItem]>,
    /// Number of fragments that actually participated (after pruning).
    pub fragments_evaluated: usize,
    /// Coordinator-side unification work attributable to this query.
    pub coordinator_ops: u64,
}

/// The update-specific slice of an [`ExecReport`] (mode
/// [`ExecMode::Update`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UpdateOutcome {
    /// Fragments the update batch touched.
    pub dirty_fragments: BTreeSet<FragmentId>,
    /// Sites holding at least one dirty fragment — the only sites the
    /// update round is allowed to visit.
    pub dirty_sites: BTreeSet<SiteId>,
    /// Update ops applied successfully.
    pub applied_ops: usize,
    /// Fragments whose op sequence was rejected, with the reason (their
    /// remaining ops were skipped; any session vectors were still
    /// refreshed).
    pub rejected: BTreeMap<FragmentId, String>,
    /// Prepared-query sessions whose residual-vector caches were refreshed
    /// in the same visit the ops were applied in.
    pub refreshed_sessions: usize,
    /// Fragment snapshots recomputed site-side across all sessions.
    pub recomputed_fragments: usize,
    /// `evalFT` steps performed across all sessions' dirty cones.
    pub reunified_fragments: usize,
}

/// The outcome of one execution against a `PaxServer` session — the unified
/// report every entry point (`execute`, `execute_batch`, `apply_updates`,
/// `query_once`) returns.
///
/// The cluster meters ([`ExecReport::stats`]) are **per-execution deltas**:
/// the server snapshots the deployment's cumulative counters around each
/// execution, so back-to-back executions each report their own visits and
/// bytes — no `reset()` needed, ever. Per-query data (answers, pruning,
/// unification work) lives in [`ExecReport::queries`]; update-only data in
/// [`ExecReport::update`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecReport {
    /// The algorithm the server is configured with. Note: batch executions
    /// always run the shared-visit combined protocol (the PaX2 driver over
    /// the whole slice) regardless of this label — a PaX3 server's batch
    /// report carries `PaX3` but its meters are two-visit ones (the ≤ 3
    /// bound holds a fortiori).
    pub algorithm: Algorithm,
    /// Was the XPath-annotation optimization (§5) enabled: did the
    /// topology this execution was pinned with carry the §5 index?
    pub annotations_used: bool,
    /// What kind of execution this report describes.
    pub mode: ExecMode,
    /// One outcome per query (exactly one for [`ExecMode::Query`], one per
    /// batch member for [`ExecMode::Batch`], empty for updates).
    pub queries: Vec<QueryOutcome>,
    /// Update-specific details ([`ExecMode::Update`] only).
    pub update: Option<UpdateOutcome>,
    /// Total number of fragments in the fragment tree.
    pub fragments_total: usize,
    /// Network / visit / computation counters of **this execution only**.
    pub stats: ClusterStats,
    /// Coordinator-side work of this execution (unification, or the naive
    /// baseline's centralized evaluation).
    pub coordinator_ops: u64,
    /// Wall-clock time of the execution as seen by the coordinator.
    pub elapsed: Duration,
    /// Was this execution served entirely from the server's residual-vector
    /// cache (zero site visits)?
    pub from_cache: bool,
    /// The deployment epoch this execution was pinned to: queries report
    /// the epoch whose snapshots they read, updates the epoch they
    /// published.
    pub epoch: u64,
    /// The version of the placement map (fragment → site topology) that
    /// routed this execution's visits. 0 is the deploy-time topology; every
    /// published re-fragmentation increments it. Lets tests and benches
    /// assert which topology served a read across an online rebalance.
    pub placement_version: u64,
}

impl ExecReport {
    /// The report of an execution that started at `start` pinned to `epoch`
    /// and routed by `topology`, with no queries, no update slice and zero
    /// meters: every engine fills in only what it did (struct-update
    /// syntax), so the fields derived from the pinned topology are derived
    /// once.
    pub(crate) fn skeleton(
        algorithm: Algorithm,
        mode: ExecMode,
        epoch: u64,
        topology: &Topology,
        start: Instant,
    ) -> ExecReport {
        ExecReport {
            algorithm,
            annotations_used: topology.annotations().is_some(),
            mode,
            queries: Vec::new(),
            update: None,
            fragments_total: topology.fragment_tree.len(),
            stats: ClusterStats::default(),
            coordinator_ops: 0,
            elapsed: start.elapsed(),
            from_cache: false,
            epoch,
            placement_version: topology.version,
        }
    }

    /// The answers of a single-query execution (the first query's answers;
    /// empty for updates).
    pub fn answers(&self) -> &[AnswerItem] {
        self.queries.first().map(|q| &q.answers[..]).unwrap_or(&[])
    }

    /// The answers' origin node ids, sorted — the canonical comparison key.
    /// For batches this is the first query's; use [`ExecReport::queries`]
    /// for the rest.
    pub fn answer_origins(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.answers().iter().map(|a| a.origin).collect();
        out.sort();
        out
    }

    /// The answers' text contents (useful in examples and tests).
    pub fn answer_texts(&self) -> Vec<String> {
        self.answers().iter().filter_map(|a| a.text.clone()).collect()
    }

    /// Number of queries this execution carried.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Did this execution carry no queries (an update, or an empty batch)?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Answers summed over every query of the execution.
    pub fn total_answers(&self) -> usize {
        self.queries.iter().map(|q| q.answers.len()).sum()
    }

    /// Maximum number of visits any site received **during this execution**
    /// — the paper's headline guarantee (≤ 3 for PaX3, ≤ 2 for PaX2 and for
    /// a whole PaX2 batch, ≤ 1 for the naive baseline and for an update
    /// round).
    pub fn max_visits_per_site(&self) -> u32 {
        self.stats.max_visits_per_site()
    }

    /// Per-site visit counts of this execution.
    pub fn visits_per_site(&self) -> BTreeMap<SiteId, u32> {
        self.stats.sites.iter().map(|(site, s)| (*site, s.visits)).collect()
    }

    /// Visits this execution paid to sites holding *no* dirty fragment.
    /// Meaningful for [`ExecMode::Update`], where the incremental protocol
    /// guarantees zero; executions without an update slice return 0.
    pub fn clean_site_visits(&self) -> u32 {
        match &self.update {
            Some(update) => self
                .stats
                .sites
                .iter()
                .filter(|(site, _)| !update.dirty_sites.contains(site))
                .map(|(_, s)| s.visits)
                .sum(),
            None => 0,
        }
    }

    /// Total bytes moved over the (simulated) network by this execution.
    pub fn network_bytes(&self) -> u64 {
        self.stats.total_bytes()
    }

    /// Coordinator rounds this execution needed.
    pub fn rounds(&self) -> u32 {
        self.stats.rounds
    }

    /// Total computation (sum over sites plus the coordinator's own work).
    pub fn total_ops(&self) -> u64 {
        self.stats.total_ops + self.coordinator_ops
    }

    /// The parallel (perceived) computation time of this execution.
    pub fn parallel_time(&self) -> Duration {
        self.stats.parallel_time()
    }

    /// Deterministic model of the parallel computation cost (see
    /// [`ClusterStats::parallel_ops`]).
    pub fn parallel_ops(&self) -> u64 {
        self.stats.parallel_ops
    }

    /// Sum of per-site busy time — the paper's Experiment-3 metric.
    pub fn total_computation_time(&self) -> Duration {
        self.stats.total_busy()
    }

    /// Queries per second of coordinator wall-clock time (batch executions).
    pub fn queries_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.queries.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut out =
            format!("{}{}", self.algorithm, if self.annotations_used { "-XA" } else { "-NA" },);
        match self.mode {
            ExecMode::Query => {}
            ExecMode::Batch => out.push_str("-batch"),
            ExecMode::Update => out.push_str("-update"),
        }
        out.push_str(&format!(
            ": {} answers, {} visits max/site, {} rounds, {} bytes, {} ops, parallel {:?}",
            self.total_answers(),
            self.max_visits_per_site(),
            self.rounds(),
            self.network_bytes(),
            self.total_ops(),
            self.parallel_time(),
        ));
        if let Some(q) = self.queries.first() {
            if self.queries.len() == 1 {
                out.push_str(&format!(
                    ", {} of {} fragments",
                    q.fragments_evaluated, self.fragments_total
                ));
            } else {
                out.push_str(&format!(", {} queries", self.queries.len()));
            }
        }
        if let Some(update) = &self.update {
            out.push_str(&format!(
                ", {} dirty fragments on {} sites, {} ops applied, {} sessions refreshed",
                update.dirty_fragments.len(),
                update.dirty_sites.len(),
                update.applied_ops,
                update.refreshed_sessions,
            ));
        }
        if self.from_cache {
            out.push_str(" (cached)");
        }
        out
    }
}

/// Build an [`AnswerItem`] from a node of a fragment.
pub fn answer_item(
    fragment: FragmentId,
    tree: &XmlTree,
    node: NodeId,
    origin: NodeId,
) -> AnswerItem {
    AnswerItem {
        origin,
        fragment,
        label: tree.label(node).unwrap_or_default().to_string(),
        text: tree.text_of(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::TreeBuilder;

    #[test]
    fn answer_item_captures_label_and_text() {
        let t = TreeBuilder::new("broker").leaf("name", "Bache").build();
        let name = t.find_first("name").unwrap();
        let item = answer_item(FragmentId(1), &t, name, NodeId::from_index(42));
        assert_eq!(item.label, "name");
        assert_eq!(item.text, Some("Bache".to_string()));
        assert_eq!(item.origin.index(), 42);
    }

    #[test]
    fn an_outcome_encodes_as_owned_lists_and_decodes_back() {
        let t = TreeBuilder::new("broker").leaf("name", "Bache").build();
        let name = t.find_first("name").unwrap();
        let answers = vec![answer_item(FragmentId(1), &t, name, NodeId::from_index(9))];
        let outcome = QueryOutcome {
            query: "//broker/name".into(),
            answers: answers.clone().into(),
            fragments_evaluated: 2,
            coordinator_ops: 7,
        };
        let bytes = paxml_distsim::codec::encode(&outcome);
        let owned = (String::from("//broker/name"), answers, 2usize, 7u64);
        assert_eq!(bytes, paxml_distsim::codec::encode(&owned));
        let decoded: QueryOutcome = paxml_distsim::codec::decode(&bytes).unwrap();
        assert_eq!((decoded.query, decoded.answers), (outcome.query, outcome.answers));
    }

    #[test]
    fn report_accessors() {
        let t = TreeBuilder::new("broker").leaf("name", "Bache").build();
        let name = t.find_first("name").unwrap();
        let report = ExecReport {
            algorithm: Algorithm::PaX2,
            annotations_used: true,
            mode: ExecMode::Query,
            queries: vec![QueryOutcome {
                query: "//broker/name".into(),
                answers: vec![
                    answer_item(FragmentId(1), &t, name, NodeId::from_index(9)),
                    answer_item(FragmentId(0), &t, name, NodeId::from_index(3)),
                ]
                .into(),
                fragments_evaluated: 2,
                coordinator_ops: 7,
            }],
            update: None,
            fragments_total: 5,
            stats: ClusterStats::default(),
            coordinator_ops: 7,
            elapsed: Duration::from_millis(1),
            from_cache: false,
            epoch: 0,
            placement_version: 0,
        };
        assert_eq!(report.answer_origins(), vec![NodeId::from_index(3), NodeId::from_index(9)]);
        assert_eq!(report.answer_texts(), vec!["Bache".to_string(), "Bache".to_string()]);
        assert_eq!(report.total_ops(), 7);
        let s = report.summary();
        assert!(s.contains("PaX2-XA"));
        assert!(s.contains("2 answers"));
        assert!(s.contains("2 of 5 fragments"));
        assert_eq!(Algorithm::PaX3.to_string(), "PaX3");
        assert_eq!(Algorithm::NaiveCentralized.to_string(), "NaiveCentralized");
    }
}
