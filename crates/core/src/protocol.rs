//! The coordinator ↔ site protocol: message types and the site-side tasks.
//!
//! Every request/response type here derives `Serialize` so the simulator can
//! charge its exact byte size to the network. The site-side task functions
//! operate on a [`SiteLocal`]'s fragments and scratch state:
//!
//! * PaX3's [`qualifier_task`] and [`selection_task`];
//! * PaX2's first visit — [`combined_task`] for one query, and
//!   [`multi_combined_task`] for many: an `execute_batch`, a prepared
//!   query's cold snapshot, or an update round that applies its ops first;
//! * the collection visit, [`collect_task`] and [`batch_collect_task`];
//! * the control tasks [`refrag_task`] and the vacuum sweep.
//!
//! Both first-visit tasks make one kernel call per fragment,
//! `visit_fragment`: the multi-query task's queries share one qualifier
//! sweep there (`paxml_xpath::eval`, "Many queries, one visit"). The
//! multi-query task differs between its uses in one thing only: where an
//! entry's uncertain answers go. A batch parks them site-side for the
//! collection visit; a session round ships them with their formulas to the
//! coordinator's cache.
//!
//! The algorithms in [`crate::pax2`]/[`crate::pax3`] drive the tasks through
//! [`ExecCtx::round`](crate::ExecCtx::round), whose [`dispatch`](crate::dispatch)
//! first checks that the site holds every fragment a body names. They can
//! also be exercised directly against a hand-built site:
//!
//! ```
//! use paxml_boolex::{BitVector, CompactVector};
//! use paxml_core::protocol::{combined_task, CombinedFragmentInput, CombinedRequest, InitVector};
//! use paxml_distsim::{SiteId, SiteLocal, LATEST_EPOCH};
//! use paxml_fragment::{fragment_at, FragmentId};
//! use paxml_xml::TreeBuilder;
//! use paxml_xpath::compile_text;
//! use std::collections::BTreeMap;
//!
//! // One site holding both fragments of a tiny clientele document.
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .build();
//! let broker = tree.find_first("broker").unwrap();
//! let fragmented = fragment_at(&tree, &[broker]).unwrap();
//! let mut site = SiteLocal::new(SiteId(0));
//! for fragment in fragmented.fragments.clone() {
//!     site.add_fragment(fragment);
//! }
//!
//! // PaX2's first visit: the qualifier sweep then the selection sweep over
//! // each fragment, starting the broker fragment from an unknown ancestor
//! // summary (fresh `Sel` variables).
//! let query = compile_text("client/broker/name").unwrap();
//! let mut fragments = BTreeMap::new();
//! for (id, init) in [
//!     (FragmentId(0), InitVector::Exact(BitVector::all_false(query.init_len()))),
//!     (FragmentId(1), InitVector::Unknown),
//! ] {
//!     fragments.insert(id, CombinedFragmentInput {
//!         root_is_context: id == FragmentId::ROOT,
//!         collect_answers_now: false,
//!         init,
//!     });
//! }
//! let response = combined_task(&mut site, LATEST_EPOCH, CombinedRequest { slot: 0, query, fragments });
//!
//! // Both fragments report root vectors; the root fragment records an
//! // ancestor summary for its virtual node standing in for F1.
//! assert_eq!(response.roots.len(), 2);
//! assert!(response.virtuals.contains_key(&FragmentId(1)));
//! // The variable-free leaf fragment F1 ships packed bits, not a vector of
//! // enum-tagged formulas.
//! assert!(matches!(response.roots[&FragmentId(1)].qv, CompactVector::Bits(_)));
//! ```

use crate::error::{PaxError, PaxResult};
use crate::report::{answer_item, AnswerItem};
use crate::unify::{assignment_from_pairs, fresh_qual_vectors, fresh_selection_vector};
use crate::vars::PaxVar;
use paxml_boolex::{BitVector, BoolExpr, CompactVector};
use paxml_distsim::SiteLocal;
use paxml_fragment::{Fragment, FragmentError, FragmentId, UpdateOp};
use paxml_xml::NodeId;
use paxml_xpath::eval::{
    multi_combined_pass, parked_selection_pass, qualifier_sweep, CombinedPassOutput,
    ParkedQualifiers, QualVectors, VisitQuery,
};
use paxml_xpath::CompiledQuery;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A default scratch slot for driving the site tasks directly against a
/// hand-built [`SiteLocal`] (tests, doctests). Real executions draw a
/// unique slot from
/// [`Deployment::allocate_slots`](crate::Deployment::allocate_slots) — two
/// executions sharing a slot at one epoch would mix their candidate state.
pub const SINGLE_QUERY_SLOT: usize = 0;

/// What a first visit parks for the collection visit, one value per
/// `(epoch, slot, fragment)`: the certain answers and the candidates with
/// their residual formulas. The epoch keeps state parked against one
/// epoch's snapshots from being resolved against another's, and retires
/// what an abandoned execution leaves behind.
struct ParkedAnswers {
    sure: Vec<NodeId>,
    candidates: Vec<(NodeId, BoolExpr<PaxVar>)>,
}

/// The snapshot of `fragment` a visit pinned to `epoch` reads.
/// [`dispatch`](crate::dispatch) answers a body that names a fragment the
/// site cannot read with [`ProtocolResponse::Missing`](crate::ProtocolResponse::Missing)
/// before any task runs, so a task only asks for fragments the site holds.
fn snapshot(site: &SiteLocal, fragment: FragmentId, epoch: u64) -> Arc<Fragment> {
    site.fragment_at(fragment, epoch).expect("dispatch checked every fragment the body names")
}

/// The sub-fragment a virtual node of `fragment` stands for.
fn virtual_child(fragment: &Fragment, vnode: NodeId) -> FragmentId {
    fragment
        .tree
        .kind(vnode)
        .virtual_fragment()
        .map(FragmentId)
        .expect("virtual nodes carry their fragment id")
}

/// How a fragment's top-down pass should initialise its ancestor summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InitVector {
    /// Concrete truth values, packed as bits (the root fragment, or any
    /// fragment when the XPath-annotation optimization applies and the
    /// query has no qualifiers).
    Exact(BitVector),
    /// Unknown ancestors: start from fresh `Sel` variables.
    Unknown,
}

// ---------------------------------------------------------------------------
// Stage 1 of PaX3: qualifier evaluation (extended ParBoX).
// ---------------------------------------------------------------------------

/// Request of the qualifier stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualRequest {
    /// The execution's scratch slot (where the qualifier sweep is parked for
    /// the selection visit).
    pub slot: usize,
    /// The compiled query (sent to every site — the `O(|Q|·|FT|)` part of
    /// the communication bound).
    pub query: CompiledQuery,
    /// The fragments (stored at the target site) to evaluate.
    pub fragments: Vec<FragmentId>,
    /// The subset of `fragments` whose qualifier sweep a later selection
    /// visit will read (the annotation-relevant ones). Every fragment
    /// still contributes its root vectors, but only these park state in
    /// the site's scratch — parking for a fragment the selection stage
    /// prunes would leave the entry behind until its epoch retires.
    pub park: Vec<FragmentId>,
}

/// Response of the qualifier stage: the root `QV`/`QDV` vectors of every
/// evaluated fragment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualResponse {
    /// Root vectors, possibly containing the variables of the fragment's
    /// sub-fragments.
    pub roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
}

/// Site-side task of the qualifier stage: one bottom-up sweep per fragment,
/// parked as it left it ([`ParkedQualifiers`]) for the selection visit when
/// the fragment is in `park`. The sweep reads the fragment snapshot of the
/// visit's pinned `epoch` (an `Arc` handle — fragment data is never
/// copied) and its atoms from the snapshot's label summary, which the
/// selection visit reads again.
pub fn qualifier_task(site: &mut SiteLocal, epoch: u64, request: QualRequest) -> QualResponse {
    let mut roots = BTreeMap::new();
    let qlen = request.query.qvect_len();
    for &fragment_id in &request.fragments {
        let fragment = snapshot(site, fragment_id, epoch);
        let summary = site.label_summary_at(fragment_id, epoch);
        let out = qualifier_sweep::<PaxVar>(
            &fragment.tree,
            fragment.tree.root(),
            &request.query,
            summary.as_deref(),
            |vnode| fresh_qual_vectors(virtual_child(&fragment, vnode), qlen),
        );
        site.charge_ops(out.ops);
        roots.insert(fragment_id, out.root);
        if request.park.contains(&fragment_id) {
            site.put_scratch(epoch, request.slot, fragment_id, out.parked);
        }
    }
    QualResponse { roots }
}

// ---------------------------------------------------------------------------
// Stage 2 of PaX3: selection-path evaluation.
// ---------------------------------------------------------------------------

/// Per-fragment input of the selection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelFragmentInput {
    /// Resolved truth values of the qualifier variables of this fragment's
    /// sub-fragments (empty when the query has no qualifiers).
    pub qual_values: Vec<(PaxVar, bool)>,
    /// How to initialise the ancestor summary.
    pub init: InitVector,
    /// Is this fragment's root the evaluation context (the global root
    /// element of a relative query)?
    pub root_is_context: bool,
    /// When true the coordinator already knows that no candidate answers can
    /// arise (exact init), so certain answers are returned immediately and
    /// the final stage is skipped for this fragment.
    pub collect_answers_now: bool,
}

/// Request of the selection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelRequest {
    /// The execution's scratch slot (where the qualifier visit parked its
    /// vectors and where candidate answers are parked for collection).
    pub slot: usize,
    /// The compiled query.
    pub query: CompiledQuery,
    /// Inputs per fragment stored at the target site.
    pub fragments: BTreeMap<FragmentId, SelFragmentInput>,
}

/// Response of the selection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelResponse {
    /// For every sub-fragment of every evaluated fragment: the ancestor
    /// summary recorded at its virtual node.
    pub virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// Answers returned early (only when `collect_answers_now` was set).
    pub answers: Vec<AnswerItem>,
}

/// Build the initial vector for a fragment's top-down pass.
fn build_init(fragment: FragmentId, init: &InitVector, svect_len: usize) -> CompactVector<PaxVar> {
    match init {
        InitVector::Exact(values) => {
            let mut v = BitVector::all_false(svect_len);
            for (i, b) in values.iter().enumerate().take(svect_len) {
                v.set(i, b);
            }
            CompactVector::Bits(v)
        }
        InitVector::Unknown => fresh_selection_vector(fragment, svect_len),
    }
}

/// Site-side task of the selection stage (PaX3 Stage 2): one top-down sweep
/// per fragment, reading the qualifier sweep its site parked in place.
pub fn selection_task(site: &mut SiteLocal, epoch: u64, request: SelRequest) -> SelResponse {
    let query = &request.query;
    let mut virtuals = BTreeMap::new();
    let mut answers = Vec::new();
    for (&fragment_id, input) in &request.fragments {
        let fragment = snapshot(site, fragment_id, epoch);
        let init = build_init(fragment_id, &input.init, query.init_len());
        let context = if input.root_is_context { Some(fragment.tree.root()) } else { None };
        let qual_assignment = assignment_from_pairs(&input.qual_values);
        let parked =
            site.take_scratch::<ParkedQualifiers<PaxVar>>(epoch, request.slot, fragment_id);
        let summary = site.label_summary_at(fragment_id, epoch);
        let out = parked_selection_pass::<PaxVar>(
            &fragment.tree,
            fragment.tree.root(),
            query,
            init,
            context,
            summary.as_deref(),
            parked.as_ref(),
            &qual_assignment,
        );
        site.charge_ops(out.ops);

        for (vnode, vector) in out.virtual_vectors {
            virtuals.insert(virtual_child(&fragment, vnode), vector);
        }

        if input.collect_answers_now {
            debug_assert!(out.candidates.is_empty(), "exact init vectors never produce candidates");
            let item = |n| answer_item(fragment_id, &fragment.tree, n, fragment.origin_of(n));
            answers.extend(out.answers.into_iter().map(item));
        } else {
            let parked = ParkedAnswers { sure: out.answers, candidates: out.candidates };
            site.put_scratch(epoch, request.slot, fragment_id, parked);
        }
    }
    SelResponse { virtuals, answers }
}

// ---------------------------------------------------------------------------
// PaX2: the combined qualifier + selection stage.
// ---------------------------------------------------------------------------

/// Request of PaX2's combined stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CombinedRequest {
    /// The execution's scratch slot (where candidate answers are parked for
    /// the collection visit).
    pub slot: usize,
    /// The compiled query.
    pub query: CompiledQuery,
    /// Inputs per fragment stored at the target site.
    pub fragments: BTreeMap<FragmentId, CombinedFragmentInput>,
}

/// Per-fragment input of PaX2's combined stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CombinedFragmentInput {
    /// How to initialise the ancestor summary.
    pub init: InitVector,
    /// Is this fragment's root the evaluation context?
    pub root_is_context: bool,
    /// Return certain answers immediately (exact init, no qualifiers).
    pub collect_answers_now: bool,
}

/// Response of PaX2's combined stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CombinedResponse {
    /// Root `QV`/`QDV` vectors per evaluated fragment.
    pub roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
    /// Ancestor summaries recorded at the virtual nodes.
    pub virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// Answers returned early.
    pub answers: Vec<AnswerItem>,
}

/// A candidate answer shipped to the coordinator's incremental cache: the
/// answer node (already resolved to an [`AnswerItem`]) plus the residual
/// formula deciding whether it is a real answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateAnswer {
    /// The would-be answer node.
    pub item: AnswerItem,
    /// Its residual selection formula (over the fragment's `Sel` variables
    /// and the `Qual` variables of its sub-fragments).
    pub formula: BoolExpr<PaxVar>,
}

/// One query's slice of a [`MultiCombinedResponse`], positional: entry `i`
/// answers the request's entry `i`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EntryResponse {
    /// Root `QV`/`QDV` vectors per evaluated fragment.
    pub roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
    /// Ancestor summaries recorded at the virtual nodes.
    pub virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// Certain answers — on a visit that parks nothing, every unconditional
    /// answer. Each names its fragment.
    pub answers: Vec<AnswerItem>,
    /// Conditional answers with their residual formulas (only on a visit
    /// that parks nothing).
    pub candidates: Vec<CandidateAnswer>,
}

/// PaX2's visit kernel over one fragment, for every query with input there:
/// one [`multi_combined_pass`] (the qualifier sweep of the queries' union,
/// each query's spine and selection sweeps, the latter over the snapshot's
/// label summary), the one place the pass is configured. Charges the union
/// phases' operations once; each visit is then routed by [`route_visit`].
fn visit_fragment(
    site: &mut SiteLocal,
    epoch: u64,
    fragment: &Fragment,
    entries: &[(&CompiledQuery, &CombinedFragmentInput)],
) -> Vec<CombinedPassOutput<PaxVar>> {
    let (fid, root) = (fragment.id, fragment.tree.root());
    let queries: Vec<VisitQuery<PaxVar>> = entries
        .iter()
        .map(|&(query, input)| VisitQuery {
            query,
            init: build_init(fid, &input.init, query.init_len()),
            context: input.root_is_context.then_some(root),
        })
        .collect();
    let summary = site.label_summary_at(fid, epoch);
    let pass =
        multi_combined_pass(&fragment.tree, root, &queries, summary.as_deref(), |i, vnode| {
            fresh_qual_vectors(virtual_child(fragment, vnode), queries[i].query.qvect_len())
        });
    site.charge_ops(pass.sharing.union_ops);
    pass.visits
}

/// One query's visit of one fragment: charges its operations, deposits the
/// root vectors and virtual-node summaries into `out`, and routes the
/// answers: certain ones — and, when `slot` is `None`, every answer with its
/// formula — go into `out`; the rest are parked under `slot` for the
/// collection visit.
fn route_visit(
    site: &mut SiteLocal,
    epoch: u64,
    slot: Option<usize>,
    fragment: &Fragment,
    input: &CombinedFragmentInput,
    pass: CombinedPassOutput<PaxVar>,
    out: &mut EntryResponse,
) {
    let fid = fragment.id;
    site.charge_ops(pass.ops);
    out.roots.insert(fid, pass.root);
    for (vnode, vector) in pass.virtual_vectors {
        out.virtuals.insert(virtual_child(fragment, vnode), vector);
    }
    match slot {
        Some(slot) if !input.collect_answers_now => {
            let parked = ParkedAnswers { sure: pass.answers, candidates: pass.candidates };
            site.put_scratch(epoch, slot, fid, parked);
        }
        _ => {
            let item = |node| answer_item(fid, &fragment.tree, node, fragment.origin_of(node));
            out.answers.extend(pass.answers.into_iter().map(item));
            out.candidates.extend(
                pass.candidates
                    .into_iter()
                    .map(|(node, formula)| CandidateAnswer { item: item(node), formula }),
            );
        }
    }
}

/// Site-side task of PaX2's combined stage: one kernel visit per fragment,
/// over the snapshots of the visit's pinned `epoch`.
pub fn combined_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: CombinedRequest,
) -> CombinedResponse {
    let mut out = EntryResponse::default();
    for (&fragment_id, input) in &request.fragments {
        let fragment = snapshot(site, fragment_id, epoch);
        let pass = visit_fragment(site, epoch, &fragment, &[(&request.query, input)]).pop();
        let pass = pass.expect("one query, one visit");
        route_visit(site, epoch, Some(request.slot), &fragment, input, pass, &mut out);
    }
    debug_assert!(out.candidates.is_empty(), "a parking visit ships no formula");
    CombinedResponse { roots: out.roots, virtuals: out.virtuals, answers: out.answers }
}

// ---------------------------------------------------------------------------
// PaX2 over many queries: one visit carries every query's payload.
// ---------------------------------------------------------------------------

/// Request of PaX2's multi-query first visit: the payloads of every query
/// with work at the target site, and optionally update ops to apply first —
/// one message per site, so the whole set costs each site one visit.
///
/// It serves three callers. `execute_batch` parks the entries' uncertain
/// answers for its collection visit. A prepared query's cold snapshot ships
/// them to the coordinator's cache instead. An update round does the same
/// after applying its ops, keeping every prepared query's cache current in
/// the visit that changed the data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiCombinedRequest {
    /// Where the entries' uncertain answers go. `Some(base)`: entry `i`
    /// parks them under scratch slot `base + i`, and a
    /// [`BatchCollectRequest`] resolves them. `None`: every answer ships in
    /// the response, candidates with their formulas.
    pub park: Option<usize>,
    /// Update ops per fragment at the target site, applied in order and
    /// once, before any entry runs.
    pub ops: BTreeMap<FragmentId, Vec<UpdateOp>>,
    /// Per query: the compiled query and the inputs of the fragments it
    /// evaluates at the target site (a different set per query when the
    /// annotation optimization prunes differently).
    pub entries: Vec<(CompiledQuery, BTreeMap<FragmentId, CombinedFragmentInput>)>,
}

/// What applying one fragment's ops did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpOutcome {
    /// Ops applied, counted from the first.
    pub applied: usize,
    /// Why the op after the applied ones was rejected, if one was (the rest
    /// were skipped; the entries still read the partly updated fragment).
    pub rejected: Option<String>,
}

/// Response of PaX2's multi-query first visit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultiCombinedResponse {
    /// What applying each fragment's ops did.
    pub ops: BTreeMap<FragmentId, OpOutcome>,
    /// One slice per request entry, in request order.
    pub entries: Vec<EntryResponse>,
}

impl MultiCombinedResponse {
    /// The response, checked to answer exactly the `sent` entries of its
    /// request: the slices are positional, so a short reply must not
    /// silently drop a query's answers.
    pub fn checked(self, sent: usize) -> PaxResult<Self> {
        if self.entries.len() != sent {
            let message = format!("{} entry slices answer {sent} entries", self.entries.len());
            return Err(PaxError::Protocol { message });
        }
        Ok(self)
    }
}

/// Site-side task of PaX2's multi-query first visit.
///
/// Epoch semantics of the ops: a fragment with ops is rebuilt copy-on-write
/// from the newest snapshot **strictly before** `epoch` (so a retried epoch
/// build never re-applies its ops on top of a failed attempt's orphan) and
/// installed as `epoch`'s snapshot; readers pinned below `epoch` are
/// untouched. The entries then read **at** `epoch` and so see the fresh
/// snapshots.
///
/// The loop is *fragment-major*: each fragment is taken out of the site map
/// once, and one kernel call visits it for every entry naming it.
pub fn multi_combined_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: MultiCombinedRequest,
) -> MultiCombinedResponse {
    let ops = request.ops.iter().map(|(&f, ops)| (f, apply_ops(site, epoch, f, ops))).collect();
    let mut entries = vec![EntryResponse::default(); request.entries.len()];
    let needed: BTreeSet<FragmentId> =
        request.entries.iter().flat_map(|(_, inputs)| inputs.keys().copied()).collect();
    for fragment_id in needed {
        let fragment = snapshot(site, fragment_id, epoch);
        let (at, visiting): (Vec<usize>, Vec<_>) = request
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, (query, inputs))| Some((i, (query, inputs.get(&fragment_id)?))))
            .unzip();
        let passes = visit_fragment(site, epoch, &fragment, &visiting);
        for ((i, (_, input)), pass) in at.into_iter().zip(visiting).zip(passes) {
            let slot = request.park.map(|base| base + i);
            route_visit(site, epoch, slot, &fragment, input, pass, &mut entries[i]);
        }
    }
    MultiCombinedResponse { ops, entries }
}

/// Apply one fragment's ops copy-on-write and install the result as
/// `epoch`'s snapshot (see [`multi_combined_task`]). The copy is allocated
/// once, with room for every node the batch inserts: an insert's payload is
/// sized by its arena, which is not walked before `apply_update` has
/// validated it.
fn apply_ops(
    site: &mut SiteLocal,
    epoch: u64,
    fragment: FragmentId,
    ops: &[UpdateOp],
) -> OpOutcome {
    let base = site.update_base(fragment, epoch).expect("dispatch checked the update base");
    let inserted = ops
        .iter()
        .map(|op| match op {
            UpdateOp::InsertSubtree { subtree, .. } => subtree.node_count(),
            _ => 0,
        })
        .sum();
    let mut updated = base.clone_with_room(inserted);
    let mut outcome = OpOutcome::default();
    for op in ops {
        if let Err(e) = paxml_fragment::apply_update(&mut updated, op) {
            outcome.rejected = Some(e.to_string());
            break;
        }
        outcome.applied += 1;
        site.charge_ops(1);
    }
    site.install_version(epoch, updated);
    outcome
}

// ---------------------------------------------------------------------------
// Final stage (Stage 3 of PaX3 / Stage 2 of PaX2): answer collection.
// ---------------------------------------------------------------------------

/// Request of the answer-collection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectRequest {
    /// The execution's scratch slot (where the earlier visit parked the
    /// candidate answers being resolved).
    pub slot: usize,
    /// For every fragment at the target site: the resolved truth values of
    /// the variables its candidate formulas may mention.
    pub fragments: BTreeMap<FragmentId, Vec<(PaxVar, bool)>>,
}

/// Response of the answer-collection stage: the answers, exactly those nodes
/// that belong to the query result (the only tree data ever shipped).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectResponse {
    /// The answer nodes.
    pub answers: Vec<AnswerItem>,
}

/// Resolve one fragment's parked answer candidates for one query slot
/// against the coordinator-provided variable values. Shared between the
/// single-query [`collect_task`] and the batched [`batch_collect_task`].
fn collect_on_fragment(
    site: &mut SiteLocal,
    fragment: &Fragment,
    epoch: u64,
    slot: usize,
    values: &[(PaxVar, bool)],
    answers: &mut Vec<AnswerItem>,
) {
    let fid = fragment.id;
    let assignment = assignment_from_pairs(values);
    let ParkedAnswers { sure, candidates } = site
        .take_scratch::<ParkedAnswers>(epoch, slot, fid)
        .unwrap_or(ParkedAnswers { sure: Vec::new(), candidates: Vec::new() });
    site.charge_ops(candidates.len() as u64 + sure.len() as u64);
    let resolved = candidates
        .into_iter()
        .filter(|(_, formula)| formula.eval_with(&|v| assignment.get(v)) == Some(true));
    for node in sure.into_iter().chain(resolved.map(|(node, _)| node)) {
        answers.push(answer_item(fid, &fragment.tree, node, fragment.origin_of(node)));
    }
}

/// Site-side task of the answer-collection stage (Procedure `collectAns`).
pub fn collect_task(site: &mut SiteLocal, epoch: u64, request: CollectRequest) -> CollectResponse {
    let mut answers = Vec::new();
    for (&fragment_id, values) in &request.fragments {
        let fragment = snapshot(site, fragment_id, epoch);
        collect_on_fragment(site, &fragment, epoch, request.slot, values, &mut answers);
    }
    CollectResponse { answers }
}

/// One query's slice of a batched answer-collection request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCollectEntry {
    /// Position of this query in the batch.
    pub query_index: usize,
    /// The scratch slot the first visit parked this query's candidate
    /// state under.
    pub slot: usize,
    /// Resolved variable values per fragment at the target site.
    pub fragments: BTreeMap<FragmentId, Vec<(PaxVar, bool)>>,
}

/// Request of the batched answer-collection stage — one message per site,
/// carrying every query's resolved variable values: the batch's single
/// second (and final) visit to each site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCollectRequest {
    /// Per-query payloads, in batch order.
    pub entries: Vec<BatchCollectEntry>,
}

/// One query's slice of a batched answer-collection response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCollectQueryResponse {
    /// Position of this query in the batch.
    pub query_index: usize,
    /// The query's answer nodes stored at this site.
    pub answers: Vec<AnswerItem>,
}

/// Response of the batched answer-collection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCollectResponse {
    /// Per-query results, in batch order.
    pub per_query: Vec<BatchCollectQueryResponse>,
}

/// Site-side task of the batched answer-collection stage.
pub fn batch_collect_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: BatchCollectRequest,
) -> BatchCollectResponse {
    let mut per_query: Vec<BatchCollectQueryResponse> = request
        .entries
        .iter()
        .map(|entry| BatchCollectQueryResponse {
            query_index: entry.query_index,
            answers: Vec::new(),
        })
        .collect();

    let needed: BTreeSet<FragmentId> =
        request.entries.iter().flat_map(|entry| entry.fragments.keys().copied()).collect();

    for fragment_id in needed {
        let fragment = snapshot(site, fragment_id, epoch);
        for (entry, out) in request.entries.iter().zip(&mut per_query) {
            let Some(values) = entry.fragments.get(&fragment_id) else { continue };
            collect_on_fragment(site, &fragment, epoch, entry.slot, values, &mut out.answers);
        }
    }
    BatchCollectResponse { per_query }
}

// ---------------------------------------------------------------------------
// Re-fragmentation: installing a new topology's fragment payloads.
// ---------------------------------------------------------------------------

/// Request of a re-fragmentation round (`MsgRefrag`): the fragment payloads
/// the target site must hold under the *next* epoch's topology. The round
/// ships **installs only** — it never deletes anything — so it is idempotent
/// and a partially-delivered round (a site dying mid-transfer) leaves at
/// worst orphan versions at the epoch that was never published, which a
/// retried build simply overwrites. Space held by fragments that migrated
/// *away* is reclaimed later by a vacuum sweep, which keeps only what the
/// live epochs place at the site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MsgRefrag {
    /// Fragments to install as the envelope epoch's snapshot at this site,
    /// in any order.
    pub installs: Vec<Fragment>,
}

/// What a re-fragmentation round did at one site.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RefragOutcome {
    /// The fragments installed, in request order.
    pub installed: Vec<FragmentId>,
    /// Why each fragment that failed [`Fragment::check`] was not
    /// installed, in request order.
    pub rejected: Vec<FragmentError>,
}

/// Site-side task of a re-fragmentation round: install each shipped
/// fragment that passes [`Fragment::check`] as the envelope epoch's
/// snapshot, and reject the others. Installation is copy-on-write against
/// the version lists — readers pinned to older epochs are untouched, and
/// re-installing the same fragment at the same epoch replaces the earlier
/// attempt in place.
pub fn refrag_task(site: &mut SiteLocal, epoch: u64, request: MsgRefrag) -> RefragOutcome {
    let mut outcome = RefragOutcome {
        installed: Vec::with_capacity(request.installs.len()),
        rejected: Vec::new(),
    };
    for fragment in request.installs {
        // Receiving and storing a fragment costs its shipped size, the same
        // meter the naive baseline's Fetch uses for the reverse direction.
        site.charge_ops(paxml_distsim::encoded_size(&fragment));
        if let Err(err) = fragment.check() {
            outcome.rejected.push(err);
            continue;
        }
        outcome.installed.push(fragment.id);
        site.install_version(epoch, fragment);
    }
    outcome
}

/// Payload of an explicit vacuum sweep: besides the envelope's retirement
/// watermark (versions below it are dropped at every site), the coordinator
/// names the fragments some live epoch's topology places at the target
/// site. The site removes the version lists of every *other* fragment it
/// holds entirely — copies that migrated away or were merged out of
/// existence, which no pinned execution can still be routed to.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MsgVacuum {
    /// Fragments to keep at this site; everything else is purged.
    pub keep: Vec<FragmentId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_distsim::SiteId;
    use paxml_fragment::{fragment_at, Fragment};
    use paxml_xml::TreeBuilder;
    use paxml_xpath::compile_text;

    fn one_site_with(fragments: Vec<Fragment>) -> SiteLocal {
        let mut site = SiteLocal::new(SiteId(0));
        for f in fragments {
            site.add_fragment(f);
        }
        site
    }

    fn small_fragmented() -> (paxml_xml::XmlTree, paxml_fragment::FragmentedTree) {
        let tree = TreeBuilder::new("clientele")
            .open("client")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .close()
            .close()
            .build();
        let broker = tree.find_first("broker").unwrap();
        let fragmented = fragment_at(&tree, &[broker]).unwrap();
        (tree, fragmented)
    }

    #[test]
    fn a_refrag_install_that_fails_its_check_is_rejected() {
        let (_, fragmented) = small_fragmented();
        let mut site = SiteLocal::new(SiteId(0));
        let good = fragmented.fragments[1].clone();
        let mut short = fragmented.fragments[0].clone();
        short.origin.pop();
        let outcome = refrag_task(&mut site, 1, MsgRefrag { installs: vec![short, good] });
        assert_eq!(outcome.installed, vec![FragmentId(1)]);
        assert!(
            matches!(&outcome.rejected[..], [FragmentError::Malformed { fragment: 0, .. }]),
            "{:?}",
            outcome.rejected
        );
        assert!(site.fragment_at(FragmentId(0), 1).is_none(), "the short fragment installed");
        assert!(site.fragment_at(FragmentId(1), 1).is_some());
    }

    #[test]
    fn qualifier_task_stores_scratch_and_returns_roots() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let query = compile_text("client[country/text()='US']/broker/name").unwrap();
        let response = qualifier_task(
            &mut site,
            0,
            QualRequest {
                slot: SINGLE_QUERY_SLOT,
                query,
                fragments: vec![FragmentId(0), FragmentId(1)],
                park: vec![FragmentId(0), FragmentId(1)],
            },
        );
        assert_eq!(response.roots.len(), 2);
        assert_eq!(site.scratch_len(), 2, "both fragments park their qualifier sweep");
        assert!(site.ops() > 0);
        // The leaf fragment F1 has no virtual nodes, so its root vectors are
        // already fully resolved — and therefore ship as packed bits.
        assert!(response.roots[&FragmentId(1)].qv.is_fully_resolved());
        assert!(response.roots[&FragmentId(1)].qdv.is_fully_resolved());
        assert!(matches!(response.roots[&FragmentId(1)].qv, CompactVector::Bits(_)));
        assert!(matches!(response.roots[&FragmentId(1)].qdv, CompactVector::Bits(_)));
    }

    #[test]
    fn selection_task_with_exact_init_returns_answers_immediately() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let query = compile_text("client/broker/name").unwrap();
        let mut fragments = BTreeMap::new();
        fragments.insert(
            FragmentId(1),
            SelFragmentInput {
                qual_values: vec![],
                // The broker fragment's parent (a client under the root) is
                // matched by prefix 1.
                init: InitVector::Exact(BitVector::from_bools(&[false, true, false, false])),
                root_is_context: false,
                collect_answers_now: true,
            },
        );
        let response =
            selection_task(&mut site, 0, SelRequest { slot: SINGLE_QUERY_SLOT, query, fragments });
        assert_eq!(response.answers.len(), 1);
        assert_eq!(response.answers[0].text, Some("E*trade".to_string()));
        assert!(response.virtuals.is_empty());
    }

    #[test]
    fn selection_then_collect_resolves_candidates() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let query = compile_text("client/broker/name").unwrap();
        let mut fragments = BTreeMap::new();
        fragments.insert(
            FragmentId(1),
            SelFragmentInput {
                qual_values: vec![],
                init: InitVector::Unknown,
                root_is_context: false,
                collect_answers_now: false,
            },
        );
        let response =
            selection_task(&mut site, 0, SelRequest { slot: SINGLE_QUERY_SLOT, query, fragments });
        assert!(response.answers.is_empty());
        // The name node became a candidate; resolve its z-variable to true.
        let mut values = BTreeMap::new();
        values
            .insert(FragmentId(1), vec![(PaxVar::Sel { fragment: FragmentId(1), entry: 1 }, true)]);
        let collected = collect_task(
            &mut site,
            0,
            CollectRequest { slot: SINGLE_QUERY_SLOT, fragments: values },
        );
        assert_eq!(collected.answers.len(), 1);
        assert_eq!(collected.answers[0].label, "name");
    }

    /// A one-entry shipping round over F1: `ops` applied to it, then one
    /// pass from an unknown ancestor summary.
    fn ship_f1(site: &mut SiteLocal, epoch: u64, ops: Vec<UpdateOp>) -> MultiCombinedResponse {
        let input = CombinedFragmentInput {
            init: InitVector::Unknown,
            root_is_context: false,
            collect_answers_now: false,
        };
        let request = MultiCombinedRequest {
            park: None,
            ops: BTreeMap::from([(FragmentId(1), ops)]),
            entries: vec![(
                compile_text("client/broker/name").unwrap(),
                BTreeMap::from([(FragmentId(1), input)]),
            )],
        };
        multi_combined_task(site, epoch, request)
    }

    #[test]
    fn a_shipping_round_applies_ops_and_returns_fresh_state() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        // Edit the broker's name (F1) and re-evaluate it in the same visit.
        let f1 = &fragmented.fragments[1];
        let name = f1.tree.find_first("name").unwrap();
        let text = f1.tree.children(name).next().unwrap();
        let op = UpdateOp::EditText { node: text, text: "Bache".into() };
        let mut response = ship_f1(&mut site, 1, vec![op]);
        assert_eq!(response.ops[&FragmentId(1)], OpOutcome { applied: 1, rejected: None });
        let entry = response.entries.remove(0);
        assert!(entry.roots.contains_key(&FragmentId(1)));
        // The unknown-init pass yields the name node as a candidate carrying
        // the *edited* text and a residual formula over F1's Sel variables;
        // nothing is parked.
        assert_eq!(entry.candidates.len(), 1);
        assert_eq!(entry.candidates[0].item.text, Some("Bache".to_string()));
        assert!(entry.candidates[0].formula.has_variables());
        assert_eq!(site.scratch_len(), 0);
        // Epoch 1's snapshot carries the edit; epoch 0's is untouched, so a
        // reader still pinned to the pre-update epoch sees the old text.
        let at_1 = site.fragment_at(FragmentId(1), 1).unwrap();
        assert_eq!(at_1.tree.text_of(name), Some("Bache".to_string()));
        let at_0 = site.fragment_at(FragmentId(1), 0).unwrap();
        assert_eq!(at_0.tree.text_of(name), Some("E*trade".to_string()));
        assert_eq!(site.version_count(), 3, "two fragments plus one fresh version");
    }

    #[test]
    fn a_rejected_op_is_reported_and_the_entries_still_run() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let root = fragmented.fragments[1].tree.root();
        let response = ship_f1(&mut site, 1, vec![UpdateOp::DeleteSubtree { node: root }]);
        let outcome = &response.ops[&FragmentId(1)];
        assert_eq!(outcome.applied, 0);
        assert!(outcome.rejected.as_ref().unwrap().contains("root"));
        // Vectors are refreshed regardless, so coordinator caches stay valid.
        assert!(response.entries[0].roots.contains_key(&FragmentId(1)));
    }

    #[test]
    fn an_update_allocates_its_new_version_at_its_final_size() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let f1 = &fragmented.fragments[1];
        let insert = |name: &str| UpdateOp::InsertSubtree {
            parent: f1.tree.root(),
            subtree: TreeBuilder::new("name").text(name).build(),
            origin_base: 100,
        };
        let text = f1.tree.children(f1.tree.find_first("name").unwrap()).next().unwrap();
        let edit = UpdateOp::EditText { node: text, text: "Bache".into() };
        let response = ship_f1(&mut site, 1, vec![insert("Ally"), edit, insert("Schwab")]);
        assert_eq!(response.ops[&FragmentId(1)], OpOutcome { applied: 3, rejected: None });
        // Three nodes plus two inserted subtrees of two: a copy grown by
        // pushing would hold room for twelve.
        let at_1 = site.fragment_at(FragmentId(1), 1).unwrap();
        assert_eq!(at_1.tree.node_count(), 7);
        assert_eq!(at_1.tree.capacity(), at_1.tree.node_count());
        assert_eq!(at_1.origin.capacity(), at_1.origin.len());
    }

    #[test]
    fn a_parking_visit_parks_entry_i_under_base_plus_i() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let input = || CombinedFragmentInput {
            init: InitVector::Unknown,
            root_is_context: false,
            collect_answers_now: false,
        };
        let entry =
            |text| (compile_text(text).unwrap(), BTreeMap::from([(FragmentId(1), input())]));
        let request = MultiCombinedRequest {
            park: Some(7),
            ops: BTreeMap::new(),
            entries: vec![entry("client/broker/name"), entry("//name")],
        };
        let response = multi_combined_task(&mut site, 0, request);
        assert!(response.ops.is_empty());
        assert!(response.entries.iter().all(|e| e.answers.is_empty() && e.candidates.is_empty()));
        assert_eq!(site.scratch_len(), 2);
        // Collecting slot 8 takes back entry 1's parked answers, and only
        // those.
        let values = BTreeMap::from([(FragmentId(1), vec![])]);
        collect_task(&mut site, 0, CollectRequest { slot: 8, fragments: values });
        assert_eq!(site.scratch_len(), 1, "slot 7 is still parked");
    }

    #[test]
    fn combined_task_returns_roots_virtuals_and_stores_candidates() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let query = compile_text("client[country/text()='US']/broker/name").unwrap();
        let mut fragments = BTreeMap::new();
        fragments.insert(
            FragmentId(0),
            CombinedFragmentInput {
                init: InitVector::Exact(BitVector::all_false(query.init_len())),
                root_is_context: true,
                collect_answers_now: false,
            },
        );
        fragments.insert(
            FragmentId(1),
            CombinedFragmentInput {
                init: InitVector::Unknown,
                root_is_context: false,
                collect_answers_now: false,
            },
        );
        let response = combined_task(
            &mut site,
            0,
            CombinedRequest { slot: SINGLE_QUERY_SLOT, query, fragments },
        );
        assert_eq!(response.roots.len(), 2);
        // The root fragment records an ancestor summary for its virtual node F1.
        assert!(response.virtuals.contains_key(&FragmentId(1)));
    }
}
