//! The coordinator ↔ site protocol: message types and the site-side tasks.
//!
//! Every request/response type here derives `Serialize` so the simulator can
//! charge its exact byte size to the network. The site-side task functions
//! operate on a [`SiteLocal`]'s fragments and scratch state; they are shared
//! between PaX3 and PaX2. The algorithms in [`crate::pax2`]/[`crate::pax3`]
//! drive them through [`ExecCtx::round`](crate::ExecCtx::round); they can also be
//! exercised directly against a hand-built site:
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

use crate::report::{answer_item, AnswerItem};
use crate::unify::{assignment_from_pairs, fresh_qual_vectors, fresh_selection_vector};
use crate::vars::PaxVar;
use paxml_boolex::{BitVector, BoolExpr, CompactVector};
use paxml_distsim::SiteLocal;
use paxml_fragment::{Fragment, FragmentId, UpdateOp};
use paxml_xml::NodeId;
use paxml_xpath::eval::{
    combined_pass, qualifier_pass, selection_pass, CombinedPassOutput, QualVectors,
};
use paxml_xpath::{CompiledQuery, QEntryId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scratch keys used to keep per-fragment state between visits. The `slot`
/// keeps concurrent executions (and the queries of a batch) apart: every
/// request that parks state site-side carries the slot its execution drew
/// from [`Deployment::allocate_slots`](crate::Deployment::allocate_slots), so two executions
/// interleaving their visits to one site never read each other's candidate
/// sets. The epoch prefix namespaces the slots per deployment epoch, so
/// state parked against one epoch's snapshots can never be resolved against
/// another's (an execution pins one epoch for all its visits, so it always
/// takes back what it parked).
fn qv_key(epoch: u64, slot: usize, f: FragmentId) -> String {
    format!("e{epoch}:qv:{slot}:{}", f.0)
}
fn ans_key(epoch: u64, slot: usize, f: FragmentId) -> String {
    format!("e{epoch}:ans:{slot}:{}", f.0)
}
fn cans_key(epoch: u64, slot: usize, f: FragmentId) -> String {
    format!("e{epoch}:cans:{slot}:{}", f.0)
}

/// A default scratch slot for driving the site tasks directly against a
/// hand-built [`SiteLocal`] (tests, doctests). Real executions draw a
/// unique slot from the cluster instead — sharing this constant between
/// concurrent executions would mix their candidate state.
pub const SINGLE_QUERY_SLOT: usize = 0;

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
    /// The execution's scratch slot (where the per-node `QV` vectors are
    /// parked for the selection visit).
    pub slot: usize,
    /// The compiled query (sent to every site — the `O(|Q|·|FT|)` part of
    /// the communication bound).
    pub query: CompiledQuery,
    /// The fragments (stored at the target site) to evaluate.
    pub fragments: Vec<FragmentId>,
    /// The subset of `fragments` whose per-node vectors a later selection
    /// visit will consume (the annotation-relevant ones). Every fragment
    /// still contributes its root vectors, but only these park state in
    /// the site's scratch — parking for a fragment the selection stage
    /// prunes would leak the entry, since per-execution slots are never
    /// reused.
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

/// Site-side task of the qualifier stage: one bottom-up pass per fragment,
/// storing the per-node `QV` vectors locally for the next visit. The pass
/// reads the fragment snapshot of the visit's pinned `epoch` (an `Arc`
/// handle — fragment data is never copied).
pub fn qualifier_task(site: &mut SiteLocal, epoch: u64, request: QualRequest) -> QualResponse {
    let mut roots = BTreeMap::new();
    for fragment_id in &request.fragments {
        let Some(fragment) = site.fragment_at(*fragment_id, epoch) else { continue };
        let qlen = request.query.qvect_len();
        let out = qualifier_pass::<PaxVar>(
            &fragment.tree,
            fragment.tree.root(),
            &request.query,
            |vnode| {
                let child = fragment
                    .tree
                    .kind(vnode)
                    .virtual_fragment()
                    .map(FragmentId)
                    .expect("virtual nodes always carry their fragment id");
                fresh_qual_vectors(child, qlen)
            },
        );
        site.charge_ops(out.ops);
        roots.insert(*fragment_id, out.root.clone());
        if request.park.contains(fragment_id) {
            site.put_scratch(qv_key(epoch, request.slot, *fragment_id), out.node_qv);
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

/// Site-side task of the selection stage (PaX3 Stage 2).
pub fn selection_task(site: &mut SiteLocal, epoch: u64, request: SelRequest) -> SelResponse {
    let query = &request.query;
    let mut virtuals = BTreeMap::new();
    let mut answers = Vec::new();
    for (fragment_id, input) in &request.fragments {
        let Some(fragment) = site.fragment_at(*fragment_id, epoch) else { continue };
        let init = build_init(*fragment_id, &input.init, query.init_len());
        let context = if input.root_is_context { Some(fragment.tree.root()) } else { None };
        let qual_assignment = assignment_from_pairs(&input.qual_values);
        let stored_qv = site.take_scratch::<Vec<Option<CompactVector<PaxVar>>>>(&qv_key(
            epoch,
            request.slot,
            *fragment_id,
        ));
        let mut qual_value = |v: NodeId, e: QEntryId| -> BoolExpr<PaxVar> {
            match &stored_qv {
                Some(qv) => qv[v.index()]
                    .as_ref()
                    .map(|vec| vec.expr(e).assign(&qual_assignment))
                    .unwrap_or_else(|| BoolExpr::constant(false)),
                None => BoolExpr::constant(false),
            }
        };
        let out = selection_pass::<PaxVar>(
            &fragment.tree,
            fragment.tree.root(),
            query,
            init,
            context,
            &mut qual_value,
        );
        site.charge_ops(out.ops);

        for (vnode, vector) in out.virtual_vectors {
            let child = fragment
                .tree
                .kind(vnode)
                .virtual_fragment()
                .map(FragmentId)
                .expect("virtual nodes carry their fragment id");
            virtuals.insert(child, vector);
        }

        if input.collect_answers_now {
            debug_assert!(out.candidates.is_empty(), "exact init vectors never produce candidates");
            for node in &out.answers {
                answers.push(answer_item(
                    *fragment_id,
                    &fragment.tree,
                    *node,
                    fragment.origin_of(*node),
                ));
            }
        } else {
            site.put_scratch(ans_key(epoch, request.slot, *fragment_id), out.answers);
            site.put_scratch(cans_key(epoch, request.slot, *fragment_id), out.candidates);
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

/// The sub-fragment a virtual node of `fragment` stands for.
fn virtual_child(fragment: &Fragment, vnode: NodeId) -> FragmentId {
    fragment
        .tree
        .kind(vnode)
        .virtual_fragment()
        .map(FragmentId)
        .expect("virtual nodes carry their fragment id")
}

/// Run PaX2's visit kernel (`combined_pass`: qualifier sweep, then selection
/// sweep) for one query over one fragment (already taken out of the site's
/// map), charge its operations, and
/// deposit the root vectors and virtual-node summaries into the caller's
/// accumulators. The raw pass output (sure answers + candidate formulas) is
/// returned for the caller to route — into site scratch for the two-visit
/// protocol, or over the wire for the incremental one. This is the single
/// place the pass is configured (virtual-node vectors), shared by every
/// combined-stage task.
fn fused_pass_on_fragment(
    site: &mut SiteLocal,
    fragment: &Fragment,
    query: &CompiledQuery,
    init: &InitVector,
    root_is_context: bool,
    roots: &mut BTreeMap<FragmentId, QualVectors<PaxVar>>,
    virtuals: &mut BTreeMap<FragmentId, CompactVector<PaxVar>>,
) -> CombinedPassOutput<PaxVar> {
    let fid = fragment.id;
    let qlen = query.qvect_len();
    let init = build_init(fid, init, query.init_len());
    let context = if root_is_context { Some(fragment.tree.root()) } else { None };
    let mut out = combined_pass::<PaxVar>(
        &fragment.tree,
        fragment.tree.root(),
        query,
        init,
        context,
        |vnode| fresh_qual_vectors(virtual_child(fragment, vnode), qlen),
        |_, _| unreachable!("the kernel mints no placeholder"),
    );
    site.charge_ops(out.ops);
    roots.insert(fid, out.root.clone());
    for (vnode, vector) in std::mem::take(&mut out.virtual_vectors) {
        virtuals.insert(virtual_child(fragment, vnode), vector);
    }
    out
}

/// [`fused_pass_on_fragment`] with the answer routing of the two-visit
/// protocol: certain answers are either returned immediately or parked —
/// with the candidate sets — in the site's scratch under the query `slot`
/// for the collection visit. Shared between the single-query
/// [`combined_task`] and the batched [`batch_combined_task`].
#[allow(clippy::too_many_arguments)]
fn combined_pass_on_fragment(
    site: &mut SiteLocal,
    fragment: &Fragment,
    epoch: u64,
    slot: usize,
    query: &CompiledQuery,
    input: &CombinedFragmentInput,
    roots: &mut BTreeMap<FragmentId, QualVectors<PaxVar>>,
    virtuals: &mut BTreeMap<FragmentId, CompactVector<PaxVar>>,
    answers: &mut Vec<AnswerItem>,
) {
    let fid = fragment.id;
    let out = fused_pass_on_fragment(
        site,
        fragment,
        query,
        &input.init,
        input.root_is_context,
        roots,
        virtuals,
    );

    if input.collect_answers_now {
        debug_assert!(out.candidates.is_empty());
        for node in &out.answers {
            answers.push(answer_item(fid, &fragment.tree, *node, fragment.origin_of(*node)));
        }
    } else {
        site.put_scratch(ans_key(epoch, slot, fid), out.answers);
        site.put_scratch(cans_key(epoch, slot, fid), out.candidates);
    }
}

/// Site-side task of PaX2's combined stage: one kernel visit per fragment,
/// over the snapshots of the visit's pinned `epoch`.
pub fn combined_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: CombinedRequest,
) -> CombinedResponse {
    let query = &request.query;
    let mut roots = BTreeMap::new();
    let mut virtuals = BTreeMap::new();
    let mut answers = Vec::new();
    for (fragment_id, input) in &request.fragments {
        let Some(fragment) = site.fragment_at(*fragment_id, epoch) else { continue };
        combined_pass_on_fragment(
            site,
            &fragment,
            epoch,
            request.slot,
            query,
            input,
            &mut roots,
            &mut virtuals,
            &mut answers,
        );
    }
    CombinedResponse { roots, virtuals, answers }
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

/// Resolve one fragment's stored answer candidates for one query slot
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
    let sure: Vec<NodeId> =
        site.take_scratch::<Vec<NodeId>>(&ans_key(epoch, slot, fid)).unwrap_or_default();
    let candidates: Vec<(NodeId, BoolExpr<PaxVar>)> = site
        .take_scratch::<Vec<(NodeId, BoolExpr<PaxVar>)>>(&cans_key(epoch, slot, fid))
        .unwrap_or_default();
    site.charge_ops(candidates.len() as u64 + sure.len() as u64);
    for node in sure {
        answers.push(answer_item(fid, &fragment.tree, node, fragment.origin_of(node)));
    }
    for (node, formula) in candidates {
        if formula.eval_with(&|v| assignment.get(v)) == Some(true) {
            answers.push(answer_item(fid, &fragment.tree, node, fragment.origin_of(node)));
        }
    }
}

/// Site-side task of the answer-collection stage (Procedure `collectAns`).
pub fn collect_task(site: &mut SiteLocal, epoch: u64, request: CollectRequest) -> CollectResponse {
    let mut answers = Vec::new();
    for (fragment_id, values) in &request.fragments {
        let Some(fragment) = site.fragment_at(*fragment_id, epoch) else { continue };
        collect_on_fragment(site, &fragment, epoch, request.slot, values, &mut answers);
    }
    CollectResponse { answers }
}

// ---------------------------------------------------------------------------
// Batched evaluation: one visit carries every query's payload.
// ---------------------------------------------------------------------------

/// One query's slice of a batched combined-stage request. `query_index` is
/// the query's position in the batch (used to route the response slices);
/// `slot` is the scratch slot keeping this query's candidate sets apart
/// between the two visits — unique per execution *and* per query, so
/// concurrent batches never mix state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCombinedEntry {
    /// Position of this query in the batch.
    pub query_index: usize,
    /// The scratch slot of this query's candidate state.
    pub slot: usize,
    /// The compiled query.
    pub query: CompiledQuery,
    /// Inputs for the fragments (stored at the target site) this query
    /// evaluates — possibly a different set per query when the annotation
    /// optimization prunes differently.
    pub fragments: BTreeMap<FragmentId, CombinedFragmentInput>,
}

/// Request of the batched combined stage: the merged payloads of every
/// query in the batch with work at the target site. One such message per
/// site per batch — the whole batch costs each site a single first visit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCombinedRequest {
    /// Per-query payloads, in batch order.
    pub entries: Vec<BatchCombinedEntry>,
}

/// One query's slice of a batched combined-stage response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCombinedQueryResponse {
    /// Position of this query in the batch.
    pub query_index: usize,
    /// Root `QV`/`QDV` vectors per evaluated fragment.
    pub roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
    /// Ancestor summaries recorded at the virtual nodes.
    pub virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// Answers returned early (exact init and no qualifiers).
    pub answers: Vec<AnswerItem>,
}

/// Response of the batched combined stage: per-query residual vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCombinedResponse {
    /// Per-query results, in batch order.
    pub per_query: Vec<BatchCombinedQueryResponse>,
}

/// Site-side task of the batched combined stage.
///
/// The loop is *fragment-major*: each stored fragment is taken out of the
/// site map once and every query of the batch runs its combined pass over
/// it before the fragment is put back — the site does its tree passes per
/// fragment in one visit and emits per-query residual vectors, instead of
/// being visited once per query.
pub fn batch_combined_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: BatchCombinedRequest,
) -> BatchCombinedResponse {
    let mut per_query: Vec<BatchCombinedQueryResponse> = request
        .entries
        .iter()
        .map(|entry| BatchCombinedQueryResponse {
            query_index: entry.query_index,
            roots: BTreeMap::new(),
            virtuals: BTreeMap::new(),
            answers: Vec::new(),
        })
        .collect();

    // The union of fragments any query needs at this site.
    let needed: std::collections::BTreeSet<FragmentId> =
        request.entries.iter().flat_map(|entry| entry.fragments.keys().copied()).collect();

    for fragment_id in needed {
        let Some(fragment) = site.fragment_at(fragment_id, epoch) else { continue };
        for (position, entry) in request.entries.iter().enumerate() {
            let Some(input) = entry.fragments.get(&fragment_id) else { continue };
            let response = &mut per_query[position];
            combined_pass_on_fragment(
                site,
                &fragment,
                epoch,
                entry.slot,
                &entry.query,
                input,
                &mut response.roots,
                &mut response.virtuals,
                &mut response.answers,
            );
        }
    }
    BatchCombinedResponse { per_query }
}

/// One query's slice of a batched answer-collection request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCollectEntry {
    /// Position of this query in the batch.
    pub query_index: usize,
    /// The scratch slot the combined visit parked this query's candidate
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

    let needed: std::collections::BTreeSet<FragmentId> =
        request.entries.iter().flat_map(|entry| entry.fragments.keys().copied()).collect();

    for fragment_id in needed {
        let Some(fragment) = site.fragment_at(fragment_id, epoch) else { continue };
        for (position, entry) in request.entries.iter().enumerate() {
            let Some(values) = entry.fragments.get(&fragment_id) else { continue };
            collect_on_fragment(
                site,
                &fragment,
                epoch,
                entry.slot,
                values,
                &mut per_query[position].answers,
            );
        }
    }
    BatchCollectResponse { per_query }
}

// ---------------------------------------------------------------------------
// Incremental evaluation: what a session round ships back.
// ---------------------------------------------------------------------------

/// The recomputed residual vectors of an update round (`MsgDeltaVect`):
/// exactly what the combined pass of PaX2 would have produced for the dirty
/// fragments, and nothing for clean ones.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MsgDeltaVect {
    /// Root `QV`/`QDV` vectors per recomputed fragment.
    pub roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
    /// Ancestor summaries recorded at the recomputed fragments' virtual
    /// nodes, keyed by the sub-fragment they stand for.
    pub virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
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

/// The per-fragment answer state of an update round (`MsgDeltaAnswer`).
/// Unlike the from-scratch protocol — where candidate formulas stay
/// site-side and a second visit resolves them — the incremental protocol
/// ships them to the coordinator's cache, so a later update to a *different*
/// fragment can flip this fragment's answers without any visit here.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MsgDeltaAnswer {
    /// Unconditional answers per recomputed fragment.
    pub sure: BTreeMap<FragmentId, Vec<AnswerItem>>,
    /// Conditional answers (with residual formulas) per recomputed fragment.
    pub candidates: BTreeMap<FragmentId, Vec<CandidateAnswer>>,
}

/// [`fused_pass_on_fragment`] with the answer routing of the incremental
/// protocol: *everything* the coordinator's cache needs — root vectors,
/// virtual-node summaries, sure answers, and candidate answers with their
/// formulas — goes into the response.
fn snapshot_fragment(
    site: &mut SiteLocal,
    fragment: &Fragment,
    query: &CompiledQuery,
    init: &InitVector,
    root_is_context: bool,
    vect: &mut MsgDeltaVect,
    answer: &mut MsgDeltaAnswer,
) {
    let fid = fragment.id;
    let out = fused_pass_on_fragment(
        site,
        fragment,
        query,
        init,
        root_is_context,
        &mut vect.roots,
        &mut vect.virtuals,
    );
    let sure: Vec<AnswerItem> = out
        .answers
        .iter()
        .map(|&node| answer_item(fid, &fragment.tree, node, fragment.origin_of(node)))
        .collect();
    let candidates: Vec<CandidateAnswer> = out
        .candidates
        .into_iter()
        .map(|(node, formula)| CandidateAnswer {
            item: answer_item(fid, &fragment.tree, node, fragment.origin_of(node)),
            formula,
        })
        .collect();
    answer.sure.insert(fid, sure);
    answer.candidates.insert(fid, candidates);
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
/// *away* is reclaimed later by a vacuum sweep's purge list.
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
}

/// Site-side task of a re-fragmentation round: install each shipped
/// fragment as the envelope epoch's snapshot. Installation is copy-on-write
/// against the version lists — readers pinned to older epochs are
/// untouched, and re-installing the same fragment at the same epoch
/// replaces the earlier attempt in place.
pub fn refrag_task(site: &mut SiteLocal, epoch: u64, request: MsgRefrag) -> RefragOutcome {
    let mut installed = Vec::with_capacity(request.installs.len());
    for fragment in request.installs {
        // Receiving and storing a fragment costs its shipped size, the same
        // meter the naive baseline's Fetch uses for the reverse direction.
        site.charge_ops(paxml_distsim::encoded_size(&fragment));
        installed.push(fragment.id);
        site.install_version(epoch, fragment);
    }
    RefragOutcome { installed }
}

/// Payload of an explicit vacuum sweep: besides the envelope's retirement
/// watermark (versions below it are dropped at every site), the coordinator
/// may name fragments whose version lists should be removed *entirely* at
/// the target site — fragments that migrated away or were merged out of
/// existence by an old re-fragmentation no pinned execution can still see.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MsgVacuum {
    /// Fragments to purge wholesale at this site.
    pub purge: Vec<FragmentId>,
}

// ---------------------------------------------------------------------------
// Server sessions: one update round maintaining many prepared queries.
// ---------------------------------------------------------------------------

/// How one prepared-query session wants one fragment's combined pass
/// (re-)initialised in a session round; the ops are not part of it — they
/// are shared across sessions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecomputeInput {
    /// How to initialise the ancestor summary of the re-evaluation pass.
    pub init: InitVector,
    /// Is this fragment's root the evaluation context?
    pub root_is_context: bool,
}

/// One prepared-query session's slice of a [`MsgSessionUpdate`]: which of
/// the dirty fragments at the target site this session needs fresh residual
/// vectors for (fragments the session's annotation analysis pruned are
/// simply absent — their data changes, their vectors don't matter).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRecompute {
    /// The session's position in the server's session table.
    pub session: usize,
    /// The session's compiled query.
    pub query: CompiledQuery,
    /// Recompute instructions per dirty fragment at the target site.
    pub fragments: BTreeMap<FragmentId, RecomputeInput>,
}

/// Request of a session round: the update ops for the fragments at the
/// target site (applied **once**, shared by all sessions) plus, per active
/// prepared-query session, the recompute instructions that refresh its
/// residual-vector cache in the *same visit* — this is how a `PaxServer`
/// keeps every prepared query's incremental cache current with one visit
/// per dirty site and zero visits elsewhere. A query's first (cold)
/// snapshot is the same message with no ops.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MsgSessionUpdate {
    /// Update ops per fragment at the target site, applied in order.
    pub ops: BTreeMap<FragmentId, Vec<UpdateOp>>,
    /// Per-session recompute instructions.
    pub sessions: Vec<SessionRecompute>,
}

/// One session's slice of a [`MsgSessionDelta`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionDelta {
    /// The session's position in the server's session table.
    pub session: usize,
    /// Recomputed residual vectors for the session's dirty fragments.
    pub vect: MsgDeltaVect,
    /// Recomputed answer state for the session's dirty fragments.
    pub answer: MsgDeltaAnswer,
}

/// Response of a server update round.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MsgSessionDelta {
    /// Update ops applied successfully, per fragment.
    pub applied: BTreeMap<FragmentId, usize>,
    /// Fragments whose op sequence was rejected (with the reason); their
    /// remaining ops were skipped but session vectors were still
    /// recomputed.
    pub rejected: BTreeMap<FragmentId, String>,
    /// Per-session recomputed state.
    pub sessions: Vec<SessionDelta>,
}

/// Site-side task of a session round: apply each fragment's ops once, then
/// re-run the combined pass per session over the fragments that session
/// asked for — one visit does all of it.
///
/// Epoch semantics: a fragment with ops is rebuilt copy-on-write from the
/// newest snapshot **strictly before** `epoch` (so a retried epoch build
/// never re-applies its ops on top of a failed attempt's orphan) and
/// installed as `epoch`'s snapshot; readers pinned below `epoch` are
/// untouched. The per-session recomputes then read **at** `epoch` and
/// therefore see the fresh snapshots. A round with no ops — a cold
/// snapshot — only reads at `epoch` and installs nothing.
pub fn session_update_task(
    site: &mut SiteLocal,
    epoch: u64,
    request: MsgSessionUpdate,
) -> MsgSessionDelta {
    let mut response = MsgSessionDelta::default();

    // Apply the ops once, independent of how many sessions watch.
    for (fragment_id, ops) in &request.ops {
        let Some(base) = site.update_base(*fragment_id, epoch) else { continue };
        let mut fragment = base.as_ref().clone();
        let mut applied = 0;
        for op in ops {
            match paxml_fragment::apply_update(&mut fragment, op) {
                Ok(_) => applied += 1,
                Err(e) => {
                    response.rejected.insert(*fragment_id, e.to_string());
                    break;
                }
            }
            site.charge_ops(1);
        }
        response.applied.insert(*fragment_id, applied);
        site.install_version(epoch, fragment);
    }

    // Refresh each session's residual vectors over the updated data.
    for entry in &request.sessions {
        let mut delta = SessionDelta {
            session: entry.session,
            vect: Default::default(),
            answer: Default::default(),
        };
        for (fragment_id, input) in &entry.fragments {
            let Some(fragment) = site.fragment_at(*fragment_id, epoch) else { continue };
            snapshot_fragment(
                site,
                &fragment,
                &entry.query,
                &input.init,
                input.root_is_context,
                &mut delta.vect,
                &mut delta.answer,
            );
        }
        response.sessions.push(delta);
    }
    response
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
        assert!(site.scratch::<Vec<Option<CompactVector<PaxVar>>>>("e0:qv:0:0").is_some());
        assert!(site.scratch::<Vec<Option<CompactVector<PaxVar>>>>("e0:qv:0:1").is_some());
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

    /// A one-session round over F1: `ops` applied to it, then one recompute
    /// from an unknown ancestor summary.
    fn session_update_on_f1(
        site: &mut SiteLocal,
        epoch: u64,
        ops: Vec<UpdateOp>,
    ) -> MsgSessionDelta {
        let recompute = RecomputeInput { init: InitVector::Unknown, root_is_context: false };
        let request = MsgSessionUpdate {
            ops: BTreeMap::from([(FragmentId(1), ops)]),
            sessions: vec![SessionRecompute {
                session: 0,
                query: compile_text("client/broker/name").unwrap(),
                fragments: BTreeMap::from([(FragmentId(1), recompute)]),
            }],
        };
        session_update_task(site, epoch, request)
    }

    #[test]
    fn session_update_task_applies_ops_and_returns_fresh_state() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        // Edit the broker's name (F1) and re-snapshot it in the same visit.
        let f1 = &fragmented.fragments[1];
        let name = f1.tree.find_first("name").unwrap();
        let text = f1.tree.children(name).next().unwrap();
        let op = UpdateOp::EditText { node: text, text: "Bache".into() };
        let mut delta = session_update_on_f1(&mut site, 1, vec![op]);
        assert_eq!(delta.applied[&FragmentId(1)], 1);
        assert!(delta.rejected.is_empty());
        let session = delta.sessions.remove(0);
        assert!(session.vect.roots.contains_key(&FragmentId(1)));
        // The unknown-init pass yields the name node as a candidate carrying
        // the *edited* text and a residual formula over F1's Sel variables.
        let candidates = &session.answer.candidates[&FragmentId(1)];
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].item.text, Some("Bache".to_string()));
        assert!(candidates[0].formula.has_variables());
        // Epoch 1's snapshot carries the edit; epoch 0's is untouched, so a
        // reader still pinned to the pre-update epoch sees the old text.
        let at_1 = site.fragment_at(FragmentId(1), 1).unwrap();
        assert_eq!(at_1.tree.text_of(name), Some("Bache".to_string()));
        let at_0 = site.fragment_at(FragmentId(1), 0).unwrap();
        assert_eq!(at_0.tree.text_of(name), Some("E*trade".to_string()));
        assert_eq!(site.version_count(), 3, "two fragments plus one fresh version");
    }

    #[test]
    fn session_update_task_rejects_invalid_ops_but_still_recomputes() {
        let (_, fragmented) = small_fragmented();
        let mut site = one_site_with(fragmented.fragments.clone());
        let root = fragmented.fragments[1].tree.root();
        let delta =
            session_update_on_f1(&mut site, 1, vec![UpdateOp::DeleteSubtree { node: root }]);
        assert_eq!(delta.applied[&FragmentId(1)], 0);
        assert!(delta.rejected[&FragmentId(1)].contains("root"));
        // Vectors are refreshed regardless, so coordinator caches stay valid.
        assert!(delta.sessions[0].vect.roots.contains_key(&FragmentId(1)));
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
