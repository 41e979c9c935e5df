//! The benchmark's re-enactment of an execution through the layer functions
//! the program itself calls: `xpath::compile_text` → `core::prune` → the
//! per-fragment `xpath::eval` passes → `wire::encode`/`decode` of the
//! protocol messages → `core::unify` → answer collection. Every step runs
//! inside a span; site-side steps carry the site they would have run on.
//! The answers that come out are compared with `xpath::centralized`, so the
//! time the spans show is the time of the real work.

use crate::rig::Origins;
use crate::spans::Tracer;
use crate::SITES;
use paxml_boolex::{BoolExpr, CompactVector};
use paxml_core::protocol::{
    CollectRequest, CollectResponse, CombinedFragmentInput, CombinedRequest, CombinedResponse,
    InitVector, QualRequest, QualResponse, SelFragmentInput, SelRequest, SelResponse,
};
use paxml_core::unify::{
    assignment_from_pairs, fresh_qual_vectors, fresh_selection_vector, unify_qualifiers,
    unify_selection, DenseAssignment,
};
use paxml_core::{
    analyze_with_trie, answer_item, AnnotationAnalysis, AnswerItem, EpochRequest, PathTrie, PaxVar,
    ProtocolRequest, ProtocolResponse,
};
use paxml_fragment::{Fragment, FragmentId, FragmentedTree};
use paxml_xml::NodeId;
use paxml_xpath::eval::{
    combined_pass, initial_vector, qualifier_pass, selection_pass, QualVectors,
};
use paxml_xpath::{compile_text, CompiledQuery};
use std::collections::BTreeMap;

/// `Placement::RoundRobin`.
pub fn site_of(fragment: FragmentId) -> u32 {
    (fragment.index() % SITES) as u32
}

/// Encode each message, then decode the frames again — the two halves of a
/// socket hop — and hand back the decoded messages, which the caller goes
/// on to use.
macro_rules! through_codec {
    ($t:expr, $ty:ty, $messages:expr) => {{
        let messages: Vec<$ty> = $messages;
        let frames: Vec<Vec<u8>> = $t.span("wire.encode", |t| {
            let frames: Vec<Vec<u8>> = messages.iter().map(paxml_wire::encode).collect();
            t.units(frames.iter().map(|f| f.len() as u64).sum());
            frames
        });
        $t.span("wire.decode", |t| {
            t.units(frames.iter().map(|f| f.len() as u64).sum());
            frames
                .iter()
                .map(|f| paxml_wire::decode::<$ty>(f).expect("a frame just encoded decodes"))
                .collect::<Vec<$ty>>()
        })
    }};
}

fn sub_fragment(fragment: &Fragment, vnode: NodeId) -> FragmentId {
    let id = fragment.tree.kind(vnode).virtual_fragment();
    FragmentId(id.expect("virtual nodes carry their fragment id"))
}

/// Compile and prune: what every execution starts with.
fn compile_and_prune(
    t: &mut Tracer,
    fragmented: &FragmentedTree,
    text: &str,
) -> (CompiledQuery, AnnotationAnalysis) {
    let root_label = &fragmented.root_fragment().root_label;
    let query = t.span("xpath.compile", |t| {
        t.units(1);
        compile_text(text).expect("benchmark queries compile")
    });
    let analysis = t.span("core.prune", |t| {
        t.units(1);
        analyze_with_trie(&query, &PathTrie::build(&fragmented.fragment_tree, root_label))
    });
    (query, analysis)
}

/// How a fragment's top-down pass starts, as the PaX drivers decide it.
fn init_for(fragment: FragmentId, analysis: &AnnotationAnalysis, root_init: &[bool]) -> InitVector {
    let exact = if fragment == FragmentId::ROOT {
        Some(root_init)
    } else {
        analysis.exact_init.get(&fragment).map(Vec::as_slice)
    };
    exact.map_or(InitVector::Unknown, |bools| {
        InitVector::Exact(paxml_boolex::BitVector::from_bools(bools))
    })
}

fn start_vector(fragment: FragmentId, init: &InitVector, len: usize) -> CompactVector<PaxVar> {
    match init {
        InitVector::Exact(bits) => {
            let mut padded = vec![false; len];
            for (slot, bit) in padded.iter_mut().zip(bits.iter()) {
                *slot = bit;
            }
            CompactVector::from_bools(&padded)
        }
        InitVector::Unknown => fresh_selection_vector(fragment, len),
    }
}

/// Answers that are certain after the pass (exact init, no open formula):
/// the site ships them at once.
fn certain_answers(t: &mut Tracer, fragment: &Fragment, nodes: &[NodeId]) -> Vec<AnswerItem> {
    t.span("core.collect", |t| {
        t.units(nodes.len() as u64);
        let item =
            |n: &NodeId| answer_item(fragment.id, &fragment.tree, *n, fragment.origin_of(*n));
        nodes.iter().map(item).collect()
    })
}

/// A fragment's answers awaiting the coordinator's truth values.
#[derive(Default)]
struct Parked {
    sure: Vec<NodeId>,
    candidates: Vec<(NodeId, BoolExpr<PaxVar>)>,
}

/// Resolve parked answers against the unified assignment, site by site,
/// shipping the collect messages through the codec.
fn collect(
    t: &mut Tracer,
    fragmented: &FragmentedTree,
    parked: &BTreeMap<FragmentId, Parked>,
    assignment: &DenseAssignment,
    with_sub_fragments: bool,
) -> Vec<AnswerItem> {
    let ft = &fragmented.fragment_tree;
    let mut requests: BTreeMap<u32, CollectRequest> = BTreeMap::new();
    for &fragment in parked.keys() {
        let subs = if with_sub_fragments { ft.children(fragment) } else { &[] };
        requests
            .entry(site_of(fragment))
            .or_insert_with(|| CollectRequest { slot: 0, fragments: BTreeMap::new() })
            .fragments
            .insert(fragment, assignment.restrict_for_fragment(fragment, subs));
    }
    let envelopes =
        requests.into_values().map(|r| EpochRequest::latest(ProtocolRequest::Collect(r))).collect();
    let mut responses = Vec::new();
    for envelope in through_codec!(t, EpochRequest, envelopes) {
        let ProtocolRequest::Collect(request) = envelope.body else { unreachable!() };
        let mut answers = Vec::new();
        for (fragment_id, values) in &request.fragments {
            let fragment = &fragmented.fragments[fragment_id.index()];
            t.site = Some(site_of(*fragment_id));
            t.span("core.collect", |t| {
                let held = &parked[fragment_id];
                t.units((held.sure.len() + held.candidates.len()) as u64);
                let env = assignment_from_pairs(values);
                let resolved = held.candidates.iter().filter_map(|(node, formula)| {
                    (formula.eval_with(&|v| env.get(v)) == Some(true)).then_some(*node)
                });
                for node in held.sure.iter().copied().chain(resolved) {
                    let origin = fragment.origin_of(node);
                    answers.push(answer_item(*fragment_id, &fragment.tree, node, origin));
                }
            });
            t.site = None;
        }
        responses.push(ProtocolResponse::Collect(CollectResponse { answers }));
    }
    through_codec!(t, ProtocolResponse, responses)
        .into_iter()
        .flat_map(|response| match response {
            ProtocolResponse::Collect(c) => c.answers,
            _ => unreachable!(),
        })
        .collect()
}

fn origins_of(mut answers: Vec<AnswerItem>) -> Origins {
    answers.sort();
    answers.dedup();
    answers.into_iter().map(|a| a.origin).collect()
}

/// The state PaX2 keeps for one query across executions: per fragment, the
/// outputs of the last combined pass. A one-shot execution is
/// [`Session::open`] + [`Session::run_fragments`] over every relevant
/// fragment + [`Session::resolve`]; an update re-runs only the dirty ones.
pub struct Session {
    query: CompiledQuery,
    analysis: AnnotationAnalysis,
    root_init: Vec<bool>,
    roots: BTreeMap<FragmentId, QualVectors<PaxVar>>,
    virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    parked: BTreeMap<FragmentId, Parked>,
    /// Answers certain after the combined pass (exact init, no qualifiers).
    early: BTreeMap<FragmentId, Vec<AnswerItem>>,
}

impl Session {
    pub fn open(t: &mut Tracer, fragmented: &FragmentedTree, text: &str) -> Session {
        let (query, analysis) = compile_and_prune(t, fragmented, text);
        let root_init = initial_vector(&query, &fragmented.root_fragment().root_label);
        Session {
            query,
            analysis,
            root_init,
            roots: BTreeMap::new(),
            virtuals: BTreeMap::new(),
            parked: BTreeMap::new(),
            early: BTreeMap::new(),
        }
    }

    /// The fragments the §5 analysis keeps for this query.
    pub fn relevant(&self) -> impl Iterator<Item = FragmentId> + '_ {
        self.analysis.relevant.iter().copied()
    }

    /// PaX2's first visit, for `fragments` (those not relevant are skipped):
    /// requests through the codec, one combined pass per fragment, responses
    /// through the codec, outputs absorbed into the session.
    pub fn run_fragments(
        &mut self,
        t: &mut Tracer,
        fragmented: &FragmentedTree,
        fragments: impl IntoIterator<Item = FragmentId>,
    ) {
        let query = &self.query;
        let mut requests: BTreeMap<u32, CombinedRequest> = BTreeMap::new();
        for fragment in fragments.into_iter().filter(|f| self.analysis.relevant.contains(f)) {
            let init = init_for(fragment, &self.analysis, &self.root_init);
            let collect_answers_now =
                matches!(init, InitVector::Exact(_)) && !query.has_qualifiers();
            let input = CombinedFragmentInput {
                init,
                root_is_context: fragment == FragmentId::ROOT && !query.absolute,
                collect_answers_now,
            };
            requests
                .entry(site_of(fragment))
                .or_insert_with(|| CombinedRequest {
                    slot: 0,
                    query: query.clone(),
                    fragments: BTreeMap::new(),
                })
                .fragments
                .insert(fragment, input);
        }
        let envelopes = requests
            .into_values()
            .map(|r| EpochRequest::latest(ProtocolRequest::Combined(r)))
            .collect();
        let mut responses = Vec::new();
        for envelope in through_codec!(t, EpochRequest, envelopes) {
            let ProtocolRequest::Combined(request) = envelope.body else { unreachable!() };
            let mut response = CombinedResponse {
                roots: BTreeMap::new(),
                virtuals: BTreeMap::new(),
                answers: Vec::new(),
            };
            for (&fid, input) in &request.fragments {
                let fragment = &fragmented.fragments[fid.index()];
                let tree = &fragment.tree;
                t.site = Some(site_of(fid));
                let out = t.span("xpath.combined_pass", |t| {
                    t.units(tree.node_count() as u64);
                    let qlen = request.query.qvect_len();
                    combined_pass::<PaxVar>(
                        tree,
                        tree.root(),
                        &request.query,
                        start_vector(fid, &input.init, request.query.init_len()),
                        input.root_is_context.then(|| tree.root()),
                        |vnode| fresh_qual_vectors(sub_fragment(fragment, vnode), qlen),
                        |node, entry| PaxVar::Local {
                            fragment: fid,
                            node: node.index() as u32,
                            entry: entry as u32,
                        },
                    )
                });
                response.roots.insert(fid, out.root);
                for (vnode, vector) in out.virtual_vectors {
                    response.virtuals.insert(sub_fragment(fragment, vnode), vector);
                }
                self.parked.remove(&fid);
                self.early.remove(&fid);
                if input.collect_answers_now {
                    response.answers.extend(certain_answers(t, fragment, &out.answers));
                } else {
                    let held = Parked { sure: out.answers, candidates: out.candidates };
                    self.parked.insert(fid, held);
                }
                t.site = None;
            }
            responses.push(ProtocolResponse::Combined(response));
        }
        for response in through_codec!(t, ProtocolResponse, responses) {
            let ProtocolResponse::Combined(response) = response else { unreachable!() };
            self.roots.extend(response.roots);
            self.virtuals.extend(response.virtuals);
            for item in response.answers {
                self.early.entry(item.fragment).or_default().push(item);
            }
        }
    }

    /// `evalFT` over the held vectors, then the collection visit.
    pub fn resolve(&self, t: &mut Tracer, fragmented: &FragmentedTree) -> Origins {
        let ft = &fragmented.fragment_tree;
        let assignment = t.span("core.unify", |t| {
            t.units(ft.len() as u64);
            let mut assignment = DenseAssignment::new(ft.len());
            if self.query.has_qualifiers() {
                unify_qualifiers(ft, &self.roots, self.query.qvect_len(), &mut assignment);
            }
            if !self.parked.is_empty() {
                unify_selection(ft, &self.virtuals, &self.root_init, &mut assignment);
            }
            assignment
        });
        let mut answers: Vec<AnswerItem> = self.early.values().flatten().cloned().collect();
        if !self.parked.is_empty() {
            answers.extend(collect(t, fragmented, &self.parked, &assignment, true));
        }
        origins_of(answers)
    }
}

/// A whole one-shot PaX2 execution of `text`, re-enacted.
pub fn pax2(t: &mut Tracer, fragmented: &FragmentedTree, text: &str) -> Origins {
    let mut session = Session::open(t, fragmented, text);
    let relevant: Vec<FragmentId> = session.relevant().collect();
    session.run_fragments(t, fragmented, relevant);
    session.resolve(t, fragmented)
}

/// A whole one-shot PaX3 execution of `text`, re-enacted: the qualifier
/// pass over every fragment, `evalFT` bottom-up, the selection pass over the
/// relevant fragments, `evalFT` top-down, collection.
pub fn pax3(t: &mut Tracer, fragmented: &FragmentedTree, text: &str) -> Origins {
    let (query, analysis) = compile_and_prune(t, fragmented, text);
    let ft = &fragmented.fragment_tree;
    let root_init = initial_vector(&query, &fragmented.root_fragment().root_label);
    let qlen = query.qvect_len();
    let mut assignment = DenseAssignment::new(ft.len());

    // Stage 1: qualifiers, on every fragment (pruning starts at stage 2).
    let mut node_qv: BTreeMap<FragmentId, Vec<Option<CompactVector<PaxVar>>>> = BTreeMap::new();
    if query.has_qualifiers() {
        let mut requests: BTreeMap<u32, QualRequest> = BTreeMap::new();
        for &fragment in ft.ids() {
            let request = requests.entry(site_of(fragment)).or_insert_with(|| QualRequest {
                slot: 0,
                query: query.clone(),
                fragments: Vec::new(),
                park: Vec::new(),
            });
            request.fragments.push(fragment);
            if analysis.relevant.contains(&fragment) {
                request.park.push(fragment);
            }
        }
        let envelopes = requests
            .into_values()
            .map(|r| EpochRequest::latest(ProtocolRequest::Qual(r)))
            .collect();
        let mut responses = Vec::new();
        for envelope in through_codec!(t, EpochRequest, envelopes) {
            let ProtocolRequest::Qual(request) = envelope.body else { unreachable!() };
            let mut roots = BTreeMap::new();
            for &fid in &request.fragments {
                let fragment = &fragmented.fragments[fid.index()];
                t.site = Some(site_of(fid));
                let out = t.span("xpath.qualifier_pass", |t| {
                    t.units(fragment.tree.node_count() as u64);
                    qualifier_pass::<PaxVar>(
                        &fragment.tree,
                        fragment.tree.root(),
                        &request.query,
                        |vnode| fresh_qual_vectors(sub_fragment(fragment, vnode), qlen),
                    )
                });
                t.site = None;
                roots.insert(fid, out.root);
                if request.park.contains(&fid) {
                    node_qv.insert(fid, out.node_qv);
                }
            }
            responses.push(ProtocolResponse::Qual(QualResponse { roots }));
        }
        let mut roots = BTreeMap::new();
        for response in through_codec!(t, ProtocolResponse, responses) {
            let ProtocolResponse::Qual(response) = response else { unreachable!() };
            roots.extend(response.roots);
        }
        t.span("core.unify", |t| {
            t.units(ft.len() as u64);
            unify_qualifiers(ft, &roots, qlen, &mut assignment);
        });
    }

    // Stage 2: selection, on the relevant fragments.
    let mut requests: BTreeMap<u32, SelRequest> = BTreeMap::new();
    for &fragment in &analysis.relevant {
        let init = init_for(fragment, &analysis, &root_init);
        let exact = matches!(init, InitVector::Exact(_));
        let qual_values = if query.has_qualifiers() {
            assignment.restrict_for_fragment(fragment, ft.children(fragment))
        } else {
            Vec::new()
        };
        let input = SelFragmentInput {
            qual_values,
            init,
            root_is_context: fragment == FragmentId::ROOT && !query.absolute,
            collect_answers_now: exact,
        };
        requests
            .entry(site_of(fragment))
            .or_insert_with(|| SelRequest {
                slot: 0,
                query: query.clone(),
                fragments: BTreeMap::new(),
            })
            .fragments
            .insert(fragment, input);
    }
    let envelopes =
        requests.into_values().map(|r| EpochRequest::latest(ProtocolRequest::Sel(r))).collect();
    let mut parked: BTreeMap<FragmentId, Parked> = BTreeMap::new();
    let mut responses = Vec::new();
    for envelope in through_codec!(t, EpochRequest, envelopes) {
        let ProtocolRequest::Sel(request) = envelope.body else { unreachable!() };
        let mut response = SelResponse { virtuals: BTreeMap::new(), answers: Vec::new() };
        for (&fid, input) in &request.fragments {
            let fragment = &fragmented.fragments[fid.index()];
            let tree = &fragment.tree;
            t.site = Some(site_of(fid));
            let out = t.span("xpath.selection_pass", |t| {
                t.units(tree.node_count() as u64);
                let env = assignment_from_pairs(&input.qual_values);
                let stored = node_qv.get(&fid);
                selection_pass::<PaxVar>(
                    tree,
                    tree.root(),
                    &request.query,
                    start_vector(fid, &input.init, request.query.init_len()),
                    input.root_is_context.then(|| tree.root()),
                    &mut |node: NodeId, entry| {
                        stored
                            .and_then(|qv| qv[node.index()].as_ref())
                            .map_or(BoolExpr::constant(false), |v| v.expr(entry).assign(&env))
                    },
                )
            });
            for (vnode, vector) in out.virtual_vectors {
                response.virtuals.insert(sub_fragment(fragment, vnode), vector);
            }
            if input.collect_answers_now {
                response.answers.extend(certain_answers(t, fragment, &out.answers));
            } else {
                parked.insert(fid, Parked { sure: out.answers, candidates: out.candidates });
            }
            t.site = None;
        }
        responses.push(ProtocolResponse::Sel(response));
    }
    let mut virtuals = BTreeMap::new();
    let mut answers = Vec::new();
    for response in through_codec!(t, ProtocolResponse, responses) {
        let ProtocolResponse::Sel(response) = response else { unreachable!() };
        virtuals.extend(response.virtuals);
        answers.extend(response.answers);
    }

    // Stage 3: collection, where candidates remain.
    if !parked.is_empty() {
        t.span("core.unify", |t| {
            t.units(ft.len() as u64);
            unify_selection(ft, &virtuals, &root_init, &mut assignment);
        });
        answers.extend(collect(t, fragmented, &parked, &assignment, false));
    }
    origins_of(answers)
}
