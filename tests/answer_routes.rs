//! The two routes a multi-query first visit's uncertain answers can take
//! must agree. `execute_batch` parks them site-side and resolves them in a
//! `BatchCollect` visit; a session round ships them, candidates with their
//! formulas, and the coordinator resolves them from its cache.
//!
//! Over random XMark documents cut FT2-style and random generated queries,
//! with and without the annotation optimization, one set of entries sent
//! both ways must yield the same answers, `fragments_evaluated` and
//! `coordinator_ops` per query, and the same first-visit operation count.
//! The parked route must also match the server's own `execute_batch`
//! report, and leave no scratch behind.

use paxml::boolex::BitVector;
use paxml::core::protocol::{
    BatchCollectEntry, BatchCollectRequest, CombinedFragmentInput, EntryResponse, InitVector,
    MultiCombinedRequest,
};
use paxml::core::unify::{unify_qualifiers, unify_selection, DenseAssignment};
use paxml::core::LATEST_EPOCH;
use paxml::core::{analyze_with_trie, AnnotationAnalysis, ExecCtx, ProtocolRequest, Topology};
use paxml::distsim::{Cluster, SiteId};
use paxml::prelude::*;
use paxml::xmark::{ft2, QueryGen, QueryGenConfig};
use paxml::xpath::eval::initial_vector;
use paxml::xpath::CompiledQuery;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const SITES: usize = 4;
/// XMark labels that nest in one another, and values the generator
/// writes, so generated queries often select something.
const LABELS: &[&str] = &[
    "site", "people", "person", "name", "address", "country", "item", "quantity", "location",
    "auction", "bidder", "increase",
];
const TEXTS: &[&str] = &["Germany", "Canada", "1", "5"];
const ATTRS: &[&str] = &["id", "category"];
/// Two fixed queries whose qualifiers leave candidates in every cut,
/// ahead of the generated ones.
const ANCHORS: &[&str] =
    &["//person[address/country = \"Germany\"]/name", "//item[quantity > 5]/name"];

/// One query as the PaX2 coordinator plans it: over the topology's trie,
/// which carries the fragments' label sets, when it has one.
struct Plan {
    query: CompiledQuery,
    analysis: AnnotationAnalysis,
    root_init: Vec<bool>,
}

impl Plan {
    fn new(text: &str, topology: &Topology) -> Plan {
        let query = compile_text(text).expect("generated queries compile");
        let analysis = match topology.annotations() {
            Some(trie) => analyze_with_trie(&query, trie),
            None => AnnotationAnalysis::keep_all(&topology.fragment_tree),
        };
        Plan { root_init: initial_vector(&query, topology.root_label()), analysis, query }
    }

    fn input(&self, fragment: FragmentId) -> CombinedFragmentInput {
        let exact = match fragment {
            FragmentId::ROOT => Some(&self.root_init),
            _ => self.analysis.exact_init.get(&fragment),
        };
        let init = exact
            .map_or(InitVector::Unknown, |bits| InitVector::Exact(BitVector::from_bools(bits)));
        CombinedFragmentInput {
            collect_answers_now: matches!(init, InitVector::Exact(_))
                && !self.query.has_qualifiers(),
            root_is_context: fragment == FragmentId::ROOT && !self.query.absolute,
            init,
        }
    }
}

/// What one route returns for one query.
#[derive(Debug, PartialEq)]
struct Outcome {
    answers: Vec<AnswerItem>,
    fragments_evaluated: usize,
    coordinator_ops: u64,
}

/// The first visit over every plan's entries — parked, or shipped — then
/// `evalFT` per query and the resolution that route calls for. Returns the
/// per-query outcomes and the first visit's total operations.
fn run_route(
    d: &Deployment,
    topology: &Arc<Topology>,
    plans: &[Plan],
    park: bool,
) -> (Vec<Outcome>, u64) {
    let mut ctx = ExecCtx::pinned(d, LATEST_EPOCH, Arc::clone(topology), 0);
    let ft = ctx.topology().fragment_tree.clone();
    let base = d.allocate_slots(plans.len());
    type Entries = Vec<(CompiledQuery, BTreeMap<FragmentId, CombinedFragmentInput>)>;
    let (mut entries, mut order) = (BTreeMap::<SiteId, Entries>::new(), BTreeMap::new());
    for (q, plan) in plans.iter().enumerate() {
        let relevant = plan.analysis.relevant.iter().copied();
        for (site, fragments) in ctx.group_by_site(relevant).unwrap() {
            let inputs = fragments.iter().map(|&f| (f, plan.input(f))).collect();
            entries.entry(site).or_default().push((plan.query.clone(), inputs));
            order.entry(site).or_insert_with(Vec::new).push(q);
        }
    }
    let requests = entries
        .into_iter()
        .map(|(site, entries)| {
            let request =
                MultiCombinedRequest { park: park.then_some(base), ops: BTreeMap::new(), entries };
            (site, ProtocolRequest::MultiCombined(request))
        })
        .collect();
    let mut first = vec![EntryResponse::default(); plans.len()];
    for (site, response) in ctx.round(requests).unwrap() {
        let response = response.into_multi_combined().unwrap().checked(order[&site].len()).unwrap();
        for (&q, slice) in order[&site].iter().zip(response.entries) {
            first[q].roots.extend(slice.roots);
            first[q].virtuals.extend(slice.virtuals);
            first[q].answers.extend(slice.answers);
            first[q].candidates.extend(slice.candidates);
        }
    }
    let first_visit_ops = ctx.stats.total_ops;

    let mut outcomes = Vec::new();
    let mut collect: BTreeMap<SiteId, Vec<BatchCollectEntry>> = BTreeMap::new();
    for (q, (plan, entry)) in plans.iter().zip(&first).enumerate() {
        let query = &plan.query;
        let relevant = plan.analysis.relevant.iter().copied();
        let pending: Vec<FragmentId> =
            relevant.filter(|&f| !plan.input(f).collect_answers_now).collect();
        let (mut assignment, mut ops) = (DenseAssignment::new(ft.len()), 0);
        if query.has_qualifiers() {
            ops += (ft.len() * query.qvect_len()) as u64;
            unify_qualifiers(&ft, &entry.roots, query.qvect_len(), &mut assignment);
        }
        if !pending.is_empty() {
            ops += (ft.len() * query.init_len()) as u64;
            unify_selection(&ft, &entry.virtuals, &plan.root_init, &mut assignment);
        }
        let mut answers = entry.answers.clone();
        if park {
            for (site, fragments) in ctx.group_by_site(pending).unwrap() {
                let values = fragments
                    .into_iter()
                    .map(|f| (f, assignment.restrict_for_fragment(f, ft.children(f))))
                    .collect();
                let slot = base + order[&site].iter().position(|&x| x == q).unwrap();
                let entry = BatchCollectEntry { query_index: q, slot, fragments: values };
                collect.entry(site).or_default().push(entry);
            }
        } else {
            let resolved = |c: &&paxml::core::protocol::CandidateAnswer| {
                c.formula.eval_with(&|v| assignment.get(v)) == Some(true)
            };
            answers.extend(entry.candidates.iter().filter(resolved).map(|c| c.item.clone()));
        }
        let fragments_evaluated = plan.analysis.relevant.len();
        outcomes.push(Outcome { answers, fragments_evaluated, coordinator_ops: ops });
    }
    let requests = collect
        .into_iter()
        .map(|(site, entries)| {
            (site, ProtocolRequest::BatchCollect(BatchCollectRequest { entries }))
        })
        .collect();
    for response in ctx.round(requests).unwrap().into_values() {
        for slice in response.into_batch_collect().unwrap().per_query {
            outcomes[slice.query_index].answers.extend(slice.answers);
        }
    }
    for outcome in &mut outcomes {
        outcome.answers.sort();
        outcome.answers.dedup();
    }
    (outcomes, first_visit_ops)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn parked_and_shipped_answers_agree_on_random_xmark_workloads(
        seed in 0u64..1_000,
        query_seed in any::<u64>(),
        count in 0usize..6,
        annotations in any::<bool>(),
    ) {
        let (_tree, fragmented) = ft2(0.2, seed);
        let d = Deployment::over_transport(Arc::new(Cluster::new(&fragmented, SITES, Placement::RoundRobin)));
        let topology = d.deployed_topology(&fragmented, annotations);
        let mut gen =
            QueryGen::new(QueryGenConfig::with_vocabulary(LABELS, TEXTS, ATTRS), query_seed);
        let generated = (0..count).map(|_| gen.query_text());
        let texts: Vec<String> = ANCHORS.iter().map(|a| a.to_string()).chain(generated).collect();
        let plans: Vec<Plan> = texts.iter().map(|t| Plan::new(t, &topology)).collect();

        let (parked, parked_ops) = run_route(&d, &topology, &plans, true);
        let (shipped, shipped_ops) = run_route(&d, &topology, &plans, false);
        prop_assert_eq!(&parked, &shipped, "{:?}", texts);
        prop_assert_eq!(parked_ops, shipped_ops, "first-visit ops for {:?}", texts);
        for site in 0..SITES {
            prop_assert_eq!(d.transport().scratch_len(SiteId(site)), 0);
        }

        // The parked route is what `execute_batch` runs.
        let server = PaxServer::builder()
            .annotations(annotations)
            .sites(SITES)
            .placement(Placement::RoundRobin)
            .deploy(&fragmented)
            .unwrap();
        let batch = server.execute_batch_text(&texts).unwrap();
        for (outcome, ours) in batch.queries.iter().zip(&parked) {
            prop_assert_eq!(&outcome.answers[..], &ours.answers[..], "{}", outcome.query);
            prop_assert_eq!(outcome.fragments_evaluated, ours.fragments_evaluated);
            prop_assert_eq!(outcome.coordinator_ops, ours.coordinator_ops);
        }
    }
}
