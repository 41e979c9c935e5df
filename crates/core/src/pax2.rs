//! Algorithm **PaX2** (§4): two stages, at most two visits per site — for
//! one query or for a whole batch.
//!
//! PaX2 folds the first two stages of PaX3 into one *visit* per fragment:
//! the bottom-up computation of the qualifier vectors, then the top-down
//! computation of the selection vectors reading them in place — both in one
//! formula arena, so nothing is shipped or unified in between. (The paper
//! fuses the two into a single traversal with `qz` placeholder variables,
//! Examples 4.1–4.3; see PAPER.md, "Deviations".) One coordinator round
//! later, the sites learn the truth values of their residual variables and
//! ship exactly the answer nodes.
//!
//! With the XPath-annotation optimization PaX2 additionally restricts the
//! combined pass to the relevant fragments — unlike PaX3, whose Stage 1 must
//! still touch every fragment — which is why `PaX2-XA` wins on Q3 in the
//! paper's Figure 10(c).
//!
//! The paper states the guarantees per query. Evaluating `N` queries over
//! the *same* deployment one at a time costs up to `2N` rounds and `2N`
//! visits per site, so the driver takes a **slice** of queries and shares
//! the visits: every query's first-stage payload addressed to a site travels
//! as one entry of a single [`MultiCombinedRequest`] (entry `i` parks its
//! candidate state under the message's slot base plus `i`, so the queries'
//! vector spaces never mix), `evalFT` runs per query over the shared
//! fragment tree, and the resolved values of every query go back in one
//! collection message. The whole batch therefore respects the
//! single-query bound — **no site is visited more than twice, no matter how
//! many queries the batch carries** — with traffic in
//! `O(Σᵢ|Qᵢ|·|FT| + Σᵢ|answerᵢ|)`. A single query is the slice of one; it
//! differs only in travelling in the plain [`CombinedRequest`] /
//! [`CollectRequest`] envelopes. The same multi-query visit, with its
//! answers shipped instead of parked, refreshes prepared queries'
//! caches (see [`crate::incremental`]).
//!
//! ```
//! use paxml_core::server::PaxServer;
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
//! let server = PaxServer::builder().sites(3).deploy(&fragmented).unwrap();
//!
//! let report = server.execute_batch_text(&[
//!     "client[country/text()='US']/broker/name",
//!     "client/broker/name",
//!     "//broker[name/text()='CIBC']",
//! ]).unwrap();
//!
//! assert_eq!(report.len(), 3);
//! let texts = |i: usize| -> Vec<&str> {
//!     report.queries[i].answers.iter().filter_map(|a| a.text.as_deref()).collect()
//! };
//! assert_eq!(texts(0), vec!["E*trade"]);
//! assert_eq!(texts(1), vec!["E*trade", "CIBC"]);
//! // The entire batch kept PaX2's visit bound.
//! assert!(report.max_visits_per_site() <= 2);
//! ```

use crate::deployment::ExecCtx;
use crate::error::PaxResult;
use crate::plan::QueryPlan;
use crate::protocol::{
    BatchCollectEntry, BatchCollectQueryResponse, BatchCollectRequest, CollectRequest,
    CombinedFragmentInput, CombinedRequest, EntryResponse, MultiCombinedRequest,
};
use crate::report::{Algorithm, ExecMode, ExecReport, QueryOutcome};
use crate::transport::{ProtocolRequest, ProtocolResponse};
use crate::unify::{unify_qualifiers, unify_selection, DenseAssignment};
use crate::vars::PaxVar;
use paxml_distsim::SiteId;
use paxml_fragment::{FragmentId, FragmentTree};
use paxml_xpath::CompiledQuery;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What a collection visit tells one site: per fragment, the resolved truth
/// values of the variables its candidate formulas may mention.
type ResolvedValues = BTreeMap<FragmentId, Vec<(PaxVar, bool)>>;

/// The per-site payloads of a collection visit (the final stage of PaX2 and
/// PaX3): for each fragment still `pending`, the resolved truth values its
/// parked candidate formulas may mention — its own `Sel` variables, plus,
/// for PaX2 (`with_qualifiers`), the `Qual` variables of its sub-fragments,
/// which PaX3's candidates no longer carry.
pub(crate) fn collect_values(
    ctx: &mut ExecCtx<'_>,
    ft: &FragmentTree,
    assignment: &DenseAssignment,
    pending: &[FragmentId],
    with_qualifiers: bool,
) -> PaxResult<BTreeMap<SiteId, ResolvedValues>> {
    let mut per_site = BTreeMap::new();
    for (site, fragments) in ctx.group_by_site(pending.iter().copied())? {
        let values = fragments
            .into_iter()
            .map(|f| {
                let sub_fragments = if with_qualifiers { ft.children(f) } else { &[] };
                (f, assignment.restrict_for_fragment(f, sub_fragments))
            })
            .collect();
        per_site.insert(site, values);
    }
    Ok(per_site)
}

/// The one entry a single-query execution addresses to a site.
fn sole<T>(entries: Vec<T>) -> T {
    entries.into_iter().next().expect("a single-query execution has one entry per visited site")
}

/// The PaX2 driver: the two-visit protocol over a slice of queries (each
/// with its text, used only for the report), reported as a unified
/// [`ExecReport`] whose cluster meters cover exactly this execution. `mode`
/// picks the envelope — [`ExecMode::Query`] ships the slice of one in the
/// single-query messages, [`ExecMode::Batch`] any slice in the multi-query
/// ones — and nothing else. Runs over `ctx`, pinned by the caller to its
/// epoch and topology; the deployment is shared, so any number of runs may
/// execute concurrently, each with its own recorder and scratch slots.
///
/// # Panics
///
/// Panics when `mode` is not [`ExecMode::Batch`] and `queries` is not
/// exactly one query.
pub(crate) fn run(
    mut ctx: ExecCtx<'_>,
    queries: &[(&CompiledQuery, &str)],
    mode: ExecMode,
) -> PaxResult<ExecReport> {
    let batched = mode == ExecMode::Batch;
    assert!(batched || queries.len() == 1, "only a batch carries other than one query");
    let start = Instant::now();
    let (deployment, epoch, topology) = (ctx.deployment(), ctx.epoch(), Arc::clone(ctx.topology()));
    let ft = &topology.fragment_tree;
    // A block of scratch slots, unique across concurrent executions: a
    // site's entry `i` parks under `slot_base + i`.
    let slot_base = deployment.allocate_slots(queries.len().max(1));

    // ------------------------------------------------ Stage 1 (combined, 1 visit)
    // Plan every query; per site, one entry per query with work there, in
    // query order. `pending[q]` are the fragments whose answers stay
    // uncertain after the pass and need the collection visit.
    let plans: Vec<QueryPlan> =
        queries.iter().map(|(query, _)| QueryPlan::new(query, &topology)).collect();
    let mut pending: Vec<Vec<FragmentId>> = vec![Vec::new(); queries.len()];
    type Inputs = BTreeMap<FragmentId, CombinedFragmentInput>;
    let mut stage1: BTreeMap<SiteId, Vec<(usize, Inputs)>> = BTreeMap::new();
    for (query_index, plan) in plans.iter().enumerate() {
        for (site, fragments) in ctx.group_by_site(plan.analysis.relevant.iter().copied())? {
            let inputs: Inputs =
                fragments.into_iter().map(|f| (f, plan.combined_input(f))).collect();
            let uncertain = inputs.iter().filter(|(_, input)| !input.collect_answers_now);
            pending[query_index].extend(uncertain.map(|(&f, _)| f));
            stage1.entry(site).or_default().push((query_index, inputs));
        }
    }
    // Which query each site's entries belong to, in entry order.
    let order: BTreeMap<SiteId, Vec<usize>> = stage1
        .iter()
        .map(|(&site, entries)| (site, entries.iter().map(|(q, _)| *q).collect()))
        .collect();
    let requests = stage1
        .into_iter()
        .map(|(site, entries)| {
            let request = if batched {
                let entries = entries.into_iter().map(|(q, inputs)| (queries[q].0.clone(), inputs));
                ProtocolRequest::MultiCombined(MultiCombinedRequest {
                    park: Some(slot_base),
                    ops: BTreeMap::new(),
                    entries: entries.collect(),
                })
            } else {
                let (_, fragments) = sole(entries);
                let query = queries[0].0.clone();
                ProtocolRequest::Combined(CombinedRequest { slot: slot_base, query, fragments })
            };
            (site, request)
        })
        .collect();

    // Scatter the responses back out per query.
    let mut first: Vec<EntryResponse> = vec![EntryResponse::default(); queries.len()];
    for (site, response) in ctx.round(requests)? {
        let slices = if batched {
            response.into_multi_combined()?.checked(order[&site].len())?.entries
        } else {
            let single = response.into_combined()?;
            let (roots, virtuals, answers) = (single.roots, single.virtuals, single.answers);
            vec![EntryResponse { roots, virtuals, answers, candidates: Vec::new() }]
        };
        for (&query_index, slice) in order[&site].iter().zip(slices) {
            let into = &mut first[query_index];
            into.roots.extend(slice.roots);
            into.virtuals.extend(slice.virtuals);
            into.answers.extend(slice.answers);
        }
    }

    // ------------------------------------------- Coordinator: evalFT per query
    let mut coordinator_ops: Vec<u64> = vec![0; queries.len()];
    let mut stage2: BTreeMap<SiteId, Vec<BatchCollectEntry>> = BTreeMap::new();
    for (query_index, ((query, _), plan)) in queries.iter().zip(&plans).enumerate() {
        let mut assignment = DenseAssignment::new(ft.len());
        let first = &first[query_index];
        if query.has_qualifiers() {
            coordinator_ops[query_index] += (ft.len() * query.qvect_len()) as u64;
            unify_qualifiers(ft, &first.roots, query.qvect_len(), &mut assignment);
        }
        if pending[query_index].is_empty() {
            continue;
        }
        coordinator_ops[query_index] += (ft.len() * query.init_len()) as u64;
        unify_selection(ft, &first.virtuals, &plan.root_init, &mut assignment);
        let values = collect_values(&mut ctx, ft, &assignment, &pending[query_index], true)?;
        for (site, fragments) in values {
            let position = order[&site].iter().position(|&q| q == query_index);
            let slot = slot_base + position.expect("a pending fragment's site had the query");
            stage2.entry(site).or_default().push(BatchCollectEntry {
                query_index,
                slot,
                fragments,
            });
        }
    }

    // ---------------------------------------------- Stage 2 (collect, 1 visit)
    let mut answers: Vec<_> = first.into_iter().map(|entry| entry.answers).collect();
    let requests = stage2
        .into_iter()
        .map(|(site, entries)| {
            let request = if batched {
                ProtocolRequest::BatchCollect(BatchCollectRequest { entries })
            } else {
                let BatchCollectEntry { slot, fragments, .. } = sole(entries);
                ProtocolRequest::Collect(CollectRequest { slot, fragments })
            };
            (site, request)
        })
        .collect();
    for response in ctx.round(requests)?.into_values() {
        for slice in collect_slices(response, batched)? {
            answers[slice.query_index].extend(slice.answers);
        }
    }

    // ------------------------------------------------------------- Report
    let outcomes = answers
        .into_iter()
        .enumerate()
        .map(|(query_index, mut answers)| {
            answers.sort();
            answers.dedup();
            QueryOutcome {
                query: queries[query_index].1.into(),
                answers: answers.into(),
                fragments_evaluated: plans[query_index].analysis.relevant.len(),
                coordinator_ops: coordinator_ops[query_index],
            }
        })
        .collect();
    Ok(ExecReport {
        queries: outcomes,
        stats: ctx.stats,
        coordinator_ops: coordinator_ops.iter().sum(),
        ..ExecReport::skeleton(Algorithm::PaX2, mode, epoch, &topology, start)
    })
}

/// A collection response as per-query slices, whichever envelope it
/// answered.
fn collect_slices(
    response: ProtocolResponse,
    batched: bool,
) -> PaxResult<Vec<BatchCollectQueryResponse>> {
    if batched {
        return Ok(response.into_batch_collect()?.per_query);
    }
    let answers = response.into_collect()?.answers;
    Ok(vec![BatchCollectQueryResponse { query_index: 0, answers }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use paxml_distsim::{Cluster, Placement};
    use paxml_fragment::{strategy, FragmentedTree};
    use paxml_xml::TreeBuilder;
    use paxml_xpath::compile_text;

    const BATTERY: [&str; 10] = [
        "client/name",
        "client/broker/name",
        "//name",
        "//stock/code",
        "client[country/text()='US']/broker/name",
        "client[not(country/text()='US')]/name",
        "//broker[//stock/code/text()='GOOG']/name",
        "//stock[qt >= 50]/code",
        "*/*/name",
        "nonexistent/path",
    ];

    fn deployment() -> (Deployment, FragmentedTree) {
        let mut builder = TreeBuilder::new("clientele");
        for (name, country, broker, code, qt) in
            [("Anna", "US", "E*trade", "YHOO", "40"), ("Lisa", "Canada", "CIBC", "GOOG", "90")]
        {
            builder = builder
                .open("client")
                .leaf("name", name)
                .leaf("country", country)
                .open("broker")
                .leaf("name", broker)
                .open("market")
                .open("stock")
                .leaf("code", code)
                .leaf("qt", qt)
                .close()
                .close()
                .close()
                .close();
        }
        let fragmented = strategy::cut_at_labels(&builder.build(), &["broker", "market"]).unwrap();
        (
            Deployment::over_transport(Arc::new(Cluster::new(
                &fragmented,
                4,
                Placement::RoundRobin,
            ))),
            fragmented,
        )
    }

    #[test]
    fn a_batch_equals_its_queries_one_at_a_time_within_one_querys_visit_bound() {
        let (d, f) = deployment();
        let compiled: Vec<CompiledQuery> =
            BATTERY.iter().map(|q| compile_text(q).unwrap()).collect();
        let slice: Vec<(&CompiledQuery, &str)> = compiled.iter().zip(BATTERY).collect();
        for xa in [false, true] {
            let ctx = ExecCtx::latest(&d, &f, xa);
            let batch = run(ctx, &slice, ExecMode::Batch).unwrap();
            assert_eq!(batch.len(), BATTERY.len());
            assert!(batch.max_visits_per_site() <= 2, "batch broke the PaX2 bound");
            assert!(batch.rounds() <= 2);
            let (mut rounds, mut visits) = (0, 0);
            for (one, outcome) in slice.iter().zip(&batch.queries) {
                let ctx = ExecCtx::latest(&d, &f, xa);
                let single = run(ctx, &[*one], ExecMode::Query).unwrap();
                let alone = &single.queries[0];
                assert_eq!(outcome.answers, alone.answers, "{} (XA={xa})", one.1);
                assert_eq!(outcome.fragments_evaluated, alone.fragments_evaluated);
                assert_eq!(outcome.coordinator_ops, alone.coordinator_ops);
                rounds += single.rounds();
                visits += single.max_visits_per_site();
            }
            // One at a time, rounds and visits scale with the batch size.
            assert!(rounds > batch.rounds() * 3);
            assert!(visits > batch.max_visits_per_site() * 3);
        }
    }

    #[test]
    fn an_empty_batch_visits_nobody() {
        let (d, f) = deployment();
        let batch = run(ExecCtx::latest(&d, &f, false), &[], ExecMode::Batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.rounds(), 0);
        assert_eq!(batch.max_visits_per_site(), 0);
    }
}
