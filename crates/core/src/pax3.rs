//! Algorithm **PaX3** (§3): three stages, at most three visits per site.
//!
//! * **Stage 1** — every site partially evaluates the qualifiers of the
//!   query over each of its fragments, bottom-up (the extended ParBoX of
//!   §3.1), and ships the root `QV`/`QDV` vectors to the coordinator, which
//!   unifies them over the fragment tree (`evalFT`).
//! * **Stage 2** — every (relevant) site evaluates the selection path
//!   top-down over each fragment, with qualifiers now fully known, starting
//!   from an unknown ancestor summary (fresh variables) unless the fragment
//!   is the root fragment or the XPath-annotation optimization provides an
//!   exact summary. Sites ship one vector per virtual node; the coordinator
//!   unifies them top-down.
//! * **Stage 3** — sites resolve their candidate answers with the now-known
//!   ancestor summaries and ship exactly the answer nodes.
//!
//! When the query has no qualifiers Stage 1 is skipped; when the
//! XPath-annotation optimization provides exact ancestor summaries Stage 3
//! is skipped as well — matching the visit counts measured in Experiment 1.

use crate::deployment::{ExecCtx, Topology};
use crate::error::PaxResult;
use crate::pax2::collect_values;
use crate::plan::QueryPlan;
use crate::protocol::{CollectRequest, QualRequest, SelFragmentInput, SelRequest};
use crate::report::{Algorithm, AnswerItem, ExecMode, ExecReport, QueryOutcome};
use crate::transport::ProtocolRequest;
use crate::unify::{unify_qualifiers, unify_selection, DenseAssignment};
use crate::vars::PaxVar;
use paxml_boolex::CompactVector;
use paxml_distsim::SiteId;
use paxml_fragment::FragmentId;
use paxml_xpath::eval::QualVectors;
use paxml_xpath::CompiledQuery;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The PaX3 driver: the three-stage protocol, reported as a unified
/// [`ExecReport`] whose cluster meters cover exactly this execution. Runs
/// over `ctx`, pinned by the caller; the deployment is shared, so any
/// number of runs may execute concurrently, each with its own recorder and
/// scratch slot.
pub(crate) fn run(
    mut ctx: ExecCtx<'_>,
    query: &CompiledQuery,
    query_text: &str,
) -> PaxResult<ExecReport> {
    let start = Instant::now();
    let (deployment, epoch, topology) = (ctx.deployment(), ctx.epoch(), Arc::clone(ctx.topology()));
    let slot = deployment.allocate_slots(1);
    let ft = &topology.fragment_tree;
    let plan = QueryPlan::new(query, &topology);
    let mut coordinator_ops: u64 = 0;
    let mut answers: Vec<AnswerItem> = Vec::new();

    // ----------------------------------------------------------------- Stage 1
    let mut assignment = DenseAssignment::new(ft.len());
    if query.has_qualifiers() {
        let requests = stage1_requests(&mut ctx, &topology, query, slot, &plan.analysis.relevant)?;
        let responses = ctx.round(requests)?;
        let mut roots: BTreeMap<FragmentId, QualVectors<PaxVar>> = BTreeMap::new();
        for response in responses.into_values() {
            roots.extend(response.into_qual()?.roots);
        }
        coordinator_ops += (ft.len() * query.qvect_len()) as u64;
        unify_qualifiers(ft, &roots, query.qvect_len(), &mut assignment);
    }

    // ----------------------------------------------------------------- Stage 2
    let mut requests: BTreeMap<SiteId, ProtocolRequest> = BTreeMap::new();
    let mut finals_pending: Vec<FragmentId> = Vec::new();
    for (site, fragments) in ctx.group_by_site(plan.analysis.relevant.iter().copied())? {
        let mut inputs = BTreeMap::new();
        for fragment in fragments {
            let init = plan.init_for(fragment);
            let collect_answers_now = plan.answers_certain(&init, true);
            if !collect_answers_now {
                finals_pending.push(fragment);
            }
            let qual_values = if query.has_qualifiers() {
                assignment.restrict_for_fragment(fragment, ft.children(fragment))
            } else {
                Vec::new()
            };
            inputs.insert(
                fragment,
                SelFragmentInput {
                    qual_values,
                    init,
                    root_is_context: plan.root_is_context(fragment),
                    collect_answers_now,
                },
            );
        }
        requests.insert(
            site,
            ProtocolRequest::Sel(SelRequest { slot, query: query.clone(), fragments: inputs }),
        );
    }
    let responses = ctx.round(requests)?;
    let mut virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>> = BTreeMap::new();
    for response in responses.into_values() {
        let response = response.into_sel()?;
        virtuals.extend(response.virtuals);
        answers.extend(response.answers);
    }

    // ----------------------------------------------------------------- Stage 3
    if !finals_pending.is_empty() {
        coordinator_ops += (ft.len() * query.init_len()) as u64;
        unify_selection(ft, &virtuals, &plan.root_init, &mut assignment);
        let requests = collect_values(&mut ctx, ft, &assignment, &finals_pending, false)?
            .into_iter()
            .map(|(site, fragments)| {
                (site, ProtocolRequest::Collect(CollectRequest { slot, fragments }))
            })
            .collect();
        for response in ctx.round(requests)?.into_values() {
            answers.extend(response.into_collect()?.answers);
        }
    }

    answers.sort();
    answers.dedup();
    Ok(ExecReport {
        queries: vec![QueryOutcome {
            query: query_text.into(),
            answers: answers.into(),
            fragments_evaluated: plan.analysis.relevant.len(),
            coordinator_ops,
        }],
        stats: ctx.stats,
        coordinator_ops,
        ..ExecReport::skeleton(Algorithm::PaX3, ExecMode::Query, epoch, &topology, start)
    })
}

/// Build the Stage-1 requests: every site is asked to evaluate the
/// qualifiers over *all* of its fragments (the annotation optimization only
/// kicks in from Stage 2 onward, exactly as in the paper). Only the
/// `relevant` fragments park their per-node vectors site-side — Stage 2
/// visits exactly those, so anything else parked would never be taken back.
fn stage1_requests(
    ctx: &mut ExecCtx<'_>,
    topology: &Topology,
    query: &CompiledQuery,
    slot: usize,
    relevant: &BTreeSet<FragmentId>,
) -> PaxResult<BTreeMap<SiteId, ProtocolRequest>> {
    let all: Vec<FragmentId> = topology.fragment_tree.ids().to_vec();
    Ok(ctx
        .group_by_site(all)?
        .into_iter()
        .map(|(site, fragments)| {
            let park: Vec<FragmentId> =
                fragments.iter().copied().filter(|f| relevant.contains(f)).collect();
            (
                site,
                ProtocolRequest::Qual(QualRequest { slot, query: query.clone(), fragments, park }),
            )
        })
        .collect())
}
