//! The **NaiveCentralized** baseline (§3): ship every fragment to the query
//! site, reassemble the document, and evaluate the query with the
//! centralized two-pass algorithm.
//!
//! Each site is visited only once, but the network carries the *entire*
//! document — the behaviour the partial-evaluation algorithms are designed
//! to avoid. The baseline exists so the benchmarks can show the traffic and
//! latency gap.

use crate::deployment::ExecCtx;
use crate::error::PaxResult;
use crate::report::{Algorithm, AnswerItem, ExecMode, ExecReport, QueryOutcome};
use paxml_xml::NodeId;
use paxml_xpath::{centralized, CompiledQuery};
use std::sync::Arc;
use std::time::Instant;

/// The naive driver, reported as a unified [`ExecReport`] whose cluster
/// meters cover exactly this execution. Runs over `ctx`, pinned by the
/// caller; the deployment is shared, so any number of runs may execute
/// concurrently, each with its own recorder.
pub(crate) fn run(
    mut ctx: ExecCtx<'_>,
    query: &CompiledQuery,
    query_text: &str,
) -> PaxResult<ExecReport> {
    let start = Instant::now();
    let (epoch, topology) = (ctx.epoch(), Arc::clone(ctx.topology()));

    // One visit per site, routed by the pinned epoch's topology: each site
    // ships exactly the fragments the topology places there, so stale
    // copies left behind by a migration are never read.
    let shipped = ctx.fetch(topology.fragment_tree.ids().iter().copied())?.into_values().collect();

    // Reassemble the document at the coordinator. Fragment ids may have
    // gaps after re-fragmentations; compacting re-indexes them densely.
    let fragmented = paxml_fragment::compact_fragmentation(shipped, &topology.fragment_tree)
        .expect("shipping every fragment of a topology yields a consistent set");
    let (tree, origin) = paxml_fragment::reassemble_with_origin(&fragmented)
        .expect("shipping every fragment always yields a consistent document");

    // Evaluate centrally at the coordinator.
    let result = centralized::evaluate_compiled(&tree, query);
    let answers: Vec<AnswerItem> = result
        .answers
        .iter()
        .map(|&node| AnswerItem {
            fragment: paxml_fragment::FragmentId::ROOT,
            origin: NodeId::from_index(origin[node.index()] as usize),
            label: tree.label(node).unwrap_or_default().to_string(),
            text: tree.text_of(node),
        })
        .collect();
    let mut answers = answers;
    answers.sort();

    let algorithm = Algorithm::NaiveCentralized;
    Ok(ExecReport {
        queries: vec![QueryOutcome {
            query: query_text.into(),
            answers: answers.into(),
            fragments_evaluated: topology.fragment_tree.len(),
            coordinator_ops: result.ops,
        }],
        stats: ctx.stats,
        coordinator_ops: result.ops,
        ..ExecReport::skeleton(algorithm, ExecMode::Query, epoch, &topology, start)
    })
}
