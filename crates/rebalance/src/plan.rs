//! The cost model and the greedy placement planner.
//!
//! The model is observation-only: the server's [`SiteLoad`]s, that is
//! per-site resident bytes (what each site stores) and per-site cumulative
//! traffic (what each site has served). The planner is pure — it maps a
//! [`CostModel`] to a list of [`RefragOp::Migrate`]s — so it can be
//! unit-tested without a cluster; [`rebalance`] closes the loop against a
//! live server.

use paxml_core::server::{PaxServer, RefragOp, RefragReport, SiteLoad};
use paxml_core::PaxResult;
use paxml_distsim::SiteId;
use paxml_fragment::FragmentId;

/// What the planner evens out across sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize the largest per-site **resident bytes** — storage balance.
    #[default]
    MaxSiteBytes,
    /// Minimize the largest per-site **traffic estimate** — serve balance.
    /// Each fragment's future traffic is estimated as its site's
    /// historically served bytes, attributed proportionally to the
    /// fragment's share of the site's resident bytes (per-fragment
    /// history is not tracked). Sites with no history fall back to
    /// resident bytes.
    MaxSiteTraffic,
}

/// Knobs for [`plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// What to even out.
    pub objective: Objective,
    /// Stop once the migrations planned so far would move this many
    /// resident bytes (`None`: unbounded).
    pub bytes_moved_budget: Option<u64>,
    /// Hard cap on the number of migrations planned.
    pub max_moves: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            objective: Objective::MaxSiteBytes,
            bytes_moved_budget: None,
            max_moves: 16,
        }
    }
}

/// The planner's input: one [`SiteLoad`] per site of the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Per-site observations, one entry per site (occupied or not).
    pub sites: Vec<SiteLoad>,
}

impl CostModel {
    /// Observe a live server: [`PaxServer::site_loads`].
    pub fn observe(server: &PaxServer) -> CostModel {
        CostModel { sites: server.site_loads() }
    }

    /// Per-fragment weights under `objective`, grouped per site.
    fn weights(&self, objective: Objective) -> Vec<Vec<(FragmentId, u64)>> {
        self.sites
            .iter()
            .map(|site| {
                let resident = site.resident_bytes();
                site.fragments
                    .iter()
                    .map(|&(fragment, bytes)| {
                        let weight = match objective {
                            Objective::MaxSiteBytes => bytes,
                            Objective::MaxSiteTraffic => {
                                if site.bytes_served == 0 || resident == 0 {
                                    bytes
                                } else {
                                    // The fragment's share of the site's
                                    // history, scaled to avoid zeroing
                                    // small fragments.
                                    (site.bytes_served.saturating_mul(bytes) / resident).max(1)
                                }
                            }
                        };
                        (fragment, weight)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Greedy rebalancing: repeatedly move the best-fitting fragment from the
/// heaviest site to the lightest until no move improves the objective, the
/// bytes-moved budget is exhausted, or `max_moves` is reached. Returns
/// pure migrations (splits/merges are policy decisions [`plan`] does not
/// take — hand-build those for [`PaxServer::refragment`]).
pub fn plan(model: &CostModel, options: &PlannerOptions) -> Vec<RefragOp> {
    let mut per_site = model.weights(options.objective);
    // Resident bytes ride along so the budget is charged in real bytes
    // even when the objective weighs traffic.
    let mut bytes_of: std::collections::BTreeMap<FragmentId, u64> =
        std::collections::BTreeMap::new();
    for site in &model.sites {
        for &(fragment, bytes) in &site.fragments {
            bytes_of.insert(fragment, bytes);
        }
    }
    let mut moves: Vec<RefragOp> = Vec::new();
    let mut bytes_moved: u64 = 0;
    while moves.len() < options.max_moves {
        let totals: Vec<u64> = per_site.iter().map(|f| f.iter().map(|(_, w)| w).sum()).collect();
        let Some(heavy) = totals.iter().enumerate().max_by_key(|(_, t)| **t).map(|(i, _)| i) else {
            break;
        };
        let light = totals
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("a heaviest site implies a lightest one");
        let gap = totals[heavy] - totals[light];
        if heavy == light || gap == 0 {
            break;
        }
        // The largest fragment that still *reduces* the pairwise max:
        // moving weight w helps iff w < gap. A fragment the light site
        // already holds a copy of is never a candidate — co-locating two
        // replicas would silently halve the fragment's fault tolerance.
        let candidate = per_site[heavy]
            .iter()
            .enumerate()
            .filter(|(_, (fragment, w))| {
                *w < gap && !per_site[light].iter().any(|(there, _)| there == fragment)
            })
            .max_by_key(|(_, (_, w))| *w)
            .map(|(position, &(fragment, weight))| (position, fragment, weight));
        let Some((position, fragment, weight)) = candidate else {
            break;
        };
        let fragment_bytes = bytes_of.get(&fragment).copied().unwrap_or(0);
        if let Some(budget) = options.bytes_moved_budget {
            if bytes_moved + fragment_bytes > budget {
                break;
            }
        }
        bytes_moved += fragment_bytes;
        per_site[heavy].remove(position);
        per_site[light].push((fragment, weight));
        moves.push(RefragOp::Migrate { fragment, from: SiteId(heavy), to: SiteId(light) });
    }
    moves
}

/// The outcome of one [`rebalance`] pass.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The migrations the planner chose (possibly none).
    pub ops: Vec<RefragOp>,
    /// The published re-fragmentation, when any op was worth applying.
    pub report: Option<RefragReport>,
    /// The largest per-site resident-bytes figure before the pass.
    pub max_site_bytes_before: u64,
    /// The same figure after the pass (equals `before` when nothing moved).
    pub max_site_bytes_after: u64,
}

/// Observe, plan, apply: one full rebalancing pass over a live server.
/// With an empty plan nothing is published and the topology version is
/// unchanged; otherwise the whole plan publishes as one epoch, followed by
/// a best-effort vacuum so the source sites' dissolved copies are purged
/// (and show up as freed in `max_site_bytes_after`) as soon as no reader
/// pins the old topology.
pub fn rebalance(server: &PaxServer, options: &PlannerOptions) -> PaxResult<RebalanceOutcome> {
    let stats = server.server_stats();
    let before = stats.max_site_bytes();
    let ops = plan(&CostModel { sites: stats.site_loads }, options);
    let report = if ops.is_empty() { None } else { Some(server.refragment(&ops)?) };
    if report.is_some() {
        let _ = server.vacuum();
    }
    let after = server.server_stats().max_site_bytes();
    Ok(RebalanceOutcome { ops, report, max_site_bytes_before: before, max_site_bytes_after: after })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sites: Vec<Vec<(usize, u64)>>) -> CostModel {
        CostModel {
            sites: sites
                .into_iter()
                .enumerate()
                .map(|(index, fragments)| SiteLoad {
                    site: SiteId(index),
                    fragments: fragments.into_iter().map(|(f, b)| (FragmentId(f), b)).collect(),
                    visits: 0,
                    bytes_served: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn a_balanced_cluster_plans_nothing() {
        let m = model(vec![vec![(0, 100)], vec![(1, 100)]]);
        assert!(plan(&m, &PlannerOptions::default()).is_empty());
    }

    #[test]
    fn a_hot_site_sheds_load_to_the_coldest() {
        let m = model(vec![vec![(0, 100), (1, 100), (2, 100)], vec![], vec![(3, 90)]]);
        let moves = plan(&m, &PlannerOptions::default());
        assert!(!moves.is_empty());
        // Every move comes off site 0 and the result is better balanced.
        for m in &moves {
            match m {
                RefragOp::Migrate { fragment, from, to } => {
                    assert!([FragmentId(0), FragmentId(1), FragmentId(2)].contains(fragment));
                    assert_eq!(*from, SiteId(0));
                    assert_ne!(*to, SiteId(0));
                }
                other => panic!("planner emitted a non-migration: {other:?}"),
            }
        }
    }

    #[test]
    fn the_planner_never_colocates_two_copies_of_one_fragment() {
        // Fragment 0 is replicated on sites 0 and 1. Site 0 is heavy, site
        // 1 is lightest — but moving fragment 0 there would co-locate its
        // copies, so the planner must ship fragment 1 instead.
        let m = model(vec![vec![(0, 100), (1, 80)], vec![(0, 100)], vec![(2, 120)]]);
        let moves = plan(&m, &PlannerOptions::default());
        for op in &moves {
            match op {
                RefragOp::Migrate { fragment, to, .. } => {
                    assert!(
                        !(*fragment == FragmentId(0) && *to == SiteId(1)),
                        "moved a replica onto its sibling's site"
                    );
                }
                other => panic!("planner emitted a non-migration: {other:?}"),
            }
        }
    }

    #[test]
    fn the_budget_caps_bytes_moved() {
        let m = model(vec![vec![(0, 100), (1, 100), (2, 100)], vec![]]);
        let options = PlannerOptions { bytes_moved_budget: Some(100), ..PlannerOptions::default() };
        let moves = plan(&m, &options);
        assert_eq!(moves.len(), 1, "a 100-byte budget affords exactly one 100-byte move");
    }

    #[test]
    fn an_indivisible_site_is_left_alone() {
        // One huge fragment: moving it would just move the hot spot.
        let m = model(vec![vec![(0, 1000)], vec![(1, 10)]]);
        assert!(plan(&m, &PlannerOptions::default()).is_empty());
    }
}
