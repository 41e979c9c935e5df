//! # paxml-core — the algorithms of "Distributed Query Evaluation with Performance Guarantees"
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates:
//!
//! | Module | Paper section | What it does |
//! |--------|---------------|--------------|
//! | [`pax3`] | §3 | The three-stage partial-evaluation algorithm (≤ 3 visits/site). |
//! | [`pax2`] | §4 | The two-stage algorithm (≤ 2 visits/site) over a slice of queries: a batch shares its visits, a single query is the batch of one. |
//! | [`incremental`] | beyond the paper | Re-evaluation under fragment updates: cached per-fragment vectors, dirty-cone `evalFT`, zero visits to clean sites. |
//! | [`prune`] | §5 | The XPath-annotation optimization (fragment pruning + exact stack initialization). |
//! | [`naive`] | §3 | The NaiveCentralized ship-everything baseline. |
//! | [`protocol`] / [`unify`] | §3.1–3.3 | The coordinator↔site messages, the per-site tasks, and the `evalFT` unification procedures. |
//! | [`server`] | the public API | The [`PaxServer`] session: prepared queries, every mode behind one handle, one [`ExecReport`]. |
//!
//! ```
//! use paxml_core::{server::PaxServer, Algorithm};
//! use paxml_distsim::Placement;
//! use paxml_fragment::strategy::cut_at_labels;
//! use paxml_xml::TreeBuilder;
//!
//! // A tiny clientele document, fragmented at every broker, spread over 3 sites.
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .open("client").leaf("country", "Canada")
//!         .open("broker").leaf("name", "CIBC").close()
//!     .close()
//!     .build();
//! let fragmented = cut_at_labels(&tree, &["broker"]).unwrap();
//! let server = PaxServer::builder()
//!     .algorithm(Algorithm::PaX2)
//!     .sites(3)
//!     .placement(Placement::RoundRobin)
//!     .deploy(&fragmented)
//!     .unwrap();
//!
//! let query = server.prepare("client[country/text()='US']/broker/name").unwrap();
//! let report = server.execute(&query).unwrap();
//! assert_eq!(report.answer_texts(), vec!["E*trade".to_string()]);
//! assert!(report.max_visits_per_site() <= 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod deployment;
mod error;
pub mod incremental;
pub mod naive;
pub mod pax2;
pub mod pax3;
mod plan;
pub mod protocol;
pub mod prune;
mod report;
pub mod server;
pub mod transport;
pub mod unify;
mod vars;

pub use deployment::{Deployment, ExecCtx, Topology};
pub use error::{PaxError, PaxResult};
pub use paxml_distsim::LATEST_EPOCH;
pub use prune::{analyze_with_trie, AnnotationAnalysis, FragmentLabels, PathTrie};
pub use report::{
    answer_item, Algorithm, AnswerItem, ExecMode, ExecReport, QueryOutcome, UpdateOutcome,
};
pub use server::{
    PaxServer, PaxServerBuilder, PrepareSetStats, PreparedQuery, RefragOp, RefragReport,
    RetryPolicy, ServerStats, SiteLoad,
};
pub use transport::{
    dispatch, EpochRequest, ProtocolRequest, ProtocolResponse, Transport, VacuumOutcome,
};
pub use vars::{PaxVar, QualVecKind};

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_distsim::{Cluster, Placement};
    use paxml_fragment::{fragment_at, strategy, FragmentedTree};
    use paxml_xml::{NodeId, TreeBuilder, XmlTree};
    use paxml_xpath::{centralized, compile_text};
    use std::sync::Arc;

    /// A fresh round-robin deployment of `f` over `sites` simulated sites.
    fn deploy(f: &FragmentedTree, sites: usize) -> Deployment {
        Deployment::over_transport(Arc::new(Cluster::new(f, sites, Placement::RoundRobin)))
    }

    /// The classic engine drivers, compiled on the fly (the internal
    /// equivalents of `PaxServer::query_once` for each algorithm), with the
    /// §5 index when `xa` is on, over a fresh round-robin deployment of `f`
    /// on `sites` sites, or (`_on`) over `d`, deployed from `f`.
    fn eval_pax3(f: &FragmentedTree, sites: usize, q: &str, xa: bool) -> ExecReport {
        eval_pax3_on(&deploy(f, sites), f, q, xa)
    }
    fn eval_pax3_on(d: &Deployment, f: &FragmentedTree, q: &str, xa: bool) -> ExecReport {
        pax3::run(ExecCtx::latest(d, f, xa), &compile_text(q).unwrap(), q).unwrap()
    }
    fn eval_pax2(f: &FragmentedTree, sites: usize, q: &str, xa: bool) -> ExecReport {
        eval_pax2_on(&deploy(f, sites), f, q, xa)
    }
    fn eval_pax2_on(d: &Deployment, f: &FragmentedTree, q: &str, xa: bool) -> ExecReport {
        let q = [(&compile_text(q).unwrap(), q)];
        pax2::run(ExecCtx::latest(d, f, xa), &q, ExecMode::Query).unwrap()
    }
    fn eval_naive(f: &FragmentedTree, sites: usize, q: &str) -> ExecReport {
        let d = deploy(f, sites);
        naive::run(ExecCtx::latest(&d, f, false), &compile_text(q).unwrap(), q).unwrap()
    }

    /// The Fig. 1 clientele document.
    fn clientele() -> XmlTree {
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NYSE")
            .open("stock")
            .leaf("code", "IBM")
            .leaf("buy", "$80")
            .leaf("qt", "50")
            .close()
            .close()
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "YHOO")
            .leaf("buy", "$33")
            .leaf("qt", "40")
            .close()
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "75")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Kim")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "Bache")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$370")
            .leaf("qt", "40")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Lisa")
            .leaf("country", "Canada")
            .open("broker")
            .leaf("name", "CIBC")
            .open("market")
            .leaf("name", "TSE")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$382")
            .leaf("qt", "90")
            .close()
            .close()
            .close()
            .close()
            .build()
    }

    /// The Fig. 1 fragmentation (five fragments).
    fn fig1_fragmentation(tree: &XmlTree) -> FragmentedTree {
        let brokers = tree.find_all("broker");
        let markets = tree.find_all("market");
        let clients = tree.find_all("client");
        fragment_at(tree, &[brokers[0], markets[1], clients[2], markets[2]]).unwrap()
    }

    /// Queries exercising every feature of the class X.
    fn query_battery() -> Vec<&'static str> {
        vec![
            "client/name",
            "client/broker/name",
            "/clientele/client/country",
            "//name",
            "//market/name",
            "//stock/code",
            "client//code",
            "client[country/text()='US']/broker[market/name/text()='NASDAQ']/name",
            "client[not(country/text()='US')]/name",
            "//stock[buy/val() > 380]/code",
            "//stock[qt >= 50]/code",
            "//broker[//stock/code/text()='GOOG']/name",
            "//broker[//stock/code/text()='GOOG' and not(//stock/code/text()='YHOO')]/name",
            "client[broker[market/name/text()='TSE']]/name",
            "*/*/name",
            ".[//code/text()='GOOG']",
            "client[country/text()='US' or country/text()='Canada']/name",
            "//*[code/text()='GOOG']/buy",
            "nonexistent/path",
            "/wrongroot/client/name",
            "//clientele/client/name",
        ]
    }

    /// Reference answers from the centralized evaluator on the original tree.
    fn reference(tree: &XmlTree, query: &str) -> Vec<NodeId> {
        let mut a = centralized::evaluate(tree, query).unwrap().answers;
        a.sort();
        a
    }

    fn check_all_algorithms(tree: &XmlTree, fragmented: &FragmentedTree, sites: usize) {
        for query in query_battery() {
            let expected = reference(tree, query);
            for xa in [false, true] {
                let p3 = eval_pax3(fragmented, sites, query, xa);
                assert_eq!(p3.answer_origins(), expected, "PaX3 (XA={xa}) disagrees on {query}");
                assert!(
                    p3.max_visits_per_site() <= 3,
                    "PaX3 visited a site more than 3 times on {query}"
                );
                let p2 = eval_pax2(fragmented, sites, query, xa);
                assert_eq!(p2.answer_origins(), expected, "PaX2 (XA={xa}) disagrees on {query}");
                assert!(
                    p2.max_visits_per_site() <= 2,
                    "PaX2 visited a site more than 2 times on {query}"
                );
            }
            let naive = eval_naive(fragmented, sites, query);
            assert_eq!(naive.answer_origins(), expected, "Naive disagrees on {query}");
            assert_eq!(naive.max_visits_per_site(), 1);
        }
    }

    #[test]
    fn all_algorithms_agree_on_the_fig1_fragmentation() {
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);
        check_all_algorithms(&tree, &fragmented, 4);
    }

    #[test]
    fn all_algorithms_agree_when_every_client_is_a_fragment() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["client"]).unwrap();
        check_all_algorithms(&tree, &fragmented, 3);
    }

    #[test]
    fn all_algorithms_agree_on_a_deep_fragmentation() {
        let tree = clientele();
        let fragmented = strategy::cut_at_labels(&tree, &["broker", "market", "stock"]).unwrap();
        check_all_algorithms(&tree, &fragmented, 5);
    }

    #[test]
    fn all_algorithms_agree_without_fragmentation() {
        let tree = clientele();
        let fragmented = fragment_at(&tree, &[]).unwrap();
        check_all_algorithms(&tree, &fragmented, 1);
    }

    #[test]
    fn all_algorithms_agree_when_all_fragments_share_one_site() {
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);
        for query in ["client/name", "//broker[//stock/code/text()='GOOG']/name"] {
            let expected = reference(&tree, query);
            let p3 = eval_pax3(&fragmented, 1, query, false);
            assert_eq!(p3.answer_origins(), expected);
            assert!(p3.max_visits_per_site() <= 3);
            let p2 = eval_pax2(&fragmented, 1, query, false);
            assert_eq!(p2.answer_origins(), expected);
            assert!(p2.max_visits_per_site() <= 2);
        }
    }

    #[test]
    fn qualifier_free_queries_need_fewer_visits() {
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);

        // PaX3 without annotations: Stage 1 skipped => 2 visits.
        let report = eval_pax3(&fragmented, 4, "client/broker/name", false);
        assert_eq!(report.max_visits_per_site(), 2);

        // PaX3 with annotations: exact init vectors => Stage 3 skipped => 1 visit.
        let report = eval_pax3(&fragmented, 4, "client/broker/name", true);
        assert_eq!(report.max_visits_per_site(), 1);

        // PaX2 with annotations on a qualifier-free query: a single visit.
        let report = eval_pax2(&fragmented, 4, "client/broker/name", true);
        assert_eq!(report.max_visits_per_site(), 1);

        // With qualifiers PaX3 needs all three stages.
        let qualified = "client[country/text()='US']/broker/name";
        let report = eval_pax3(&fragmented, 4, qualified, false);
        assert_eq!(report.max_visits_per_site(), 3);

        // ... while PaX2 stays at two.
        let report = eval_pax2(&fragmented, 4, qualified, false);
        assert_eq!(report.max_visits_per_site(), 2);
    }

    #[test]
    fn annotations_prune_irrelevant_fragments() {
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);
        // Example 5.1: client/name only needs the root fragment and the
        // client fragment.
        let without = eval_pax2(&fragmented, 4, "client/name", false);
        let with = eval_pax2(&fragmented, 4, "client/name", true);
        assert_eq!(without.answer_origins(), with.answer_origins());
        assert_eq!(without.queries[0].fragments_evaluated, 5);
        assert_eq!(with.queries[0].fragments_evaluated, 2);
        assert!(with.total_ops() < without.total_ops());
        assert!(with.network_bytes() < without.network_bytes());
    }

    #[test]
    fn partial_evaluation_ships_far_less_than_the_naive_baseline() {
        // On a document whose size dwarfs the query, the naive baseline must
        // ship ~everything while PaX2's traffic stays O(|Q|·|FT| + |ans|).
        // Eight large "clientele" fragments of ~660 nodes each.
        let base = clientele();
        let clients = base.find_all("client");
        let mut unit = XmlTree::with_root_element("clientele");
        let unit_root = unit.root();
        for _ in 0..10 {
            for &c in &clients {
                unit.graft_tree(unit_root, &base, c).unwrap();
            }
        }
        let mut builder = TreeBuilder::new("portfolio");
        for _ in 0..8 {
            builder = builder.subtree(&unit);
        }
        let tree = builder.build();
        let fragmented = strategy::cut_at_labels(&tree, &["clientele"]).unwrap();
        let query =
            "clientele/client[country/text()='US']/broker[market/name/text()='NASDAQ']/name";
        let naive = eval_naive(&fragmented, 8, query);
        let pax = eval_pax2(&fragmented, 8, query, false);

        assert_eq!(naive.answer_origins(), pax.answer_origins());
        assert_eq!(pax.answers().len(), 8 * 10 * 2); // NASDAQ brokers of US clients
        assert!(
            naive.network_bytes() > 3 * pax.network_bytes(),
            "naive={} pax2={}",
            naive.network_bytes(),
            pax.network_bytes()
        );
    }

    #[test]
    fn network_traffic_is_independent_of_irrelevant_data_size() {
        // Growing the document with data that does not change the answer
        // must not change PaX2's traffic by more than a constant factor
        // (the O(|Q|·|FT| + |ans|) bound).
        let base = clientele();
        let mut grown_builder = TreeBuilder::new("clientele");
        for _ in 0..1 {
            grown_builder = grown_builder.subtree(&base);
        }
        // Add many clients in a country that never matches.
        grown_builder = grown_builder.with(|t, root| {
            for i in 0..200 {
                let c = t.append_element(root, "client");
                t.append_leaf(c, "name", format!("Bot{i}"));
                t.append_leaf(c, "country", "Nowhere");
            }
        });
        let grown = grown_builder.build();

        let query = "client[country/text()='US']/name";
        let small_frag = strategy::cut_at_labels(&base, &["client"]).unwrap();
        let grown_frag = strategy::cut_at_labels(&grown, &["client"]).unwrap();
        let small_report = eval_pax2(&small_frag, 4, query, false);
        let grown_report = eval_pax2(&grown_frag, 4, query, false);

        // Same answers (the US clients of the original subtree), roughly
        // |FT|-proportional traffic: the grown tree has ~200 more fragments,
        // so allow that factor but nothing proportional to the ~2000 extra
        // nodes of data.
        let per_fragment_small =
            small_report.network_bytes() as f64 / small_frag.fragment_count() as f64;
        let per_fragment_grown =
            grown_report.network_bytes() as f64 / grown_frag.fragment_count() as f64;
        assert!(
            per_fragment_grown < per_fragment_small * 3.0,
            "per-fragment traffic grew with data size: {per_fragment_small:.0} -> {per_fragment_grown:.0}"
        );
    }

    #[test]
    fn reports_expose_cost_meters() {
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);
        let qualified = "client[country/text()='US']/broker/name";
        let report = eval_pax3(&fragmented, 4, qualified, false);
        assert!(report.total_ops() > 0);
        assert!(report.network_bytes() > 0);
        assert!(
            report.parallel_time() <= report.total_computation_time().max(report.parallel_time())
        );
        assert!(report.summary().contains("PaX3"));
        assert_eq!(report.fragments_total, 5);
    }

    #[test]
    fn executions_leave_no_scratch_parked_on_any_site() {
        // Per-execution scratch slots are never reused, so anything an
        // execution parks site-side and fails to take back accumulates
        // forever on a long-lived deployment. Regression: PaX3's qualifier
        // stage used to park per-node vectors for annotation-pruned
        // fragments that the selection stage never visited.
        use paxml_distsim::SiteId;
        let tree = clientele();
        let fragmented = fig1_fragmentation(&tree);
        let d = deploy(&fragmented, 4);
        for query in ["client[country/text()='US']/name", "//stock[qt >= 50]/code", "client/name"] {
            for xa in [false, true] {
                for _ in 0..3 {
                    eval_pax3_on(&d, &fragmented, query, xa);
                    eval_pax2_on(&d, &fragmented, query, xa);
                }
            }
        }
        for site in 0..4 {
            assert_eq!(d.transport().scratch_len(SiteId(site)), 0, "scratch leaked at site {site}");
        }
    }
}
