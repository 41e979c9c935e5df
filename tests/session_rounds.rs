//! The session round — one `SessionUpdate` visit that applies ops (none for
//! a cold snapshot) and refreshes prepared queries' residual-vector caches
//! — seen from outside: which sessions an update round refreshes, and what
//! a cold snapshot may do to the sites' version lists.

use paxml::prelude::*;
use paxml::rebalance::RefragOp;
use paxml::wire::{SiteServer, TcpCluster};
use paxml_distsim::SiteId;
use paxml_fragment::reassemble_with_origin;
use paxml_xmark::{clientele_fragmentation, CLIENTELE_QUERY_EXAMPLES};
use paxml_xml::NodeId;
use std::sync::Arc;

const SITES: usize = 4;

/// `(origin, text)` of every answer, as the centralized evaluator sees the
/// server's current document.
fn centralized_answers(server: &PaxServer, query: &str) -> Vec<(NodeId, Option<String>)> {
    let (tree, origin) = reassemble_with_origin(&server.export_fragmentation().unwrap()).unwrap();
    let mut answers: Vec<_> = centralized::evaluate(&tree, query)
        .unwrap()
        .answers
        .into_iter()
        .map(|n| (NodeId::from_index(origin[n.index()] as usize), tree.text_of(n)))
        .collect();
    answers.sort();
    answers
}

fn served_answers(report: &ExecReport) -> Vec<(NodeId, Option<String>)> {
    report.answers().iter().map(|a| (a.origin, a.text.clone())).collect()
}

/// Regression: a session that a re-fragmentation cold-reset has no cache to
/// keep current, so an update round must neither pay site passes and bytes
/// for it nor count it as refreshed — its next execution re-snapshots
/// everything anyway.
#[test]
fn never_snapshotted_sessions_ride_update_rounds_untouched() {
    // Fig. 2: F0 holds Anna and Kim, F1 Anna's broker, F4 Lisa's client.
    let (_, fragmented) = clientele_fragmentation();
    let server = PaxServer::builder().annotations(true).sites(SITES).deploy(&fragmented).unwrap();
    let (names, markets) = ("client/name", "client/broker/market/name");
    let q_names = server.prepare(names).unwrap();
    let q_markets = server.prepare(markets).unwrap();
    server.execute(&q_names).unwrap();
    server.execute(&q_markets).unwrap();

    // Cut Anna's broker (F1) at its NYSE market: F1 is relevant to the
    // market query only, so exactly that session is invalidated.
    let cut = fragmented.fragments[1].tree.find_first("market").unwrap();
    let split = RefragOp::Split { fragment: FragmentId(1), cut, place_on: SiteId(0).into() };
    let refrag = server.refragment(&[split]).unwrap();
    assert_eq!((refrag.invalidated_sessions, refrag.retopologized_sessions), (1, 1));

    // An edit in F0, which is relevant to both queries.
    let f0 = &fragmented.fragments[0].tree;
    let kim = f0.children(f0.find_all("name")[1]).next().unwrap();
    let edit = UpdateOp::EditText { node: kim, text: "Kimberly".into() };
    let update = server.apply_updates(&[(FragmentId(0), edit)]).unwrap();
    let outcome = update.update.as_ref().unwrap();
    assert_eq!(outcome.refreshed_sessions, 1, "only the surviving session has a cache");
    assert_eq!(outcome.recomputed_fragments, 1, "F0, for the surviving session only");

    // The survivor answers from its refreshed cache; the invalidated one
    // pays its cold snapshot now — and both agree with the document.
    let report = server.execute(&q_names).unwrap();
    assert!(report.from_cache);
    assert_eq!(report.max_visits_per_site(), 0);
    assert_eq!(served_answers(&report), centralized_answers(&server, names));
    assert!(report.answer_texts().contains(&"Kimberly".to_string()));
    let report = server.execute(&q_markets).unwrap();
    assert!(!report.from_cache);
    assert!(report.max_visits_per_site() >= 1);
    assert_eq!(served_answers(&report), centralized_answers(&server, markets));
}

/// A cold snapshot is a session round with no ops: it reads **at** the
/// pinned epoch and installs nothing, so any number of first executions at
/// an epoch > 0 leaves every site's version lists as they were.
fn cold_snapshots_install_nothing(server: &PaxServer, fragmented: &FragmentedTree) {
    let f0 = &fragmented.fragments[0].tree;
    let anna = f0.children(f0.find_first("name").unwrap()).next().unwrap();
    let edit = UpdateOp::EditText { node: anna, text: "Anne".into() };
    assert_eq!(server.apply_updates(&[(FragmentId(0), edit)]).unwrap().epoch, 1);
    let before = server.vacuum().unwrap().live_versions;

    for (query, _) in CLIENTELE_QUERY_EXAMPLES {
        let report = server.execute_text(query).unwrap();
        assert!(!report.from_cache, "{query}: the first execution snapshots");
        assert_eq!(report.epoch, 1);
    }
    let after = server.vacuum().unwrap();
    assert_eq!(after.dropped, 0);
    assert_eq!(after.live_versions, before);
}

#[test]
fn cold_snapshots_install_nothing_on_the_simulator() {
    let (_, fragmented) = clientele_fragmentation();
    let server = PaxServer::builder().sites(SITES).deploy(&fragmented).unwrap();
    cold_snapshots_install_nothing(&server, &fragmented);
}

#[test]
fn cold_snapshots_install_nothing_over_tcp() {
    let (_, fragmented) = clientele_fragmentation();
    let addrs: Vec<_> = (0..SITES)
        .map(|_| {
            let site = SiteServer::bind("127.0.0.1:0").expect("bind a site");
            let addr = site.local_addr().expect("site addr");
            // Exits when the cluster's drop sends the shutdown message.
            std::thread::spawn(move || site.run());
            addr
        })
        .collect();
    let transport =
        Arc::new(TcpCluster::connect(&fragmented, &addrs, Placement::RoundRobin).expect("connect"));
    let server = PaxServer::builder().deploy_over(&fragmented, transport).unwrap();
    cold_snapshots_install_nothing(&server, &fragmented);
}
