//! A site checks every fragment it is sent before it installs it
//! ([`Fragment::check`]): a well-formed tree and an origin entry per node.
//! A fragment whose origin map is one entry short used to install, and the
//! first answer from its last node then indexed past the end of the map in
//! `Fragment::origin_of` and panicked the site's task. Now the `Load`
//! fails with the check's typed error and installs nothing; a re-
//! fragmentation install is checked the same way (`paxml-core`'s
//! `refrag_task`).
//!
//! The subtree an `UpdateOp::InsertSubtree` carries is checked the same
//! way before a site walks it: one whose child link points past its arena
//! used to panic the update's site task, and is now a rejected op.

use paxml_core::{Algorithm, PaxServer};
use paxml_distsim::codec::{decode, encode};
use paxml_distsim::{Placement, SiteId};
use paxml_fragment::{Fragment, FragmentId, UpdateOp};
use paxml_wire::msg::{self, WireReply, WireRequest};
use paxml_wire::{SiteServer, TcpCluster};
use paxml_xmark::clientele_fragmentation;
use paxml_xml::{NodeId, TreeBuilder, XmlTree};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

/// Send `request` over `stream` and read the reply.
fn ask(stream: &mut TcpStream, request: &WireRequest) -> WireReply {
    msg::send(stream, request).expect("send");
    msg::recv(stream).expect("receive")
}

#[test]
fn a_fragment_whose_origin_map_is_one_entry_short_is_not_installed() {
    let server = SiteServer::bind("127.0.0.1:0").expect("bind site server");
    let addr = server.local_addr().expect("local addr");
    let site = thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).expect("connect");
    assert!(matches!(
        ask(&mut stream, &WireRequest::Hello { site: SiteId(0) }),
        WireReply::Hello { .. }
    ));

    let (_, fragmented) = clientele_fragmentation();
    let good: Fragment = fragmented.fragments[1].clone();
    let mut short = fragmented.fragments[0].clone();
    short.origin.pop();
    assert!(short.check().is_err() && good.check().is_ok());

    // One bad fragment fails the whole load: neither is installed.
    let load = WireRequest::Load { fragments: vec![good.clone(), short] };
    match ask(&mut stream, &load) {
        WireReply::Error { message } => {
            assert!(message.contains("malformed fragment F0"), "{message}");
            assert!(message.contains("origin entries"), "{message}");
        }
        other => panic!("a fragment one origin entry short was loaded: {other:?}"),
    }
    match ask(&mut stream, &WireRequest::SiteLoad) {
        WireReply::SiteLoad { report } => assert!(report.fragments.is_empty(), "{report:?}"),
        other => panic!("expected a SiteLoad reply, got {other:?}"),
    }

    // The connection and the site stay usable.
    match ask(&mut stream, &WireRequest::Load { fragments: vec![good] }) {
        WireReply::Loaded { fragments } => assert_eq!(fragments, 1),
        other => panic!("a well-formed fragment was refused: {other:?}"),
    }
    assert!(matches!(ask(&mut stream, &WireRequest::Shutdown), WireReply::ShuttingDown));
    site.join().expect("site thread").expect("site server");
}

/// `<client><name>Kim</name></client>` as it decodes from bytes whose root
/// names a first child one past the end of its three-node arena.
fn subtree_linking_past_its_arena() -> XmlTree {
    let tree = TreeBuilder::new("client").leaf("name", "Kim").build();
    let count = tree.node_count() as u32;
    let mut bytes = encode(&tree.node_count());
    for i in 0..tree.node_count() {
        let node = tree.node(NodeId::from_index(i));
        let mut links = [
            node.parent(),
            node.first_child(),
            node.last_child(),
            node.next_sibling(),
            node.prev_sibling(),
        ]
        .map(|link| link.map(|id| id.index() as u32));
        if i == tree.root().index() {
            links[1] = Some(count);
        }
        bytes.extend(encode(tree.kind(NodeId::from_index(i))));
        for link in links {
            bytes.extend(encode(&link));
        }
    }
    bytes.extend(encode(&(tree.root().index() as u32)));
    let decoded: XmlTree = decode(&bytes).expect("the patch keeps the layout");
    assert!(decoded.validate().is_err());
    decoded
}

#[test]
fn an_insert_whose_subtree_links_past_its_arena_is_rejected() {
    let (_, fragmented) = clientele_fragmentation();
    let sim = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .sites(2)
        .placement(Placement::RoundRobin)
        .deploy(&fragmented)
        .expect("deploy simulator server");
    let addrs: Vec<_> = (0..2)
        .map(|_| {
            let server = SiteServer::bind("127.0.0.1:0").expect("bind site server");
            let addr = server.local_addr().expect("local addr");
            thread::spawn(move || server.run());
            addr
        })
        .collect();
    let transport =
        Arc::new(TcpCluster::connect(&fragmented, &addrs, Placement::RoundRobin).expect("connect"));
    let tcp = PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .deploy_over(&fragmented, transport)
        .expect("deploy TCP server");

    let parent = fragmented.fragments[0].tree.root();
    let insert = UpdateOp::InsertSubtree {
        parent,
        subtree: subtree_linking_past_its_arena(),
        origin_base: 500,
    };
    let query = "//client/name";
    for (server, transport) in [(&sim, "simulator"), (&tcp, "TCP")] {
        let before = server.query_once(query).expect("query before").queries[0].answers.clone();
        let report = server
            .apply_updates(&[(FragmentId(0), insert.clone())])
            .unwrap_or_else(|e| panic!("{transport}: the update failed as a whole: {e}"));
        let outcome = report.update.expect("an update report");
        assert_eq!(outcome.applied_ops, 0, "{transport}");
        let reason = &outcome.rejected[&FragmentId(0)];
        assert!(reason.contains("inserted subtree"), "{transport}: {reason}");
        let after = server.query_once(query).expect("query after").queries[0].answers.clone();
        assert_eq!(after, before, "{transport}: the rejected insert changed the answers");
    }
}
