//! A site checks every fragment it is sent before it installs it
//! ([`Fragment::check`]): a well-formed tree and an origin entry per node.
//! A fragment whose origin map is one entry short used to install, and the
//! first answer from its last node then indexed past the end of the map in
//! `Fragment::origin_of` and panicked the site's task. Now the `Load`
//! fails with the check's typed error and installs nothing; a re-
//! fragmentation install is checked the same way (`paxml-core`'s
//! `refrag_task`).

use paxml_distsim::SiteId;
use paxml_fragment::Fragment;
use paxml_wire::msg::{self, WireReply, WireRequest};
use paxml_wire::SiteServer;
use paxml_xmark::clientele_fragmentation;
use std::net::TcpStream;
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
