//! Deep input on a 2 MiB thread — the default stack of a spawned Rust
//! thread, and the one every client thread calling the server runs on.
//!
//! A document as deep as it is large: a 50,000-element chain cut into five
//! fragments on two sites. Every engine must answer it, so no step on the
//! way (fragmentation, shipping, reassembly, evaluation) may recurse once
//! per tree level.
//!
//! A query as deep or as long as its text allows: 20,000 nested
//! parentheses, 20,000 nested qualifiers or a 20,000-step path must come
//! back as a typed error from every entry point, and a query at both parser
//! bounds must still be answered.

use paxml::prelude::*;
use paxml::xpath::{XPathError, MAX_QUERY_DEPTH, MAX_QUERY_SIZE};

const DEPTH: usize = 50_000;

/// Run `test` on a thread with a 2 MiB stack.
fn on_small_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(test).unwrap().join().unwrap();
}

fn chain(depth: usize) -> XmlTree {
    let mut tree = XmlTree::with_root_element("a");
    let mut last = tree.root();
    for _ in 1..depth {
        last = tree.append_element(last, "a");
    }
    tree
}

fn server(tree: &XmlTree) -> PaxServer {
    let fragmented = strategy::cut_by_size(tree, tree.node_count() / 3 + 1).unwrap();
    PaxServer::builder().algorithm(Algorithm::PaX2).sites(2).deploy(&fragmented).unwrap()
}

/// `n` nested copies of `open … close` around `inner`.
fn nested(open: &str, inner: &str, close: &str, n: usize) -> String {
    format!("{}{inner}{}", open.repeat(n), close.repeat(n))
}

fn too_large(result: Result<impl std::fmt::Debug, PaxError>, text: &str) {
    match result {
        Err(PaxError::Query(XPathError::QueryTooLarge { .. })) => {}
        other => panic!("`{}…` gave {other:?}", &text[..40]),
    }
}

#[test]
fn hostile_query_text_is_rejected_with_a_typed_error_on_a_small_stack() {
    on_small_stack(|| {
        let server = server(&chain(10));
        for text in [
            format!("a[{}]", nested("(", "a", ")", 20_000)),
            nested("a[", "a", "]", 20_000),
            format!("a{}", "/a".repeat(19_999)),
            // One past each bound, and nothing else wrong.
            format!("a[{}]", nested("(", "a", ")", MAX_QUERY_DEPTH)),
            format!("a[{}]", nested("not ", "a", "", MAX_QUERY_DEPTH)),
            nested("a[", "a", "]", MAX_QUERY_DEPTH + 1),
            format!("a{}", "/a".repeat(MAX_QUERY_SIZE / 2)),
        ] {
            too_large(compile_text(&text).map_err(PaxError::from), &text);
            too_large(server.prepare(&text), &text);
            too_large(server.query_once(&text), &text);
        }
    });
}

#[test]
fn a_query_at_both_bounds_is_answered_on_a_small_stack() {
    on_small_stack(|| {
        // `//a[a[…[a]…]]` nested MAX_QUERY_DEPTH deep, then `/a` steps up to
        // exactly MAX_QUERY_SIZE tokens.
        let head = format!("//{}", nested("a[", "a", "]", MAX_QUERY_DEPTH));
        let head_tokens = 2 + 3 * MAX_QUERY_DEPTH;
        let text = format!("{head}{}", "/a".repeat((MAX_QUERY_SIZE - head_tokens) / 2));
        assert_eq!(head_tokens % 2, MAX_QUERY_SIZE % 2, "the query fills the size bound");
        let tree = chain(MAX_QUERY_SIZE);
        let expected = centralized::evaluate(&tree, &text).unwrap().answers;
        assert!(!expected.is_empty());
        let server = server(&tree);
        server.prepare(&text).unwrap();
        assert_eq!(server.query_once(&text).unwrap().answer_origins(), expected);
    });
}

#[test]
fn every_engine_answers_a_50000_deep_chain_on_a_small_stack() {
    on_small_stack(|| {
        let mut tree = XmlTree::with_root_element("a");
        let mut chain = vec![tree.root()];
        for _ in 1..DEPTH {
            let parent = *chain.last().unwrap();
            chain.push(tree.append_element(parent, "a"));
        }
        let cuts: Vec<_> = (1..5).map(|i| chain[i * DEPTH / 5]).collect();
        let fragmented = fragment_at(&tree, &cuts).unwrap();
        assert_eq!(fragmented.fragment_count(), 5);

        let expected = centralized::evaluate(&tree, "//a").unwrap().answers;
        assert_eq!(expected.len(), DEPTH);
        for algorithm in [Algorithm::PaX2, Algorithm::PaX3, Algorithm::NaiveCentralized] {
            let report = PaxServer::builder()
                .algorithm(algorithm)
                .placement(Placement::RoundRobin)
                .sites(2)
                .deploy(&fragmented)
                .unwrap()
                .query_once("//a")
                .unwrap();
            assert_eq!(report.answer_origins(), expected, "{algorithm:?}");
        }
    });
}
