//! A document as deep as it is large: a 50,000-element chain cut into five
//! fragments on two sites. Every engine must answer it on a 2 MiB thread —
//! the default stack of a spawned Rust thread — so no step on the way
//! (fragmentation, shipping, reassembly, evaluation) may recurse once per
//! tree level.

use paxml::prelude::*;

const DEPTH: usize = 50_000;

#[test]
fn every_engine_answers_a_50000_deep_chain_on_a_small_stack() {
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
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
    worker.unwrap().join().unwrap();
}
