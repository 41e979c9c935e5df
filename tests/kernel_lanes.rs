//! Which lane the site kernel runs PaX2's visits in, on the benchmark's
//! data and queries: FT2 (the paper's Fig. 6 fragmentation of an XMark
//! document) and the eight `QMIX8` queries. The root fragment starts from
//! the query's initial facts, every other fragment from fresh variables,
//! as PaX2 does; no selection node may need the arena lane.

use paxml_boolex::CompactVector;
use paxml_xpath::compile_text;
use paxml_xpath::eval::{
    combined_pass, evaluation_context, initial_vector, LaneCounts, QualVectors,
};

/// The benchmark's `QMIX8` (`benchmark/src/lib.rs`).
const QMIX8: [&str; 8] = [
    "/sites/site/people/person",
    "/sites/site/open_auctions//annotation",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites/site/people/person/name",
    "//person[address/country=\"US\"]/name",
    "//open_auctions/auction/bidder/increase",
    "/sites/site/regions//item[quantity > 5]/name",
];

/// A variable of a PaX2 visit: `(fragment, vector, entry)`, where vector 0
/// is a fragment's init, 1 a held fragment's `QV` and 2 its `QDV`.
type Var = (usize, u8, usize);

fn add(total: &mut LaneCounts, lanes: LaneCounts) {
    total.word += lanes.word;
    total.disjunction += lanes.disjunction;
    total.arena += lanes.arena;
    total.fast_forwarded += lanes.fast_forwarded;
}

#[test]
fn no_selection_node_of_ft2_qmix8_takes_the_arena_lane() {
    let (_, ft) = paxml_xmark::ft2(2.0, 42);
    let mut total = LaneCounts::default();
    for text in QMIX8 {
        let query = compile_text(text).expect("query compiles");
        let mut lanes = LaneCounts::default();
        for fragment in &ft.fragments {
            let (tree, root, f) = (&fragment.tree, fragment.tree.root(), fragment.id.index());
            let (init, context) = if f == 0 {
                let facts = initial_vector(&query, &fragment.root_label);
                (CompactVector::from_bools(&facts), evaluation_context(&query, root))
            } else {
                (CompactVector::fresh_variables(query.init_len(), |i| (f, 0, i)), None)
            };
            let held = |vnode| {
                let g = tree.kind(vnode).virtual_fragment().expect("asked for virtual nodes only");
                let fresh = |vector| {
                    CompactVector::fresh_variables(query.qvect_len(), move |i| (g, vector, i))
                };
                QualVectors { qv: fresh(1), qdv: fresh(2) }
            };
            let visit = combined_pass::<Var>(tree, root, &query, init, context, held, |_, _| {
                unreachable!("the kernel mints no placeholder")
            });
            let swept = visit.selection_lanes;
            assert_eq!(
                swept.word + swept.disjunction + swept.arena + swept.fast_forwarded,
                tree.node_count() as u64,
                "{text}: every node of fragment {f} counted once"
            );
            add(&mut lanes, swept);
        }
        println!("{text:85} {lanes:?}");
        assert_eq!(lanes.arena, 0, "{text}: selection nodes in the arena lane");
        add(&mut total, lanes);
    }
    assert!(total.disjunction > 0, "the non-root fragments run in the disjunction lane");
}
