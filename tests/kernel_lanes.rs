//! Which lane the site kernel runs PaX2's visits in, and what a batch's
//! visit shares, on the benchmark's data and queries: FT2 (the paper's
//! Fig. 6 fragmentation of an XMark document) and the eight `QMIX8`
//! queries. The root fragment starts from the query's initial facts, every
//! other fragment from fresh variables, as PaX2 does; every selection node
//! must run in the disjunction lane (or be fast-forwarded) — none in the word
//! lane, which only the qualifier sweep's union phase runs, and none in the
//! arena lane — and the eight queries' visit of a fragment must equal their
//! eight single visits while sweeping their qualifiers once. Over each
//! fragment's label summary the visit passes over the subtrees that can hold
//! no answer: the same outputs, fewer selection nodes computed.

use paxml_boolex::CompactVector;
use paxml_fragment::Fragment;
use paxml_xml::{LabelSummary, NodeId};
use paxml_xpath::eval::{
    combined_pass, evaluation_context, initial_vector, multi_combined_pass, CombinedPassOutput,
    LaneCounts, QualVectors, VisitQuery,
};
use paxml_xpath::{compile_text, CompiledQuery};

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

/// How PaX2 starts `query`'s visit of `fragment`: the initial facts at the
/// root fragment, fresh variables elsewhere.
fn visit_query<'q>(fragment: &Fragment, query: &'q CompiledQuery) -> VisitQuery<'q, Var> {
    let (root, f) = (fragment.tree.root(), fragment.id.index());
    let (init, context) = if f == 0 {
        let facts = initial_vector(query, &fragment.root_label);
        (CompactVector::from_bools(&facts), evaluation_context(query, root))
    } else {
        (CompactVector::fresh_variables(query.init_len(), |i| (f, 0, i)), None)
    };
    VisitQuery { query, init, context }
}

/// Fresh `QV`/`QDV` variables of `qlen` entries for the fragment a virtual
/// node of `fragment` stands for.
fn held(fragment: &Fragment, qlen: usize, vnode: NodeId) -> QualVectors<Var> {
    let g = fragment.tree.kind(vnode).virtual_fragment().expect("asked for virtual nodes only");
    let fresh = |vector| CompactVector::fresh_variables(qlen, move |i| (g, vector, i));
    QualVectors { qv: fresh(1), qdv: fresh(2) }
}

/// `query`'s single PaX2 visit of `fragment`.
fn single_visit(fragment: &Fragment, query: &CompiledQuery) -> CombinedPassOutput<Var> {
    let (tree, root) = (&fragment.tree, fragment.tree.root());
    let VisitQuery { init, context, .. } = visit_query(fragment, query);
    let held = |vnode| held(fragment, query.qvect_len(), vnode);
    combined_pass::<Var>(tree, root, query, init, context, held, |_, _| {
        unreachable!("the kernel mints no placeholder")
    })
}

#[test]
fn no_selection_node_of_ft2_qmix8_takes_the_arena_lane() {
    let (document, ft) = paxml_xmark::ft2(2.0, 42);
    let mut total = LaneCounts::default();
    for text in QMIX8 {
        let query = compile_text(text).expect("query compiles");
        let mut lanes = LaneCounts::default();
        for fragment in &ft.fragments {
            let (tree, f) = (&fragment.tree, fragment.id.index());
            let swept = single_visit(fragment, &query).selection_lanes;
            assert_eq!(
                swept.word + swept.disjunction + swept.arena + swept.fast_forwarded,
                tree.node_count() as u64,
                "{text}: every node of fragment {f} counted once"
            );
            assert_eq!(swept.word, 0, "{text}: fragment {f}'s selection nodes in the word lane");
            add(&mut lanes, swept);
        }
        println!("{text:85} {lanes:?}");
        assert_eq!(lanes.arena, 0, "{text}: selection nodes in the arena lane");
        add(&mut total, lanes);

        // The centralized evaluator: the unfragmented document's visit.
        let root = document.root();
        let facts = initial_vector(&query, document.label(root).expect("an element root"));
        let init = CompactVector::from_bools(&facts);
        let context = evaluation_context(&query, root);
        let whole =
            combined_pass::<Var>(&document, root, &query, init, context, no_virtual, |_, _| {
                unreachable!("the kernel mints no placeholder")
            });
        let LaneCounts { word, arena, .. } = whole.selection_lanes;
        assert_eq!((word, arena), (0, 0), "{text}: the document's selection lanes");
    }
    assert!(total.disjunction > 0, "the selection sweeps run in the disjunction lane");
}

fn no_virtual(_: NodeId) -> QualVectors<Var> {
    unreachable!("the document has no virtual node")
}

#[test]
fn one_qualifier_sweep_of_ft2_serves_all_of_qmix8() {
    let (_, ft) = paxml_xmark::ft2(2.0, 42);
    let queries: Vec<CompiledQuery> =
        QMIX8.iter().map(|text| compile_text(text).expect("query compiles")).collect();
    let with_qualifiers = queries.iter().filter(|q| q.has_qualifiers()).count() as u64;
    for fragment in &ft.fragments {
        let (tree, root, f) = (&fragment.tree, fragment.tree.root(), fragment.id.index());
        let visits: Vec<VisitQuery<Var>> =
            queries.iter().map(|q| visit_query(fragment, q)).collect();
        let batch = multi_combined_pass(tree, root, &visits, None, |i, vnode| {
            held(fragment, queries[i].qvect_len(), vnode)
        });
        let mut summed_ops = 0;
        for ((query, text), got) in queries.iter().zip(QMIX8).zip(&batch.visits) {
            let single = single_visit(fragment, query);
            assert_eq!(got.answers, single.answers, "{text} at fragment {f}: answers");
            assert_eq!(got.candidates, single.candidates, "{text} at fragment {f}: candidates");
            assert_eq!(got.virtual_vectors, single.virtual_vectors, "{text} at {f}: summaries");
            assert_eq!(got.root, single.root, "{text} at fragment {f}: root vectors");
            assert_eq!(got.selection_lanes, single.selection_lanes, "{text} at {f}: lanes");
            summed_ops += single.ops;
        }
        let sharing = batch.sharing;
        let ops = batch.visits.iter().map(|v| v.ops).sum::<u64>() + sharing.union_ops;
        println!("fragment {f:2}: {sharing:?}, ops {ops} of {summed_ops}");
        assert!(ops < summed_ops, "fragment {f}: the batch costs {ops}, its queries {summed_ops}");
        // Nineteen distinct entries of forty, in one union phase: every node
        // off the spine once, every spine node once per query.
        assert_eq!((sharing.union_entries, sharing.summed_entries), (19, 40));
        let nodes = tree.node_count() as u64;
        let spine = tree
            .post_order(root)
            .filter(|&v| tree.is_virtual(v) || tree.descendants(v).any(|d| tree.is_virtual(d)))
            .count() as u64;
        assert_eq!(sharing.union_nodes, nodes - spine, "fragment {f}: union-phase nodes");
        assert_eq!(sharing.spine_nodes, with_qualifiers * spine, "fragment {f}: spine nodes");
    }
}

#[test]
fn a_label_summary_passes_over_hopeless_subtrees_of_ft2() {
    let (_, ft) = paxml_xmark::ft2(2.0, 42);
    let queries: Vec<CompiledQuery> =
        QMIX8.iter().map(|text| compile_text(text).expect("query compiles")).collect();
    let computed = |lanes: LaneCounts| lanes.disjunction + lanes.arena;
    let (mut walked_nodes, mut passed_nodes) = (Vec::new(), Vec::new());
    for fragment in &ft.fragments {
        let (tree, root, f) = (&fragment.tree, fragment.tree.root(), fragment.id.index());
        let visits: Vec<VisitQuery<Var>> =
            queries.iter().map(|q| visit_query(fragment, q)).collect();
        let summary = LabelSummary::of(tree);
        let visit = |summary| {
            multi_combined_pass(tree, root, &visits, summary, |i, vnode| {
                held(fragment, queries[i].qvect_len(), vnode)
            })
        };
        let (walked, passed) = (visit(None), visit(Some(&summary)));
        let (mut walked_sum, mut passed_sum) = (0, 0);
        for ((text, walked), got) in QMIX8.iter().zip(&walked.visits).zip(&passed.visits) {
            assert_eq!(got.answers, walked.answers, "{text} at fragment {f}: answers");
            assert_eq!(got.candidates, walked.candidates, "{text} at {f}: candidates");
            assert_eq!(got.virtual_vectors, walked.virtual_vectors, "{text} at {f}: summaries");
            assert_eq!(got.root, walked.root, "{text} at fragment {f}: root vectors");
            assert_eq!(got.ops, walked.ops, "{text} at fragment {f}: ops");
            let (got, walked) = (got.selection_lanes, walked.selection_lanes);
            assert_eq!(
                computed(got) + got.fast_forwarded,
                computed(walked) + walked.fast_forwarded,
                "{text} at fragment {f}: every node counted once"
            );
            walked_sum += computed(walked);
            passed_sum += computed(got);
        }
        println!("fragment {f:2}: {walked_sum:6} → {passed_sum:6} selection nodes computed");
        walked_nodes.push(walked_sum);
        passed_nodes.push(passed_sum);
    }
    // Per fragment, the eight queries' selection nodes computed.
    assert_eq!(walked_nodes, [1071, 4230, 2478, 3393, 1568, 5540, 3198, 4693, 2023, 1480]);
    assert_eq!(passed_nodes, [264, 844, 256, 524, 152, 1119, 328, 724, 194, 250]);
    let total = |nodes: &[u64]| nodes.iter().sum::<u64>();
    assert!(total(&passed_nodes) < total(&walked_nodes));
}
