//! The kernel's constant path allocates per pass, not per node: growing a
//! constant-only tree sixteen-fold (1k → 16k element groups, 6,001 → 96,001
//! nodes) may add only the few reallocations of the vectors that grow with
//! the output or the widest fan-out — never one allocation per node.
//!
//! A query without qualifiers allocates no per-node table at all: its
//! passes' bytes do not grow with the tree either.
//!
//! The selection sweep runs in the disjunction lane from any init — the
//! root fragment's constants at any width (67 entries here, more than a
//! word holds) and a non-root fragment's fresh variables — so it allocates
//! per pass, not per node, either way.
//!
//! A sweep over a prebuilt label summary, which passes over the subtrees
//! that can hold no answer, allocates no more than one without it.
//!
//! PaX3's Stage 1 keeps its qualifier sweep as the sweep left it — one word
//! per node off the spine — instead of exporting one vector per node: it
//! allocates per pass, and fewer bytes per node than the export.
//!
//! This binary has its own counting `#[global_allocator]`. Counts are kept
//! per thread, so the test harness's other threads do not leak into them.

mod common;

use paxml_boolex::{BoolExpr, CompactVector};
use paxml_xml::{LabelSummary, NodeId, XmlTree};
use paxml_xpath::eval::{
    combined_pass, evaluation_context, initial_vector, multi_combined_pass, qualifier_pass,
    qualifier_sweep, selection_pass, QualVectors, VisitQuery,
};
use paxml_xpath::{compile_text, CompiledQuery, QEntryId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with` is a no-op during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` (no allocation, no destructor) and never influences
// what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's obligations for `alloc` are exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) made by `f` on this thread,
/// and the bytes they requested (a reallocation counts its new size).
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let value = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    drop(value);
    (after.0 - before.0, after.1 - before.1)
}

/// Heap allocations (including reallocations) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    allocated(f).0
}

/// `<site>` over `groups` × `<person><name>…</name><address><country>…`,
/// every other person in the US: 6 nodes per group plus the root.
fn people(groups: usize) -> XmlTree {
    people_named(groups, |i| format!("p{i}"))
}

/// [`people`] with the `i`-th person's name `name(i)`.
fn people_named(groups: usize, name: impl Fn(usize) -> String) -> XmlTree {
    let mut tree = XmlTree::with_root_element("site");
    let site = tree.root();
    for i in 0..groups {
        let person = tree.append_element(site, "person");
        tree.append_leaf(person, "name", name(i));
        let address = tree.append_element(person, "address");
        tree.append_leaf(address, "country", if i % 2 == 0 { "US" } else { "CA" });
    }
    tree
}

/// Allocations of the three public passes over `tree`.
fn pass_allocations(tree: &XmlTree, query: &CompiledQuery) -> [u64; 3] {
    let root = tree.root();
    let init = || CompactVector::from_bools(&initial_vector(query, "site"));
    let context = evaluation_context(query, root);
    let no_virtual = |_: NodeId| -> QualVectors<u8> { unreachable!("constant-only tree") };
    let combined = allocations(|| {
        combined_pass::<u8>(tree, root, query, init(), context, no_virtual, |_, _| 0)
    });
    let qualifier = allocations(|| qualifier_pass::<u8>(tree, root, query, no_virtual));
    let quals = qualifier_pass::<u8>(tree, root, query, no_virtual);
    let mut qual_value =
        |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().expect("swept").expr(e);
    let init = init();
    let selection =
        allocations(|| selection_pass::<u8>(tree, root, query, init, context, &mut qual_value));
    [combined, qualifier, selection]
}

#[test]
fn constant_path_allocations_do_not_grow_with_the_tree() {
    let small = people(1_000);
    let large = people(16_000);
    assert_eq!((small.node_count(), large.node_count()), (6_001, 96_001));
    let mut grown = Vec::new();
    let texts =
        ["/site/person[address/country=\"US\"]/name", "//person/name", "/site/person[2]/name"];
    // `//*` × 33 carries 67 constant entries, more than one word holds.
    for text in texts.map(str::to_string).into_iter().chain([common::deep_selection_query()]) {
        let query = compile_text(&text).expect("query compiles");
        let at_small = pass_allocations(&small, &query);
        let at_large = pass_allocations(&large, &query);
        let passes = ["combined_pass", "qualifier_pass", "selection_pass"];
        for (pass, (s, l)) in passes.iter().zip(at_small.iter().zip(&at_large)) {
            println!("{text:45.45} {pass:15} {s:>8} → {l:>8} allocations");
            if l.saturating_sub(*s) > 16 {
                grown.push(format!("{pass} for {text}: {s} → {l}"));
            }
        }
    }
    assert!(grown.is_empty(), "the constant path allocates per node: {grown:#?}");
}

/// Bytes a qualifier-free query's qualifier pass allocates over `tree`, and
/// the qualifier sweep's share of its PaX2 visit: the combined pass's bytes
/// less those of the selection pass it shares its selection sweep with.
fn qualifier_free_bytes(tree: &XmlTree, query: &CompiledQuery) -> [u64; 2] {
    let root = tree.root();
    let init = CompactVector::from_bools(&initial_vector(query, "site"));
    let context = evaluation_context(query, root);
    let no_virtual = |_: NodeId| -> QualVectors<u8> { unreachable!("constant-only tree") };
    let mut no_qualifier =
        |_: NodeId, _: QEntryId| -> BoolExpr<u8> { unreachable!("no qualifier") };
    let (_, qualifier) = allocated(|| qualifier_pass::<u8>(tree, root, query, no_virtual));
    let (_, combined) = allocated(|| {
        combined_pass::<u8>(tree, root, query, init.clone(), context, no_virtual, |_, _| 0)
    });
    let (_, selection) = allocated(|| {
        selection_pass::<u8>(tree, root, query, init.clone(), context, &mut no_qualifier)
    });
    [qualifier, combined - selection]
}

#[test]
fn qualifier_free_passes_allocate_no_per_node_table() {
    let small = people(1_000);
    let large = people(16_000);
    let mut grown = Vec::new();
    for text in ["/site/person/name", "//person/name"] {
        let query = compile_text(text).expect("query compiles");
        assert!(!query.has_qualifiers());
        let at_small = qualifier_free_bytes(&small, &query);
        let at_large = qualifier_free_bytes(&large, &query);
        let parts = ["qualifier_pass", "combined − selection"];
        for (part, (s, l)) in parts.iter().zip(at_small.iter().zip(&at_large)) {
            println!("{text:45} {part:22} {s:>10} → {l:>10} bytes");
            if l > s {
                grown.push(format!("{part} for {text}: {s} → {l} bytes"));
            }
        }
    }
    assert!(grown.is_empty(), "a qualifier-free pass allocates per node: {grown:#?}");
}

/// Allocations of the two passes that run a selection sweep over `tree`
/// from fresh variables, as a non-root fragment's visit does.
fn symbolic_pass_allocations(tree: &XmlTree, query: &CompiledQuery) -> [u64; 2] {
    let root = tree.root();
    let init = || CompactVector::fresh_variables(query.init_len(), |i| i as u8);
    let no_virtual = |_: NodeId| -> QualVectors<u8> { unreachable!("no virtual node") };
    let combined =
        allocations(|| combined_pass::<u8>(tree, root, query, init(), None, no_virtual, |_, _| 0));
    let quals = qualifier_pass::<u8>(tree, root, query, no_virtual);
    let mut qual_value =
        |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().expect("swept").expr(e);
    let init = init();
    let selection =
        allocations(|| selection_pass::<u8>(tree, root, query, init, None, &mut qual_value));
    [combined, selection]
}

#[test]
fn symbolic_init_allocations_do_not_grow_with_the_tree() {
    let small = people(1_000);
    let large = people(16_000);
    let mut grown = Vec::new();
    // Every person carries a variable down to `zip`, which never matches:
    // the sweep stays symbolic and produces no candidate.
    for text in ["//person/address/zip", "//person[address/country=\"US\"]/zip"] {
        let query = compile_text(text).expect("query compiles");
        let at_small = symbolic_pass_allocations(&small, &query);
        let at_large = symbolic_pass_allocations(&large, &query);
        for (pass, (s, l)) in
            ["combined_pass", "selection_pass"].iter().zip(at_small.iter().zip(&at_large))
        {
            println!("{text:45} {pass:15} {s:>8} → {l:>8} allocations");
            if l.saturating_sub(*s) > 16 {
                grown.push(format!("{pass} for {text}: {s} → {l}"));
            }
        }
    }
    assert!(grown.is_empty(), "a symbolic-init sweep allocates per node: {grown:#?}");
}

/// Allocations of `query`'s PaX2 visit of `tree`, from the root fragment's
/// facts and from fresh variables, each without a label summary and over
/// one built beforehand.
fn summary_pass_allocations(tree: &XmlTree, query: &CompiledQuery) -> [u64; 4] {
    let root = tree.root();
    let summary = LabelSummary::of(tree);
    let no_virtual = |_: usize, _: NodeId| -> QualVectors<u8> { unreachable!("no virtual node") };
    let facts = VisitQuery {
        query,
        init: CompactVector::from_bools(&initial_vector(query, "site")),
        context: evaluation_context(query, root),
    };
    let fresh = VisitQuery {
        query,
        init: CompactVector::fresh_variables(query.init_len(), |i| i as u8),
        context: None,
    };
    let visit = |start: &VisitQuery<u8>, summary| {
        let queries = std::slice::from_ref(start);
        allocations(|| multi_combined_pass::<u8>(tree, root, queries, summary, no_virtual))
    };
    [
        visit(&facts, None),
        visit(&facts, Some(&summary)),
        visit(&fresh, None),
        visit(&fresh, Some(&summary)),
    ]
}

#[test]
fn a_pass_over_a_label_summary_allocates_no_more_than_one_without() {
    let small = people(1_000);
    let large = people(16_000);
    let mut problems = Vec::new();
    let texts = [
        "/site/person[address/country=\"US\"]/name",
        "//person/name",
        "//person/address/zip",
        "/site/person[2]/name",
    ];
    for text in texts.map(str::to_string).into_iter().chain([common::deep_selection_query()]) {
        let query = compile_text(&text).expect("query compiles");
        let at_small = summary_pass_allocations(&small, &query);
        let at_large = summary_pass_allocations(&large, &query);
        // 67 fresh variables are more than the disjunction lane has bits
        // for: that sweep runs the arena lane, with or without a summary.
        let starts: &[_] =
            if query.init_len() > 62 { &[("facts", 0)] } else { &[("facts", 0), ("fresh", 2)] };
        for &(start, pair) in starts {
            let (walked, passed) = (at_large[pair], at_large[pair + 1]);
            println!(
                "{text:45.45} {start}: {} → {passed} over a summary, {} → {walked} without",
                at_small[pair + 1],
                at_small[pair],
            );
            if at_small[pair + 1] > at_small[pair] || passed > walked {
                problems.push(format!("{text} from {start}: the summary allocates more"));
            }
            if passed.saturating_sub(at_small[pair + 1]) > 16 {
                problems.push(format!("{text} from {start}: a summary pass allocates per node"));
            }
        }
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

/// Heap blocks and bytes of PaX3's parking [`qualifier_sweep`] over `tree`,
/// and of [`qualifier_pass`], which exports a vector per node from it.
fn parking_sweep_allocations(tree: &XmlTree, query: &CompiledQuery) -> [(u64, u64); 2] {
    let root = tree.root();
    let no_virtual = |_: NodeId| -> QualVectors<u8> { unreachable!("constant-only tree") };
    [
        allocated(|| qualifier_sweep::<u8>(tree, root, query, None, no_virtual)),
        allocated(|| qualifier_pass::<u8>(tree, root, query, no_virtual)),
    ]
}

#[test]
fn the_parking_sweep_allocates_per_pass_and_fewer_bytes_than_the_export() {
    let small = people(1_000);
    let large = people(16_000);
    let nodes = large.node_count() as u64;
    let mut problems = Vec::new();
    let texts = [
        "/site/person[address/country=\"US\"]/name",
        "//person[name/text()=\"p7\" or not(address/country)]/name",
    ];
    for text in texts {
        let query = compile_text(text).expect("query compiles");
        let [(s, _), _] = parking_sweep_allocations(&small, &query);
        let [(l, parked), (_, exported)] = parking_sweep_allocations(&large, &query);
        let per_node = |bytes: u64| bytes as f64 / nodes as f64;
        println!(
            "{text:45.45} qualifier_sweep {s:>6} → {l:>6} allocations, {:.1} bytes/node \
             (qualifier_pass {:.1})",
            per_node(parked),
            per_node(exported),
        );
        if l.saturating_sub(s) > 16 {
            problems.push(format!("{text}: the parking sweep allocates per node: {s} → {l}"));
        }
        if parked >= exported {
            problems.push(format!("{text}: {parked} bytes parked, {exported} exported"));
        }
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

/// The union phase runs each `QVect` as a program compiled once per sweep:
/// its blocks (the atom and op lists) are a constant of the query, and a
/// node runs it without allocating. So a qualifier sweep over a
/// constant-only tree allocates exactly as many blocks at 96,001 nodes as
/// at 6,001, for queries holding every entry kind the program compiles:
/// label, element, text, number and attribute tests, steps with and
/// without a continuation, counted folds, `not`, `and` and `or`.
#[test]
fn the_qualifier_program_allocates_per_sweep_not_per_node() {
    let small = people(1_000);
    let large = people(16_000);
    let mut problems = Vec::new();
    let texts = [
        "/site/person[address/country=\"US\"]/name",
        "/site/person[name/text()=\"p7\" or not(address/country)]/name",
        "//person[*/country and name > 3]/name",
        "//person[@id or @id=\"x\" or @n > 3]/address",
        "//person[address[1]/country and name[last()]]/name",
        "/site[person//country=\"CA\"]/person[2]",
    ];
    for text in texts {
        let query = compile_text(text).expect("query compiles");
        let [(s, _), _] = parking_sweep_allocations(&small, &query);
        let [(l, _), _] = parking_sweep_allocations(&large, &query);
        println!("{text:45.45} {} entries: qualifier_sweep {s} → {l} blocks", query.qvect_len());
        if l != s {
            problems.push(format!("{text}: {s} → {l} blocks"));
        }
    }
    assert!(problems.is_empty(), "a qualifier sweep allocates per node: {problems:#?}");
}

/// The label summary a qualifier sweep reads its atoms from is built in one
/// pass whose tables are sized up front: the number table included, which
/// never grows per text that reads as a number. So a build allocates as
/// many blocks at 96,001 nodes as at 6,001, over names that are words and
/// over names that are numbers.
#[test]
fn the_label_summary_allocates_per_build_not_per_node() {
    let mut problems = Vec::new();
    for (kind, numbers) in [("words", false), ("numbers", true)] {
        let name = |i| if numbers { format!(" ${i}.5") } else { format!("p{i}") };
        let (small, large) = (people_named(1_000, name), people_named(16_000, name));
        assert_eq!((small.node_count(), large.node_count()), (6_001, 96_001));
        let (s, l) =
            (allocations(|| LabelSummary::of(&small)), allocations(|| LabelSummary::of(&large)));
        println!("names that are {kind:7}: LabelSummary::of {s} → {l} blocks");
        if l != s {
            problems.push(format!("names that are {kind}: {s} → {l} blocks"));
        }
    }
    assert!(problems.is_empty(), "a label summary allocates per node: {problems:#?}");
}
