//! A warm read is a reference-count bump: a cached PaX2 `execute` hands out
//! its session's answer list by `Arc` instead of copying it, so
//!
//! * what it allocates does not grow with the answers (a document eight
//!   times larger, eight times the answers, the same blocks — at most two);
//! * two reads at one epoch return the same list, and an update that leaves
//!   a query's answers unchanged carries that list into the next epoch;
//! * an update that does change them yields a fresh list, equal to
//!   centralized evaluation of the updated document.
//!
//! This binary has its own counting `#[global_allocator]`. Counts are kept
//! per thread, so the test harness's other threads do not leak into them.

use paxml::prelude::*;
use paxml_fragment::{apply_update, reassemble_with_origin};
use paxml_xml::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` (no allocation, no destructor) and never influences
// what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` is a no-op during thread teardown.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap blocks (allocations and reallocations) `f` asked for on this thread.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// The query of every test: the brokers of US clients. Answers sit in the
/// broker fragments, the deciding country in the root fragment.
const US_BROKERS: &str = "client[country/text()='US']/broker/name";

/// `clients` clients, every other one in the US, each with one broker, cut
/// at the brokers: fragment `i + 1` holds client `i`'s broker.
fn clientele(clients: usize) -> FragmentedTree {
    let mut builder = TreeBuilder::new("clientele");
    for i in 0..clients {
        let country = if i % 2 == 0 { "US" } else { "Canada" };
        builder = builder
            .open("client")
            .leaf("name", format!("client {i}"))
            .leaf("country", country)
            .open("broker")
            .leaf("name", format!("broker {i}"))
            .close()
            .close();
    }
    strategy::cut_at_labels(&builder.build(), &["broker"]).unwrap()
}

fn server(fragmented: &FragmentedTree) -> PaxServer {
    PaxServer::builder().algorithm(Algorithm::PaX2).sites(3).deploy(fragmented).unwrap()
}

/// Rename the broker of client `client` (in fragment `client + 1`).
fn rename_broker(fragmented: &FragmentedTree, client: usize, name: &str) -> (FragmentId, UpdateOp) {
    let tree = &fragmented.fragments[client + 1].tree;
    let text = tree.children(tree.find_first("name").unwrap()).next().unwrap();
    (FragmentId(client + 1), UpdateOp::EditText { node: text, text: name.into() })
}

fn answers_of(report: &ExecReport) -> &Arc<[AnswerItem]> {
    &report.queries[0].answers
}

#[test]
fn a_warm_execute_allocates_the_same_few_blocks_at_any_answer_count() {
    let mut counts = Vec::new();
    for clients in [16, 128] {
        let server = server(&clientele(clients));
        let query = server.prepare(US_BROKERS).unwrap();
        assert!(!server.execute(&query).unwrap().from_cache, "the first execution snapshots");
        server.execute(&query).unwrap();
        let (count, report) = blocks(|| server.execute(&query).unwrap());
        assert!(report.from_cache);
        assert_eq!(report.answers().len(), clients / 2);
        counts.push(count);
    }
    println!("blocks per warm execute at 8 and 64 answers: {counts:?}");
    assert_eq!(counts[0], counts[1], "a warm execute allocates per answer");
    assert!(counts[1] <= 2, "a warm execute allocates {} blocks", counts[1]);
}

#[test]
fn warm_reads_share_one_list_until_an_update_changes_the_answers() {
    let fragmented = clientele(8);
    let server = server(&fragmented);
    let query = server.prepare(US_BROKERS).unwrap();
    let first = server.execute(&query).unwrap();
    let second = server.execute(&query).unwrap();
    assert!(Arc::ptr_eq(answers_of(&first), answers_of(&second)));

    // Client 1 is Canadian: renaming its broker dirties a fragment the query
    // reads, whose resolved answers stay empty, so the list is carried over.
    let unchanging = rename_broker(&fragmented, 1, "Questrade");
    let update = server.apply_updates(std::slice::from_ref(&unchanging)).unwrap();
    assert_eq!(update.update.as_ref().unwrap().recomputed_fragments, 1);
    let carried = server.execute(&query).unwrap();
    assert_eq!(carried.epoch, second.epoch + 1);
    assert!(Arc::ptr_eq(answers_of(&second), answers_of(&carried)));

    // Client 2 is in the US: renaming its broker changes the answers.
    let changing = rename_broker(&fragmented, 2, "Fidelity");
    server.apply_updates(std::slice::from_ref(&changing)).unwrap();
    let changed = server.execute(&query).unwrap();
    assert!(changed.from_cache);
    assert!(!Arc::ptr_eq(answers_of(&carried), answers_of(&changed)));

    let mut mirror = fragmented.clone();
    for (fragment, op) in [unchanging, changing] {
        apply_update(&mut mirror.fragments[fragment.index()], &op).unwrap();
    }
    let (tree, origin) = reassemble_with_origin(&mirror).unwrap();
    let mut expected: Vec<(NodeId, Option<String>)> = centralized::evaluate(&tree, US_BROKERS)
        .unwrap()
        .answers
        .into_iter()
        .map(|n| (NodeId::from_index(origin[n.index()] as usize), tree.text_of(n)))
        .collect();
    expected.sort();
    let served: Vec<(NodeId, Option<String>)> =
        changed.answers().iter().map(|a| (a.origin, a.text.clone())).collect();
    assert_eq!(served, expected);
    assert!(changed.answer_texts().contains(&"Fidelity".to_string()));
}
