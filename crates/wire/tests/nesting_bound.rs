//! Hostile nesting on the wire. Every reply the coordinator decodes can
//! carry Boolean formulas, and a formula nests one level per `Not`, `And` or
//! `Or`. A frame nesting them deeper than the codec's budget
//! ([`MAX_NESTING`]) must come back as a [`CodecError`] on a thread with a
//! 2 MiB stack, instead of overflowing the stack and aborting the process;
//! a formula within the budget still decodes there.
//!
//! CI runs this file in release, next to the other codec tests.

use paxml_boolex::BoolExpr;
use paxml_wire::codec::MAX_NESTING;
use paxml_wire::{decode, encode, CodecError};
use paxml_xpath::{MAX_QUERY_DEPTH, MAX_QUERY_SIZE};

/// The stack of a spawned thread unless the program asks for more.
const SMALL_STACK: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(task: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(SMALL_STACK).spawn(task).unwrap();
    thread.join().expect("the decoding thread died")
}

/// The bytes of `depth` nested `wrap`s around `Const(true)`: the prefix of
/// one `wrap` level repeated `depth` times, then the constant. The layout is
/// read off the encoder, so the bytes are exactly what a site would send.
fn chain(depth: usize, wrap: fn(BoolExpr<u32>) -> BoolExpr<u32>) -> Vec<u8> {
    let leaf = encode(&BoolExpr::<u32>::Const(true));
    let one = encode(&wrap(BoolExpr::Const(true)));
    let prefix = &one[..one.len() - leaf.len()];
    let mut bytes = prefix.repeat(depth);
    bytes.extend_from_slice(&leaf);
    bytes
}

fn not(inner: BoolExpr<u32>) -> BoolExpr<u32> {
    BoolExpr::Not(Box::new(inner))
}

/// A one-operand `And`: not a normalized formula, but a well-formed frame,
/// and the shape that nests through sequences rather than boxes.
fn and(inner: BoolExpr<u32>) -> BoolExpr<u32> {
    BoolExpr::And(vec![inner])
}

fn decoded(bytes: Vec<u8>) -> Result<BoolExpr<u32>, CodecError> {
    on_small_stack(move || decode::<BoolExpr<u32>>(&bytes))
}

#[test]
fn a_formula_bomb_is_refused_with_a_codec_error_on_a_small_stack() {
    for (shape, wrap) in [("Not", not as fn(_) -> _), ("And", and)] {
        let bomb = chain(100_000, wrap);
        let error = decoded(bomb).expect_err("a 100,000-deep formula decoded");
        assert!(error.to_string().contains("nesting deeper than"), "{shape}: {error}");
    }
}

#[test]
fn a_formula_at_the_budget_decodes_and_one_level_more_does_not() {
    for (shape, wrap) in [("Not", not as fn(_) -> _), ("And", and)] {
        let bytes = chain(MAX_NESTING, wrap);
        let back = on_small_stack({
            let bytes = bytes.clone();
            move || {
                let formula = decode::<BoolExpr<u32>>(&bytes).expect("within the budget");
                let again = encode(&formula);
                // Drop the deep tree here, on the small stack, too.
                drop(formula);
                again
            }
        });
        assert_eq!(back, bytes, "{shape}: a formula at the budget re-encodes to its own bytes");
        assert!(decoded(chain(MAX_NESTING + 1, wrap)).is_err(), "{shape}: one level past");
    }
}

/// The budget is derived from the query-text bounds: one formula level per
/// query token, and the query nesting again for the envelope.
#[test]
fn the_budget_follows_the_query_text_bounds() {
    assert_eq!(MAX_NESTING, MAX_QUERY_SIZE + MAX_QUERY_DEPTH);
}
