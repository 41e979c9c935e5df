//! `BitVector` on the wire, beside the codec vectors of `byte_vectors.rs`.
//!
//! The vector keeps up to 64 entries inline and spills beyond, but its wire
//! form is still the `{len, words}` struct it used to derive: `encode` must
//! match a reference struct byte for byte, and `decode` must undo it. The
//! hand-written decoder also rejects the two shapes the derived one let
//! through — a word count other than `⌈len/64⌉`, and bits set past `len` —
//! including inside a protocol message (`InitVector::Exact`).

use paxml_boolex::BitVector;
use paxml_core::protocol::InitVector;
use paxml_wire::{decode, encode};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// The layout `BitVector` derived before it kept short vectors inline.
#[derive(Debug, Serialize, Deserialize)]
struct DerivedBits {
    len: usize,
    words: Vec<u64>,
}

/// The reference struct holding exactly the words of `bools`.
fn reference(bools: &[bool]) -> DerivedBits {
    let mut words = vec![0u64; bools.len().div_ceil(64)];
    for (i, &b) in bools.iter().enumerate() {
        words[i / 64] |= (b as u64) << (i % 64);
    }
    DerivedBits { len: bools.len(), words }
}

/// Assert the byte identity and the round trip for one bit pattern.
fn check(bools: &[bool]) -> Result<(), TestCaseError> {
    let packed = BitVector::from_bools(bools);
    let bytes = encode(&packed);
    prop_assert_eq!(&bytes, &encode(&reference(bools)), "len {}", bools.len());
    let back: BitVector = decode(&bytes).expect("canonical bytes decode");
    prop_assert_eq!(back, packed);
    Ok(())
}

#[test]
fn encoding_matches_the_derived_layout_at_the_word_boundaries() {
    for len in [0, 1, 63, 64, 65, 128, 129] {
        check(&vec![false; len]).unwrap();
        check(&vec![true; len]).unwrap();
        check(&(0..len).map(|i| i % 3 == 1).collect::<Vec<_>>()).unwrap();
    }
}

#[test]
fn a_word_count_other_than_len_over_64_is_rejected() {
    // (len 200, words []) used to decode and then panic on `get(150)`.
    let short = encode(&DerivedBits { len: 200, words: vec![] });
    assert!(decode::<BitVector>(&short).is_err());
    let long = encode(&DerivedBits { len: 3, words: vec![1, 0] });
    assert!(decode::<BitVector>(&long).is_err());
    let empty_with_word = encode(&DerivedBits { len: 0, words: vec![0] });
    assert!(decode::<BitVector>(&empty_with_word).is_err());
}

#[test]
fn bits_set_past_len_are_rejected() {
    // (len 3, words [u64::MAX]) used to decode with 64 ones, unequal to
    // `BitVector::all_true(3)`.
    let dirty = encode(&DerivedBits { len: 3, words: vec![u64::MAX] });
    assert!(decode::<BitVector>(&dirty).is_err());
    let dirty_spill = encode(&DerivedBits { len: 65, words: vec![u64::MAX, 0b11] });
    assert!(decode::<BitVector>(&dirty_spill).is_err());
    let clean = encode(&DerivedBits { len: 3, words: vec![0b111] });
    assert_eq!(decode::<BitVector>(&clean), Ok(BitVector::all_true(3)));
}

#[test]
fn a_garbled_init_vector_never_reaches_a_site() {
    // `InitVector::Exact` is variant 0: one tag byte, then the vector.
    for garbled in
        [DerivedBits { len: 200, words: vec![] }, DerivedBits { len: 3, words: vec![u64::MAX] }]
    {
        let mut bytes = vec![0u8];
        bytes.extend(encode(&garbled));
        assert!(decode::<InitVector>(&bytes).is_err(), "{garbled:?} decoded");
    }
    let exact = InitVector::Exact(BitVector::from_bools(&[true, false, true]));
    assert_eq!(decode::<InitVector>(&encode(&exact)), Ok(exact));
}

proptest! {
    #[test]
    fn random_bits_encode_like_the_derived_layout_and_round_trip(
        bools in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        check(&bools)?;
    }
}
