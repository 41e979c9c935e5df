//! Packed bit vectors — the constant-path representation of the paper's
//! `QV`/`QDV`/`SV` vectors.
//!
//! At every node that is *not* adjacent to a virtual node, all vector
//! entries are already known truth values. Storing them as one bit each (in
//! `u64` words) instead of one heap-allocated [`crate::BoolExpr`] each lets
//! the child-fold loops of the evaluation passes run word-wise: 64 entries
//! per AND/OR instruction instead of one enum match per entry.
//!
//! A vector has one entry per sub-query, so it is short: up to 64 entries it
//! keeps its one word inline, and building, cloning and folding it never
//! touches the heap; only a longer vector spills its `⌈len/64⌉` words to a
//! `Vec`:
//!
//! ```text
//! len ≤ 64   BitVector { len, Inline(w) }           no heap; len 0 has no word
//! len > 64   BitVector { len, Spilled(Vec<u64>) }   ⌈len/64⌉ heap words
//! ```
//!
//! The layout is private: every method goes through one slice view of the
//! words ([`BitVector::words`] and its private mutable twin), and the wire
//! form is the `{len, words}` pair either way.

use serde::de::{Deserialize, Deserializer, Error as _};
use serde::ser::{Serialize, SerializeStruct as _, Serializer};

/// A fixed-length vector of booleans packed 64 to a `u64` word.
///
/// Invariants: bits at positions `>= len` are always zero, and a vector of
/// `len ≤ 64` is always inline (`len > 64` always spilled), so one value has
/// exactly one in-memory form and the derived `==`/`Hash` are canonical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    len: usize,
    words: Words,
}

/// The backing words: one inline word up to 64 entries, a heap `Vec` beyond.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline(u64),
    Spilled(Vec<u64>),
}

/// Number of `u64` words needed for `len` bits.
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// The bits of the last word that lie below `len` (all of them when `len`
/// fills the word).
fn tail_mask(len: usize) -> u64 {
    match len % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    }
}

impl BitVector {
    /// A vector of `len` entries, every word set to `word` (tail masked).
    fn filled(len: usize, word: u64) -> Self {
        let words = if len <= 64 {
            Words::Inline(if len == 0 { 0 } else { word & tail_mask(len) })
        } else {
            let mut words = vec![word; words_for(len)];
            *words.last_mut().expect("len > 64 has words") &= tail_mask(len);
            Words::Spilled(words)
        };
        BitVector { len, words }
    }

    /// A vector of `len` entries, all `false`.
    pub fn all_false(len: usize) -> Self {
        BitVector::filled(len, 0)
    }

    /// A vector of `len` entries, all `true`.
    pub fn all_true(len: usize) -> Self {
        BitVector::filled(len, u64::MAX)
    }

    /// A vector of `len ≤ 64` entries whose entry `i` is bit `i` of `word`
    /// (bits at positions `>= len` are dropped). No heap allocation.
    pub fn from_word(len: usize, word: u64) -> Self {
        assert!(len <= 64, "{len} entries do not fit one word");
        BitVector::filled(len, word)
    }

    /// Build from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = BitVector::all_false(bools.len());
        let words = v.words_mut();
        for (i, &b) in bools.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        v
    }

    /// Rebuild a vector from its wire form, rejecting word counts other than
    /// `⌈len/64⌉` and bits set at positions `>= len` — either would break
    /// the canonical form (and the first, bounds on `get`).
    fn from_wire(len: usize, words: Vec<u64>) -> Result<Self, String> {
        if words.len() != words_for(len) {
            return Err(format!(
                "bit vector of {len} entries carries {} words, expected {}",
                words.len(),
                words_for(len)
            ));
        }
        if words.last().is_some_and(|&last| last & !tail_mask(len) != 0) {
            return Err(format!("bit vector of {len} entries has bits set past its length"));
        }
        let words = match words.len() {
            0 | 1 => Words::Inline(words.first().copied().unwrap_or(0)),
            _ => Words::Spilled(words),
        };
        Ok(BitVector { len, words })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing the vector (`⌈len/64⌉` of them) — what a
    /// leaf fragment actually ships over the wire.
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &std::slice::from_ref(w)[..words_for(self.len)],
            Words::Spilled(words) => words,
        }
    }

    /// Mutable view of the same words. Callers keep bits `>= len` zero.
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut std::slice::from_mut(w)[..words_for(self.len)],
            Words::Spilled(words) => words,
        }
    }

    /// Read one entry.
    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len, "bit index {index} out of range {}", self.len);
        self.words()[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Write one entry.
    pub fn set(&mut self, index: usize, value: bool) {
        debug_assert!(index < self.len, "bit index {index} out of range {}", self.len);
        let mask = 1u64 << (index % 64);
        let word = &mut self.words_mut()[index / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Word-wise `self |= other`. Both vectors must have the same length.
    pub fn or_assign(&mut self, other: &BitVector) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// `self` followed by the entries of `tail`, shifted in word-wise (no
    /// heap allocation while the result has at most 64 entries).
    pub fn concat(&self, tail: &BitVector) -> BitVector {
        let mut out = BitVector::all_false(self.len + tail.len);
        let (base, shift) = (self.len / 64, self.len % 64);
        let words = out.words_mut();
        words[..self.words().len()].copy_from_slice(self.words());
        for (k, &w) in tail.words().iter().enumerate() {
            words[base + k] |= w << shift;
            // The bits shifted out land in the next word; when there is
            // none they were past the end, i.e. zero.
            if shift != 0 && base + k + 1 < words.len() {
                words[base + k + 1] |= w >> (64 - shift);
            }
        }
        out
    }

    /// Number of `true` entries.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is any entry `true`?
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// Unpack into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Iterate over the entries as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// The wire form is the `{len, words}` struct the representation had before
/// it kept short vectors inline, byte for byte.
impl Serialize for BitVector {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("BitVector", 2)?;
        st.serialize_field("len", &self.len)?;
        st.serialize_field("words", self.words())?;
        st.end()
    }
}

/// Decoding checks the invariants the derived decoder did not: a hostile
/// `(len 200, words [])` or `(len 3, words [u64::MAX])` is an error, not a
/// vector that panics on `get` or compares unequal to its canonical twin.
impl<'de> Deserialize<'de> for BitVector {
    fn deserialize<D: Deserializer<'de>>(de: &mut D) -> Result<Self, D::Error> {
        let len = usize::deserialize(de)?;
        let words = Vec::<u64>::deserialize(de)?;
        BitVector::from_wire(len, words).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut v = BitVector::all_false(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.words().len(), 2);
        assert!(!v.any());
        v.set(0, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(69) && !v.get(35));
        assert_eq!(v.count_ones(), 2);
        v.set(69, false);
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn all_true_is_canonical() {
        let t = BitVector::all_true(65);
        assert_eq!(t.count_ones(), 65);
        // The 63 unused bits of the second word must be zero so Eq works.
        assert_eq!(t.words()[1], 1);
        let mut built = BitVector::all_false(65);
        for i in 0..65 {
            built.set(i, true);
        }
        assert_eq!(t, built);
    }

    #[test]
    fn short_vectors_are_inline_and_long_ones_spill() {
        assert_eq!(BitVector::all_true(0).words(), &[] as &[u64]);
        assert_eq!(BitVector::all_true(0), BitVector::all_false(0));
        assert!(matches!(BitVector::all_true(64).words, Words::Inline(u64::MAX)));
        assert!(matches!(BitVector::all_false(65).words, Words::Spilled(_)));
        assert_eq!(BitVector::all_true(3).words(), &[0b111]);
        assert_eq!(BitVector::from_word(3, u64::MAX), BitVector::all_true(3));
        assert_eq!(BitVector::from_word(0, u64::MAX), BitVector::all_false(0));
        assert_eq!(BitVector::from_word(64, 0b101).to_bools()[..3], [true, false, true]);
    }

    #[test]
    fn word_wise_ops_match_elementwise() {
        let a = BitVector::from_bools(&[true, false, true, false, true]);
        let b = BitVector::from_bools(&[true, true, false, false, true]);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.to_bools(), vec![true, true, true, false, true]);
    }

    #[test]
    fn concat_matches_bool_concatenation() {
        for (head_len, tail_len) in [(0, 0), (0, 5), (5, 0), (3, 4), (60, 10), (64, 1), (70, 130)] {
            let head: Vec<bool> = (0..head_len).map(|i| i % 3 == 0).collect();
            let tail: Vec<bool> = (0..tail_len).map(|i| i % 2 == 1).collect();
            let joined = BitVector::from_bools(&head).concat(&BitVector::from_bools(&tail));
            let expected: Vec<bool> = head.iter().chain(&tail).copied().collect();
            assert_eq!(joined, BitVector::from_bools(&expected), "{head_len} + {tail_len}");
        }
    }

    #[test]
    fn round_trips_through_bools() {
        let bools: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let v = BitVector::from_bools(&bools);
        assert_eq!(v.to_bools(), bools);
        assert_eq!(v.iter().collect::<Vec<_>>(), bools);
    }
}
