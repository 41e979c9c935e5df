//! The byte meter: the encoded size of a message, without producing the
//! encoding.
//!
//! The paper's communication bounds are stated in terms of data volume; the
//! simulator therefore charges every coordinator↔site message with the
//! number of bytes the wire format of [`crate::codec`] uses for it. The
//! meter is not a second description of that format: it runs the codec's
//! own serializer over a sink that counts bytes instead of keeping them, so
//! any `Serialize` message type is measured with zero extra code, without
//! allocating, and always at exactly `encode(value).len()`.
//!
//! Integers cost their **varint** width (LEB128: 7 payload bits per byte;
//! signed values zig-zag first), as do sequence/map/string lengths — a
//! small length or id costs one byte. Floats keep their fixed widths; chars
//! cost their UTF-8 length (1–4 bytes).

use crate::codec::{write_into, Sink};
use serde::Serialize;

/// The encoded size, in bytes, of any serializable value.
pub fn encoded_size<T: Serialize + ?Sized>(value: &T) -> u64 {
    write_into(value, ByteCounter(0)).0
}

/// The sink that counts.
struct ByteCounter(u64);

impl Sink for ByteCounter {
    fn put_byte(&mut self, _byte: u8) {
        self.0 += 1;
    }
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
    /// Closed form of the default loop: 7 payload bits per byte.
    fn put_varint(&mut self, v: u64) {
        self.0 += if v == 0 { 1 } else { (64 - u64::from(v.leading_zeros())).div_ceil(7) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Example {
        id: u32,
        name: String,
        values: Vec<u64>,
        flag: Option<bool>,
    }

    #[test]
    fn primitives_have_varint_sizes() {
        assert_eq!(encoded_size(&true), 1);
        assert_eq!(encoded_size(&7u32), 1);
        assert_eq!(encoded_size(&300u32), 2);
        assert_eq!(encoded_size(&7u64), 1);
        assert_eq!(encoded_size(&u64::MAX), 10);
        assert_eq!(encoded_size(&-1i64), 1, "zig-zag keeps small negatives small");
        assert_eq!(encoded_size(&-64i32), 1);
        assert_eq!(encoded_size(&64i32), 2);
        assert_eq!(encoded_size(&1.5f64), 8);
        assert_eq!(encoded_size(&'x'), 1);
        assert_eq!(encoded_size(&'€'), 3);
        assert_eq!(encoded_size("ab"), 1 + 2);
    }

    #[test]
    fn structs_sum_their_fields() {
        let e = Example { id: 1, name: "hello".into(), values: vec![1, 2, 3], flag: Some(true) };
        // 1 (id) + 1+5 (name) + 1 + 3*1 (values) + 1+1 (flag)
        assert_eq!(encoded_size(&e), 1 + 6 + 4 + 2);
    }

    #[test]
    fn size_grows_with_content() {
        let small = vec!["a".to_string(); 2];
        let large = vec!["a".to_string(); 200];
        assert!(encoded_size(&large) > encoded_size(&small) * 50);
    }

    #[test]
    fn enums_count_their_discriminant() {
        #[derive(Serialize)]
        enum E {
            A,
            B(u32),
            C { x: u64 },
        }
        assert_eq!(encoded_size(&E::A), 1);
        assert_eq!(encoded_size(&E::B(1)), 2);
        assert_eq!(encoded_size(&E::C { x: 1 }), 2);
    }

    #[test]
    fn xml_trees_and_formula_vectors_are_measurable() {
        use paxml_xml::TreeBuilder;
        let tree = TreeBuilder::new("a").leaf("b", "text").build();
        let size = encoded_size(&tree);
        assert!(size > 10);
        let bigger = TreeBuilder::new("a")
            .with(|t, c| {
                for i in 0..100 {
                    t.append_leaf(c, "b", format!("text{i}"));
                }
            })
            .build();
        assert!(encoded_size(&bigger) > size * 50);
    }
}
