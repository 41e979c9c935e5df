//! The wire format: [`encode`] and [`decode`] for every `Serialize` /
//! `Deserialize` message type, and — through the same serializer — the byte
//! meter [`encoded_size`](crate::encoded_size).
//!
//! The layout is LEB128 varints for unsigned integers, zig-zag-then-varint
//! for signed ones, fixed widths for floats, a one-byte tag per `Option`
//! and per enum variant, varint length prefixes for strings, byte buffers,
//! sequences and maps, and zero overhead for structs and tuples. There is
//! one [`Serializer`] for it, generic over a byte sink: `encode` runs it
//! over a `Vec<u8>` that keeps the bytes, `encoded_size` over a counter that
//! only adds their number. `encode(m).len() == encoded_size(m)` therefore
//! holds **by construction** — the two are one code path, not two impls
//! that agree.
//!
//! That identity is what lets the TCP transport report real frame payload
//! sizes while staying bit-identical to the simulator's accounting — the
//! conformance tests compare total bytes across transports with `==`, not
//! `≈`. `paxml-wire` re-exports this module unchanged as
//! `paxml_wire::codec`.

use serde::de::{self, Deserialize, Deserializer};
use serde::ser::{self, Serialize, Serializer};
use std::fmt::Display;

/// Error raised while encoding or decoding a message.
///
/// Encoding only fails on values outside the format's envelope (an unsized
/// sequence, an enum with ≥ 256 variants); decoding fails on any malformed
/// input: truncated buffers, over-long varints, invalid UTF-8, out-of-range
/// integers, unknown tags, nesting deeper than [`MAX_NESTING`], or trailing
/// garbage.
#[derive(Debug, PartialEq, Eq)]
pub struct CodecError(String);

impl Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// Encode `value` into the compact binary format.
///
/// Every message type in the PaX protocol encodes without error (the only
/// failure modes are unsized sequences and enums with more than 256
/// variants, which the workspace does not contain), so this returns the
/// buffer directly.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    write_into(value, Vec::new())
}

/// Run the one serializer over `sink` and hand the sink back.
pub(crate) fn write_into<T: Serialize + ?Sized, S: Sink>(value: &T, sink: S) -> S {
    let mut writer = WireWriter { out: sink };
    value
        .serialize(&mut writer)
        .expect("every PaX protocol message fits the wire format's envelope");
    writer.out
}

/// The deepest nesting [`decode`] accepts: boxes, sequences and maps inside
/// one another, the envelope included. Past it, decoding fails with a
/// [`CodecError`] instead of recursing further, so a hostile frame cannot
/// overflow the decoding thread's stack; at this depth even a debug build
/// decodes a formula on a 2 MiB thread.
///
/// The one recursive type on the wire is the Boolean formula
/// (`paxml_boolex::BoolExpr`, one level per `Not`, `And` and `Or`).
/// Formulas flatten (no `And` directly under an `And`, no `Or` under an
/// `Or`) and fold constants, so each level of one is owed to a token of its
/// own in the query that made it: a step's label for the `Or` over the
/// nodes the step reaches, a `[` for the `And` of a step's qualifiers, and
/// an `and`, `or` or `not` for its own level. Query text is at most 1,024
/// tokens (`paxml_xpath::MAX_QUERY_SIZE`), so a formula is at most 1,024
/// levels deep. The message around it gets the 64 levels of query nesting
/// (`paxml_xpath::MAX_QUERY_DEPTH`) on top; no message the conformance
/// suites ship nests deeper than 7 levels, formulas included.
pub const MAX_NESTING: usize = 1024 + 64;

/// Decode a value of type `T` from `bytes`.
///
/// The whole buffer must be consumed: trailing bytes are a protocol
/// violation, not padding — a length-prefixed frame carries exactly one
/// message. Nesting deeper than [`MAX_NESTING`] is refused.
pub fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut reader = WireReader { input: bytes, pos: 0, depth: 0 };
    let value = T::deserialize(&mut reader)?;
    if reader.pos != bytes.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after a complete value",
            bytes.len() - reader.pos
        )));
    }
    Ok(value)
}

/// Zig-zag an i64 so small-magnitude values stay small varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Undo [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Where the serializer's output goes.
pub(crate) trait Sink {
    /// Take one byte.
    fn put_byte(&mut self, byte: u8);

    /// Take a run of raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Take `v` as a LEB128 varint: 7 payload bits per byte, low bits first.
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                return self.put_byte(byte);
            }
            self.put_byte(byte | 0x80);
        }
    }
}

impl Sink for Vec<u8> {
    fn put_byte(&mut self, byte: u8) {
        self.push(byte);
    }
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct WireWriter<S> {
    out: S,
}

impl<S: Sink> WireWriter<S> {
    fn put_tag(&mut self, variant_index: u32) -> Result<(), CodecError> {
        // Every variant tag is exactly one byte, so the format cannot
        // represent enums with more than 256 variants.
        u8::try_from(variant_index)
            .map(|tag| self.out.put_byte(tag))
            .map_err(|_| CodecError(format!("enum variant index {variant_index} exceeds one byte")))
    }
}

impl<S: Sink> Serializer for &mut WireWriter<S> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.put_byte(v as u8);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.out.put_byte(v as u8);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.out.put_varint(zigzag(v as i64));
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.out.put_varint(zigzag(v as i64));
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.put_varint(zigzag(v));
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.out.put_byte(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.out.put_varint(v as u64);
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.out.put_varint(v as u64);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.put_varint(v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        // Chars travel as their raw UTF-8 bytes, no length prefix: the
        // decoder recovers the width from the first byte.
        let mut buf = [0u8; 4];
        self.out.put(v.encode_utf8(&mut buf).as_bytes());
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.out.put_varint(v.len() as u64);
        self.out.put(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.out.put_varint(v.len() as u64);
        self.out.put(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.put_byte(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.put_byte(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.put_tag(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.put_tag(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        match len {
            Some(n) => {
                self.out.put_varint(n as u64);
                Ok(self)
            }
            None => Err(CodecError("sequences must declare their length up front".into())),
        }
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put_tag(variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        match len {
            Some(n) => {
                self.out.put_varint(n as u64);
                Ok(self)
            }
            None => Err(CodecError("maps must declare their length up front".into())),
        }
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put_tag(variant_index)?;
        Ok(self)
    }
}

/// Every compound serializer is the writer itself: elements, keys, values
/// and fields are written in order, with no framing of their own.
macro_rules! impl_compound {
    ($trait:path: $($method:ident($($key:ty)?)),+) => {
        impl<S: Sink> $trait for &mut WireWriter<S> {
            type Ok = ();
            type Error = CodecError;
            $(fn $method<T: Serialize + ?Sized>(
                &mut self,
                $(_key: $key,)?
                value: &T,
            ) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            })+
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

impl_compound!(ser::SerializeSeq: serialize_element());
impl_compound!(ser::SerializeTuple: serialize_element());
impl_compound!(ser::SerializeTupleStruct: serialize_field());
impl_compound!(ser::SerializeTupleVariant: serialize_field());
impl_compound!(ser::SerializeMap: serialize_key(), serialize_value());
impl_compound!(ser::SerializeStruct: serialize_field(&'static str));
impl_compound!(ser::SerializeStructVariant: serialize_field(&'static str));

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

struct WireReader<'de> {
    input: &'de [u8],
    pos: usize,
    /// Nesting levels entered and not yet left.
    depth: usize,
}

impl<'de> WireReader<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.input.len()).ok_or_else(|| {
                CodecError(format!("unexpected end of input at byte {}", self.pos))
            })?;
        let slice = &self.input[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn take_varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take_byte()?;
            let payload = (byte & 0x7f) as u64;
            if shift == 63 && payload > 1 {
                return Err(CodecError("varint overflows 64 bits".into()));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError("varint longer than 10 bytes".into()))
    }

    fn take_signed(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.take_varint()?))
    }
}

/// Convert a checked narrowing, reporting the target type on failure.
macro_rules! narrow {
    ($value:expr, $ty:ty) => {{
        let value = $value;
        <$ty>::try_from(value)
            .map_err(|_| CodecError(format!("value {value} out of range for {}", stringify!($ty))))
    }};
}

impl<'de> Deserializer<'de> for WireReader<'de> {
    type Error = CodecError;

    fn read_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid bool byte {other:#04x}"))),
        }
    }
    fn read_i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.take_byte()? as i8)
    }
    fn read_i16(&mut self) -> Result<i16, CodecError> {
        narrow!(self.take_signed()?, i16)
    }
    fn read_i32(&mut self) -> Result<i32, CodecError> {
        narrow!(self.take_signed()?, i32)
    }
    fn read_i64(&mut self) -> Result<i64, CodecError> {
        self.take_signed()
    }
    fn read_u8(&mut self) -> Result<u8, CodecError> {
        self.take_byte()
    }
    fn read_u16(&mut self) -> Result<u16, CodecError> {
        narrow!(self.take_varint()?, u16)
    }
    fn read_u32(&mut self) -> Result<u32, CodecError> {
        narrow!(self.take_varint()?, u32)
    }
    fn read_u64(&mut self) -> Result<u64, CodecError> {
        self.take_varint()
    }
    fn read_f32(&mut self) -> Result<f32, CodecError> {
        let bytes: [u8; 4] = self.take(4)?.try_into().expect("take(4) yields exactly four bytes");
        Ok(f32::from_le_bytes(bytes))
    }
    fn read_f64(&mut self) -> Result<f64, CodecError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) yields exactly eight bytes");
        Ok(f64::from_le_bytes(bytes))
    }
    fn read_char(&mut self) -> Result<char, CodecError> {
        // The UTF-8 leading byte announces the sequence width.
        let first = self.take_byte()?;
        let width = match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            0xf0..=0xf7 => 4,
            other => return Err(CodecError(format!("invalid UTF-8 leading byte {other:#04x}"))),
        };
        let mut buf = [first, 0, 0, 0];
        buf[1..width].copy_from_slice(self.take(width - 1)?);
        std::str::from_utf8(&buf[..width])
            .ok()
            .and_then(|s| s.chars().next())
            .ok_or_else(|| CodecError("invalid UTF-8 char".into()))
    }
    fn read_string(&mut self) -> Result<String, CodecError> {
        let len = narrow!(self.take_varint()?, usize)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError("string payload is not valid UTF-8".into()))
    }
    fn read_byte_buf(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = narrow!(self.take_varint()?, usize)?;
        Ok(self.take(len)?.to_vec())
    }
    fn read_unit(&mut self) -> Result<(), CodecError> {
        Ok(())
    }
    fn read_option_tag(&mut self) -> Result<bool, CodecError> {
        match self.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid option tag {other:#04x}"))),
        }
    }
    fn read_len(&mut self) -> Result<usize, CodecError> {
        narrow!(self.take_varint()?, usize)
    }
    fn read_variant_tag(&mut self) -> Result<u32, CodecError> {
        Ok(self.take_byte()? as u32)
    }
    fn enter_nested(&mut self) -> Result<(), CodecError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(CodecError(format!(
                "nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            )));
        }
        Ok(())
    }
    fn leave_nested(&mut self) {
        self.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded_size;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    /// Round-trip a value and check the codec and the byte meter agree.
    fn roundtrip<T>(value: &T)
    where
        T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
    {
        let bytes = encode(value);
        assert_eq!(
            bytes.len() as u64,
            encoded_size(value),
            "codec length must match the simulator's byte meter for {value:?}"
        );
        let back: T = decode(&bytes).expect("well-formed bytes decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_roundtrip_at_metered_sizes() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&-5i8);
        roundtrip(&7u32);
        roundtrip(&300u32);
        roundtrip(&u64::MAX);
        roundtrip(&-1i64);
        roundtrip(&i64::MIN);
        roundtrip(&-64i32);
        roundtrip(&64i32);
        roundtrip(&1.5f64);
        roundtrip(&f32::NEG_INFINITY);
        roundtrip(&'x');
        roundtrip(&'€');
        roundtrip(&"ab".to_string());
        roundtrip(&String::new());
        roundtrip(&usize::MAX);
    }

    #[test]
    fn composites_roundtrip_at_metered_sizes() {
        roundtrip(&Some(300u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<String>::new());
        roundtrip(&(7u32, "x".to_string(), Some(false)));
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), vec![Some(1i32), None]);
        roundtrip(&map);
        roundtrip(&BTreeMap::<u64, String>::new());
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u8, String),
        Struct { flag: bool, items: Vec<i16> },
    }

    #[test]
    fn enums_roundtrip_with_one_byte_tags() {
        for shape in [
            Shape::Unit,
            Shape::Newtype(300),
            Shape::Tuple(9, "hi".into()),
            Shape::Struct { flag: true, items: vec![-1, 0, 1] },
        ] {
            roundtrip(&shape);
            assert_eq!(encode(&shape)[0] as usize, shape_index(&shape));
        }
    }

    fn shape_index(shape: &Shape) -> usize {
        match shape {
            Shape::Unit => 0,
            Shape::Newtype(_) => 1,
            Shape::Tuple(..) => 2,
            Shape::Struct { .. } => 3,
        }
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        assert!(decode::<u64>(&[]).is_err(), "empty input");
        assert!(decode::<bool>(&[2]).is_err(), "invalid bool");
        assert!(decode::<Option<u8>>(&[9, 0]).is_err(), "invalid option tag");
        assert!(decode::<String>(&[5, b'a']).is_err(), "truncated string");
        assert!(decode::<String>(&[2, 0xff, 0xff]).is_err(), "invalid UTF-8");
        assert!(decode::<u16>(&encode(&70_000u32)).is_err(), "narrowing overflow");
        assert!(decode::<u8>(&[1, 2]).is_err(), "trailing bytes");
        assert!(decode::<u64>(&[0x80; 11]).is_err(), "varint longer than ten bytes");
    }
}
