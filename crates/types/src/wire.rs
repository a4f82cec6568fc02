//! A small hand-rolled binary codec plus the [`WireSize`] trait used for bandwidth
//! accounting.
//!
//! The simulator charges every message its wire size against the sender's uplink and the
//! receiver's downlink; the retrieval plane erasure-codes datablocks in this encoding,
//! and the codec's tests pin wire sizes to encoded lengths, so the simulated bandwidth
//! numbers describe real bytes.
//!
//! The encoding is deliberately simple: fixed-width little-endian integers, length-
//! prefixed byte strings, no varints, no schema evolution. It is not a public
//! interchange format.

use std::fmt;

/// Types that know how many bytes their encoded representation occupies.
///
/// For types that also implement [`Encode`], `wire_size()` must equal the length of the
/// encoded byte string; this is asserted by property tests in the implementing crates.
pub trait WireSize {
    /// Size of the encoded representation in bytes.
    fn wire_size(&self) -> usize;
}

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was trying to read.
    pub context: &'static str,
}

impl DecodeError {
    /// Creates a decode error with a static description of what was being decoded.
    pub fn new(context: &'static str) -> Self {
        DecodeError { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data while decoding {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Incremental encoder writing into an owned byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buffer: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with preallocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buffer: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buffer
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Makes room for at least `additional` more bytes, so the writes that follow do
    /// not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.buffer.reserve(additional);
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buffer.push(value);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, value: u32) {
        self.buffer.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, value: u64) {
        self.buffer.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes raw bytes without a length prefix (fixed-size fields such as digests).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }
}

/// Incremental decoder reading from a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over the given bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, position: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.position
    }

    /// Returns true once all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::new(context));
        }
        let slice = &self.bytes[self.position..self.position + len];
        self.position += len;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let bytes = self.take(8, context)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads exactly `len` raw bytes.
    pub fn get_raw(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        self.take(len, context)
    }
}

/// Types that can encode themselves with the [`WireWriter`].
pub trait Encode {
    /// Appends the encoded representation to `writer`.
    fn encode(&self, writer: &mut WireWriter);

    /// Convenience helper returning the encoded bytes.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut writer = WireWriter::new();
        self.encode(&mut writer);
        writer.into_bytes()
    }
}

/// Types that can decode themselves with the [`WireReader`].
pub trait Decode: Sized {
    /// Decodes a value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the bytes are truncated or malformed.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, DecodeError>;

    /// Convenience helper decoding from a complete byte slice, requiring that every byte
    /// is consumed.
    fn decode_from_slice(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = WireReader::new(bytes);
        let value = Self::decode(&mut reader)?;
        if !reader.is_exhausted() {
            return Err(DecodeError::new("trailing bytes"));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut writer = WireWriter::new();
        writer.put_u8(7);
        writer.put_u32(0xDEADBEEF);
        writer.put_u64(u64::MAX - 1);
        writer.put_raw(&[1, 2, 3]);
        let bytes = writer.into_bytes();

        let mut reader = WireReader::new(&bytes);
        assert_eq!(reader.get_u8("u8").unwrap(), 7);
        assert_eq!(reader.get_u32("u32").unwrap(), 0xDEADBEEF);
        assert_eq!(reader.get_u64("u64").unwrap(), u64::MAX - 1);
        assert_eq!(reader.get_raw(3, "raw").unwrap(), &[1, 2, 3]);
        assert!(reader.is_exhausted());
    }

    #[test]
    fn truncated_input_reports_context() {
        let mut reader = WireReader::new(&[1, 2]);
        let err = reader.get_u32("view number").unwrap_err();
        assert_eq!(err.context, "view number");
        assert!(err.to_string().contains("view number"));
    }

    #[test]
    fn decode_from_slice_rejects_trailing_bytes() {
        struct Byte(u8);
        impl Decode for Byte {
            fn decode(reader: &mut WireReader<'_>) -> Result<Self, DecodeError> {
                Ok(Byte(reader.get_u8("byte")?))
            }
        }
        assert_eq!(Byte::decode_from_slice(&[1]).unwrap().0, 1);
        assert!(Byte::decode_from_slice(&[1, 2]).is_err());
        assert!(Byte::decode_from_slice(&[]).is_err());
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut writer = WireWriter::with_capacity(64);
        assert!(writer.is_empty());
        writer.put_u64(1);
        assert_eq!(writer.len(), 8);
    }
}
