//! A minimal self-describing binary codec for AutoPower's on-disk files.
//!
//! Trained models, activity surrogates and sweep checkpoints are all written
//! in this one encoding: a writer/reader pair, the [`Codec`] trait the
//! persisted types implement, and the versioned file envelope
//! ([`Writer::begin_file`], [`Reader::open_file`], [`Reader::close_file`])
//! every file format sits in.  Design goals, in order:
//!
//! 1. **Bit-exact round trips** — every `f64` is stored as its exact IEEE-754
//!    bits, so `decode(encode(x)) == x` bit for bit.
//! 2. **Self-describing** — values are named and nested in scopes, so a
//!    mismatched field fails loudly with its byte offset instead of silently
//!    shifting every following value.
//! 3. **Deterministic output** — the same value always encodes to the same
//!    bytes, making golden tests and drift detection byte comparisons.
//! 4. **Cheap to load** — a trained model is loaded far more often than it is
//!    trained, so decoding reads fixed-width fields in place: no tokenizing,
//!    no number parsing, no per-record allocation.
//!
//! # Format
//!
//! ```text
//! magic     89 'A' 'P' 'B' 0D 0A 1A 0A       8 bytes
//! records   kind:u8  name_len:u8  name  value
//! trailer   checksum of magic + records      u64, little-endian
//! ```
//!
//! | kind | record           | value                                        |
//! |------|------------------|----------------------------------------------|
//! | 1    | scope begin      | none                                         |
//! | 2    | scope end        | none (and no name)                           |
//! | 3    | `f64`            | IEEE-754 bits, `u64` little-endian           |
//! | 4    | `u64`            | `u64` little-endian                          |
//! | 5    | `bool`           | one byte, 0 or 1                             |
//! | 6    | string           | `u32` little-endian byte length, then UTF-8  |
//! | 7    | packed `f64` run | `u64` count, then each value's bits          |
//!
//! A list ([`Writer::begin_list`]) is a scope whose first record is a `u64`
//! named `len`.  The magic's high byte, CR LF and ^Z make a file mangled by a
//! text-mode transfer fail the magic check rather than decode; the checksum
//! is verified before any record is read, so a torn or bit-flipped file fails
//! as a whole instead of decoding a damaged prefix.
//!
//! A *file* is a stream whose only top-level record is one scope named for
//! the file type (e.g. `autopower-model`) whose first record is a `u64`
//! named `version`: the envelope.  [`Reader::open_file`] checks the magic,
//! checksum, tag and version in one place, so no file format compares
//! versions itself.

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

/// A value that can be written to a [`Writer`] and read back from a
/// [`Reader`], bit-identically.
pub trait Codec: Sized {
    /// Writes `self` into the stream.
    fn encode(&self, w: &mut Writer);

    /// Reads a value previously written by [`Codec::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the stream does not match the expected
    /// shape (wrong tag, wrong field name, malformed value, early end).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// A malformed or mismatched stream, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the stream (from the start of the magic).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl CodecError {
    /// Creates an error anchored to a byte offset.
    ///
    /// Decoders reporting a *semantic* failure (bad count, unknown name,
    /// validation) should anchor it to [`Reader::offset`] so the message
    /// points at the offending content instead of claiming truncation.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl Error for CodecError {}

/// The 8 bytes every stream starts with.
const MAGIC: [u8; 8] = [0x89, b'A', b'P', b'B', b'\r', b'\n', 0x1A, b'\n'];

/// Bytes of the checksum trailer.
const TRAILER: usize = 8;

const BEGIN: u8 = 1;
const END: u8 = 2;
const F64: u8 = 3;
const U64: u8 = 4;
const BOOL: u8 = 5;
const STR: u8 = 6;
const F64_SEQ: u8 = 7;

/// Whether `bytes` starts with the codec's magic — the cheap test that tells
/// a stream of this encoding from any other file (e.g. an older text one).
pub fn has_magic(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

/// Word-at-a-time multiply/xor-shift hash of `bytes`.  Every step is a
/// bijection of the running state, so any single changed word changes the
/// result; the length seeds the state, so truncation and insertion do too.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
        h ^= h >> 32;
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

/// Serialises named scalars into nested scopes.
#[derive(Debug)]
pub struct Writer {
    out: Vec<u8>,
    depth: usize,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Creates a writer holding just the magic.
    pub fn new() -> Self {
        Self {
            out: MAGIC.to_vec(),
            depth: 0,
        }
    }

    /// Writes a record's kind byte and length-prefixed name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than 255 bytes.
    fn head(&mut self, kind: u8, name: &str) {
        let len = u8::try_from(name.len())
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("invalid record name {name:?}"));
        self.out.push(kind);
        self.out.push(len);
        self.out.extend_from_slice(name.as_bytes());
    }

    /// Opens a named scope.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is empty or longer than 255 bytes.
    pub fn begin(&mut self, tag: &str) {
        self.head(BEGIN, tag);
        self.depth += 1;
    }

    /// Closes the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end(&mut self) {
        assert!(self.depth > 0, "end() without a matching begin()");
        self.depth -= 1;
        self.out.push(END);
    }

    /// Writes an `f64` as its exact IEEE-754 bits.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than 255 bytes.
    pub fn f64(&mut self, name: &str, value: f64) {
        self.head(F64, name);
        self.out.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Writes a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than 255 bytes.
    pub fn u64(&mut self, name: &str, value: u64) {
        self.head(U64, name);
        self.out.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a `bool`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than 255 bytes.
    pub fn bool(&mut self, name: &str, value: bool) {
        self.head(BOOL, name);
        self.out.push(u8::from(value));
    }

    /// Writes a string.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than 255 bytes, or `value` is
    /// longer than `u32::MAX` bytes.
    pub fn str(&mut self, name: &str, value: &str) {
        self.head(STR, name);
        let len = u32::try_from(value.len()).expect("string value longer than u32::MAX bytes");
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(value.as_bytes());
    }

    /// Opens a scope that carries a `len` field — the conventional list shape.
    pub fn begin_list(&mut self, tag: &str, len: usize) {
        self.begin(tag);
        self.u64("len", len as u64);
    }

    /// Writes a whole `f64` slice as one packed record.
    pub fn f64_seq(&mut self, tag: &str, values: &[f64]) {
        self.head(F64_SEQ, tag);
        self.out
            .extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Opens a file envelope: scope `tag` and its format `version` record.
    /// Close it with [`Writer::end`], then [`Writer::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `tag` is empty or longer than 255 bytes.
    pub fn begin_file(&mut self, tag: &str, version: u64) {
        self.begin(tag);
        self.u64("version", version);
    }

    /// Finishes the stream: appends the checksum trailer and returns the bytes.
    ///
    /// # Panics
    ///
    /// Panics if a scope is still open.
    pub fn finish(mut self) -> Vec<u8> {
        assert_eq!(self.depth, 0, "finish() with {} open scope(s)", self.depth);
        let sum = checksum(&self.out);
        self.out.extend_from_slice(&sum.to_le_bytes());
        self.out
    }
}

/// Reads the stream a [`Writer`] produced.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Start of the checksum trailer: records live in `MAGIC.len()..end`.
    end: usize,
}

impl<'a> Reader<'a> {
    /// Opens a stream, verifying its magic and checksum before any record is
    /// read.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream does not start with the magic
    /// (see [`has_magic`]), is too short to hold the trailer, or fails its
    /// checksum (a torn or corrupted stream).
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if !has_magic(bytes) {
            return Err(CodecError::new(0, "not a binary codec stream (bad magic)"));
        }
        let Some(end) = bytes
            .len()
            .checked_sub(TRAILER)
            .filter(|&end| end >= MAGIC.len())
        else {
            return Err(CodecError::new(
                bytes.len(),
                "unexpected end of input: no checksum trailer",
            ));
        };
        let stored = u64::from_le_bytes(bytes[end..].try_into().expect("8-byte trailer"));
        if stored != checksum(&bytes[..end]) {
            return Err(CodecError::new(
                end,
                "checksum mismatch (torn or corrupted stream)",
            ));
        }
        Ok(Self {
            bytes,
            pos: MAGIC.len(),
            end,
        })
    }

    /// Opens a file written inside [`Writer::begin_file`]: verifies the
    /// magic and checksum ([`Reader::new`]), then enters scope `tag` and
    /// requires its format version to be `version`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream does not open, the envelope
    /// scope or its `version` record is missing, or the version differs.
    pub fn open_file(bytes: &'a [u8], tag: &str, version: u64) -> Result<Self, CodecError> {
        let mut r = Self::new(bytes)?;
        r.begin(tag)?;
        let at = r.pos;
        let found = r.u64("version")?;
        if found != version {
            return Err(CodecError::new(
                at,
                format!(
                    "unsupported {tag} format version {found} (this build reads version {version})"
                ),
            ));
        }
        Ok(r)
    }

    /// Closes a file opened by [`Reader::open_file`]: the envelope scope must
    /// end, and nothing may follow it.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the scope does not end next or a record
    /// trails it.
    pub fn close_file(&mut self) -> Result<(), CodecError> {
        self.end()?;
        self.expect_eof()
    }

    /// Consumes the next `n` bytes, or `None` if fewer remain.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.end - self.pos < n {
            return None;
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(taken)
    }

    /// Consumes a record head of `kind` named `name` if it is next; leaves
    /// the position untouched otherwise.  Allocation-free on both outcomes.
    fn eat_head(&mut self, kind: u8, name: &str) -> bool {
        let name = name.as_bytes();
        let head = 2 + name.len();
        let matched = self.end - self.pos >= head && {
            let b = &self.bytes[self.pos..self.pos + head];
            b[0] == kind && usize::from(b[1]) == name.len() && &b[2..] == name
        };
        if matched {
            self.pos += head;
        }
        matched
    }

    /// Describes the record at the current position (error path only).
    fn found(&self) -> String {
        let rest = &self.bytes[self.pos..self.end];
        let name = || {
            rest.get(1)
                .and_then(|&len| rest.get(2..2 + usize::from(len)))
                .map_or_else(
                    || "<truncated>".to_owned(),
                    |n| String::from_utf8_lossy(n).into_owned(),
                )
        };
        match rest.first() {
            None => "end of input".to_owned(),
            Some(&END) => "scope end".to_owned(),
            Some(&BEGIN) => format!("scope '{}'", name()),
            Some(&(F64..=F64_SEQ)) => format!("field '{}'", name()),
            Some(&kind) => format!("unknown record kind {kind}"),
        }
    }

    fn expect_head(&mut self, kind: u8, what: &str, name: &str) -> Result<(), CodecError> {
        if self.eat_head(kind, name) {
            Ok(())
        } else {
            Err(CodecError::new(
                self.pos,
                format!("expected {what} '{name}', found {}", self.found()),
            ))
        }
    }

    /// Consumes the `N`-byte value of field `name`, whose head was just read.
    fn value<const N: usize>(&mut self, name: &str) -> Result<[u8; N], CodecError> {
        let at = self.pos;
        self.take(N)
            .map(|b| b.try_into().expect("take returns N bytes"))
            .ok_or_else(|| {
                CodecError::new(
                    at,
                    format!("unexpected end of input in the value of '{name}'"),
                )
            })
    }

    /// Expects the opening of scope `tag`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next record is not the expected scope.
    pub fn begin(&mut self, tag: &str) -> Result<(), CodecError> {
        self.expect_head(BEGIN, "scope", tag)
    }

    /// Like [`Reader::begin`], but on a mismatch — another scope, a field, a
    /// scope end or the end of input — consumes nothing and returns `false`,
    /// so the caller can try another shape (enum-like payloads, optional
    /// trailing sections).
    pub fn try_begin(&mut self, tag: &str) -> bool {
        self.eat_head(BEGIN, tag)
    }

    /// Expects the end of the innermost scope.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next record is not a scope end.
    pub fn end(&mut self) -> Result<(), CodecError> {
        if self.pos < self.end && self.bytes[self.pos] == END {
            self.pos += 1;
            Ok(())
        } else {
            Err(CodecError::new(
                self.pos,
                format!("expected scope end, found {}", self.found()),
            ))
        }
    }

    /// Reads a named `f64` (exact bits).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name or kind mismatch or an early end.
    pub fn f64(&mut self, name: &str) -> Result<f64, CodecError> {
        self.expect_head(F64, "f64 field", name)?;
        Ok(f64::from_le_bytes(self.value(name)?))
    }

    /// Reads a named `u64`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name or kind mismatch or an early end.
    pub fn u64(&mut self, name: &str) -> Result<u64, CodecError> {
        self.expect_head(U64, "u64 field", name)?;
        Ok(u64::from_le_bytes(self.value(name)?))
    }

    /// Reads a named `bool`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name or kind mismatch or a byte other
    /// than 0 or 1.
    pub fn bool(&mut self, name: &str) -> Result<bool, CodecError> {
        self.expect_head(BOOL, "bool field", name)?;
        let at = self.pos;
        match self.value::<1>(name)? {
            [0] => Ok(false),
            [1] => Ok(true),
            [other] => Err(CodecError::new(
                at,
                format!("field '{name}': expected 0 or 1, found {other}"),
            )),
        }
    }

    /// Reads a named string.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name or kind mismatch, an early end, or
    /// invalid UTF-8.
    pub fn str(&mut self, name: &str) -> Result<&'a str, CodecError> {
        self.expect_head(STR, "string field", name)?;
        let len = u32::from_le_bytes(self.value(name)?) as usize;
        let at = self.pos;
        let bytes = self.take(len).ok_or_else(|| {
            CodecError::new(
                at,
                format!("field '{name}': string of {len} bytes overruns the input"),
            )
        })?;
        std::str::from_utf8(bytes)
            .map_err(|_| CodecError::new(at, format!("field '{name}': invalid UTF-8")))
    }

    /// Checks a declared element count against the bytes left: every element
    /// takes at least `min_bytes`, so a larger count is corrupt and must fail
    /// here, before a caller sizes an allocation by it.
    fn bounded_len(&self, tag: &str, len: u64, min_bytes: usize) -> Result<usize, CodecError> {
        let room = (self.end - self.pos) / min_bytes;
        usize::try_from(len)
            .ok()
            .filter(|&n| n <= room)
            .ok_or_else(|| {
                CodecError::new(
                    self.pos,
                    format!(
                        "'{tag}' declares {len} element(s) but the {} remaining byte(s) \
                         hold at most {room}",
                        self.end - self.pos
                    ),
                )
            })
    }

    /// Opens a list scope and returns its declared length, which is
    /// guaranteed not to exceed the number of bytes left in the stream.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the scope or its `len` field is missing,
    /// or the length is larger than the rest of the stream could hold.
    pub fn begin_list(&mut self, tag: &str) -> Result<usize, CodecError> {
        self.begin(tag)?;
        let len = self.u64("len")?;
        self.bounded_len(tag, len, 1)
    }

    /// Reads back an [`Writer::f64_seq`] record.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a tag or kind mismatch, or a count larger
    /// than the rest of the stream could hold.
    pub fn f64_seq(&mut self, tag: &str) -> Result<Vec<f64>, CodecError> {
        self.expect_head(F64_SEQ, "f64 sequence", tag)?;
        let count = u64::from_le_bytes(self.value(tag)?);
        let count = self.bounded_len(tag, count, 8)?;
        let bytes = self.take(count * 8).expect("bounded_len checked the room");
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// The byte offset of the next unread record (the end of the last one
    /// consumed) — the anchor for semantic decode errors
    /// ([`CodecError::new`]).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Fails unless every record has been consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming the first trailing record.
    pub fn expect_eof(&mut self) -> Result<(), CodecError> {
        if self.pos == self.end {
            Ok(())
        } else {
            Err(CodecError::new(
                self.pos,
                format!("trailing content: {}", self.found()),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_for_bit() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 3.0,
            2.4e-3,
        ];
        let mut w = Writer::new();
        w.begin("s");
        for v in values {
            w.f64("x", v);
        }
        w.u64("n", u64::MAX);
        w.bool("b", true);
        w.str("name", "mcpat-calib");
        w.str("empty", "");
        w.end();
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        r.begin("s").unwrap();
        for v in values {
            assert_eq!(r.f64("x").unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.u64("n").unwrap(), u64::MAX);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.str("name").unwrap(), "mcpat-calib");
        assert_eq!(r.str("empty").unwrap(), "");
        r.end().unwrap();
        r.expect_eof().unwrap();
    }

    #[test]
    fn f64_seq_round_trips() {
        let mut w = Writer::new();
        w.f64_seq("coeffs", &[1.0, f64::NAN, -2.5]);
        w.f64_seq("none", &[]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let back = r.f64_seq("coeffs").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], 1.0);
        assert!(back[1].is_nan());
        assert_eq!(back[2], -2.5);
        assert!(r.f64_seq("none").unwrap().is_empty());
        r.expect_eof().unwrap();
    }

    #[test]
    fn mismatches_fail_with_byte_offsets() {
        let mut w = Writer::new();
        w.begin("model");
        w.f64("alpha", 1.0);
        w.end();
        let bytes = w.finish();
        // The first record starts right after the magic; the field right
        // after the 7-byte `model` scope head.
        let field_at = MAGIC.len() + 2 + "model".len();

        let mut r = Reader::new(&bytes).unwrap();
        let err = r.begin("other").unwrap_err();
        assert_eq!(err.offset, MAGIC.len());
        assert!(err.to_string().contains("other"));
        assert!(err.to_string().contains("scope 'model'"));

        let mut r = Reader::new(&bytes).unwrap();
        r.begin("model").unwrap();
        let err = r.f64("beta").unwrap_err();
        assert_eq!(err.offset, field_at);
        assert!(err.to_string().contains(&format!("byte {field_at}")));
        assert!(err.to_string().contains("beta"));
        assert!(err.to_string().contains("alpha"));

        // Right name, wrong kind.
        let mut r = Reader::new(&bytes).unwrap();
        r.begin("model").unwrap();
        assert!(r.u64("alpha").is_err());
        assert_eq!(r.f64("alpha").unwrap(), 1.0);
    }

    #[test]
    fn early_ends_are_reported_as_such() {
        let mut w = Writer::new();
        w.begin("model");
        w.end();
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        r.begin("model").unwrap();
        let err = r.u64("n").unwrap_err();
        assert!(err.to_string().contains("found scope end"), "{err}");
        r.end().unwrap();
        let err = r.end().unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
    }

    #[test]
    fn try_begin_rewinds_on_every_kind_of_mismatch() {
        let mut w = Writer::new();
        w.begin("outer");
        w.begin("leaf");
        w.end();
        w.u64("n", 3);
        w.end();
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(!r.try_begin("leaf"), "another scope is next");
        assert!(r.try_begin("outer"));
        assert!(!r.try_begin("split"), "same kind, other name");
        assert!(r.try_begin("leaf"));
        assert!(!r.try_begin("leaf"), "a scope end is next");
        r.end().unwrap();
        assert!(!r.try_begin("n"), "a field is next");
        assert_eq!(r.u64("n").unwrap(), 3);
        r.end().unwrap();
        assert!(!r.try_begin("leaf"), "the stream has ended");
        r.expect_eof().unwrap();
    }

    #[test]
    fn declared_lengths_beyond_the_input_are_rejected() {
        // A list claiming far more elements than bytes remain.
        let mut w = Writer::new();
        w.begin("trees");
        w.u64("len", u64::MAX >> 4);
        w.end();
        let bytes = w.finish();
        let err = Reader::new(&bytes)
            .unwrap()
            .begin_list("trees")
            .unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");

        // A packed run whose count overruns the bytes that follow.
        let mut w = Writer::new();
        w.f64_seq("v", &[1.0, 2.0]);
        let mut bytes = w.finish();
        let count_at = MAGIC.len() + 2 + 1;
        bytes[count_at..count_at + 8].copy_from_slice(&3u64.to_le_bytes());
        let end = bytes.len() - TRAILER;
        let sum = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(Reader::new(&bytes).unwrap().f64_seq("v").is_err());
    }

    #[test]
    fn every_flipped_or_truncated_byte_fails_the_open() {
        let mut w = Writer::new();
        w.begin("model");
        w.f64_seq("coeffs", &[1.0, 2.0, 3.0]);
        w.str("name", "x");
        w.end();
        let bytes = w.finish();
        assert!(Reader::new(&bytes).is_ok());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert!(
                Reader::new(&flipped).is_err(),
                "flip at byte {i} went unseen"
            );
            assert!(
                Reader::new(&bytes[..i]).is_err(),
                "cut at byte {i} went unseen"
            );
        }
    }

    #[test]
    fn foreign_bytes_fail_the_magic_check() {
        let text = b"autopower-model {\n  version 1\n}\n";
        assert!(!has_magic(text));
        let err = Reader::new(text).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.to_string().contains("magic"));
        assert!(has_magic(&Writer::new().finish()));
    }

    /// One record of every kind inside a file envelope, written the way
    /// every saved model, surrogate and checkpoint is.
    fn golden_stream() -> Vec<u8> {
        let mut w = Writer::new();
        w.begin_file("golden", 2);
        w.begin("scope");
        w.f64("neg_zero", -0.0);
        w.f64("nan", f64::from_bits(0x7FF8_0000_DEAD_BEEF));
        w.u64("u", 0x0123_4567_89AB_CDEF);
        w.bool("b", true);
        w.str("s", "AutoPower");
        w.begin_list("list", 2);
        w.u64("n", 1);
        w.u64("n", 2);
        w.end();
        w.f64_seq("seq", &[1.5, -2.25]);
        w.end();
        w.end();
        w.finish()
    }

    /// The committed bytes every earlier build wrote for [`golden_stream`]:
    /// files saved by one build must load in the next, so the encoding may
    /// not drift by a single byte, checksum included.
    #[rustfmt::skip]
    const GOLDEN: [u8; 183] = [
        // magic
        0x89, b'A', b'P', b'B', 0x0D, 0x0A, 0x1A, 0x0A,
        // scope "golden", u64 "version" = 2
        0x01, 0x06, b'g', b'o', b'l', b'd', b'e', b'n',
        0x04, 0x07, b'v', b'e', b'r', b's', b'i', b'o', b'n', 0x02, 0, 0, 0, 0, 0, 0, 0,
        // scope "scope"
        0x01, 0x05, b's', b'c', b'o', b'p', b'e',
        // f64 "neg_zero" = -0.0
        0x03, 0x08, b'n', b'e', b'g', b'_', b'z', b'e', b'r', b'o',
        0, 0, 0, 0, 0, 0, 0, 0x80,
        // f64 "nan" = NaN with payload 0xDEAD_BEEF
        0x03, 0x03, b'n', b'a', b'n', 0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0xF8, 0x7F,
        // u64 "u"
        0x04, 0x01, b'u', 0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
        // bool "b" = true
        0x05, 0x01, b'b', 0x01,
        // str "s" = "AutoPower"
        0x06, 0x01, b's', 0x09, 0, 0, 0, b'A', b'u', b't', b'o', b'P', b'o', b'w', b'e', b'r',
        // list "list": scope, u64 "len" = 2, two u64 "n", scope end
        0x01, 0x04, b'l', b'i', b's', b't',
        0x04, 0x03, b'l', b'e', b'n', 0x02, 0, 0, 0, 0, 0, 0, 0,
        0x04, 0x01, b'n', 0x01, 0, 0, 0, 0, 0, 0, 0,
        0x04, 0x01, b'n', 0x02, 0, 0, 0, 0, 0, 0, 0,
        0x02,
        // f64_seq "seq" = [1.5, -2.25]
        0x07, 0x03, b's', b'e', b'q', 0x02, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0xF8, 0x3F,
        0, 0, 0, 0, 0, 0, 0x02, 0xC0,
        // end "scope", end "golden"
        0x02, 0x02,
        // checksum trailer
        0x91, 0x17, 0xF0, 0x3D, 0x32, 0x87, 0xDC, 0xA2,
    ];

    #[test]
    fn golden_bytes_are_stable_across_builds() {
        assert_eq!(golden_stream(), GOLDEN);

        let mut r = Reader::open_file(&GOLDEN, "golden", 2).unwrap();
        r.begin("scope").unwrap();
        assert_eq!(r.f64("neg_zero").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("nan").unwrap().to_bits(), 0x7FF8_0000_DEAD_BEEF);
        assert_eq!(r.u64("u").unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.str("s").unwrap(), "AutoPower");
        assert_eq!(r.begin_list("list").unwrap(), 2);
        assert_eq!(r.u64("n").unwrap(), 1);
        assert_eq!(r.u64("n").unwrap(), 2);
        r.end().unwrap();
        assert_eq!(r.f64_seq("seq").unwrap(), [1.5, -2.25]);
        r.end().unwrap();
        r.close_file().unwrap();
    }

    #[test]
    fn the_envelope_checks_tag_version_and_what_follows_it() {
        let err = Reader::open_file(&GOLDEN, "golden", 3).unwrap_err();
        let version_at = MAGIC.len() + 2 + "golden".len();
        assert_eq!(err.offset, version_at);
        assert_eq!(
            err.message,
            "unsupported golden format version 2 (this build reads version 3)"
        );

        let err = Reader::open_file(&GOLDEN, "model", 2).unwrap_err();
        assert!(err.to_string().contains("expected scope 'model'"), "{err}");
        assert!(Reader::open_file(b"text", "golden", 2).is_err());

        let mut w = Writer::new();
        w.begin_file("golden", 2);
        w.end();
        w.u64("extra", 1);
        let bytes = w.finish();
        let mut r = Reader::open_file(&bytes, "golden", 2).unwrap();
        let err = r.close_file().unwrap_err();
        assert!(err.to_string().contains("trailing content"), "{err}");

        let mut w = Writer::new();
        w.begin_file("golden", 2);
        w.u64("body", 1);
        w.end();
        let bytes = w.finish();
        let mut r = Reader::open_file(&bytes, "golden", 2).unwrap();
        let err = r.close_file().unwrap_err();
        assert!(err.to_string().contains("expected scope end"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid record name")]
    fn empty_names_are_rejected() {
        let mut w = Writer::new();
        w.u64("", 1);
    }

    #[test]
    #[should_panic(expected = "open scope")]
    fn unbalanced_scopes_are_rejected_at_finish() {
        let mut w = Writer::new();
        w.begin("model");
        let _ = w.finish();
    }
}
