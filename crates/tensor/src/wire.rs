//! Zero-copy binary codec for tensor payloads: the one section codec.
//!
//! Both binary formats are built from this module: the transient `DNWR`
//! stream the FL transport meters, compresses and ships every round, and
//! the durable `DNCK` checkpoint (models, resume images). It is the only
//! code that knows the byte layout of a tensor; the model framing
//! (layer/tensor counts) lives in `dinar_nn::snapshot` and is shared by
//! both formats.
//!
//! # Zero-copy contract
//!
//! Encoding reads straight out of the tensor's copy-on-write `Arc` buffer
//! via [`Tensor::as_slice`] — it never materializes a private copy, so
//! encoding a snapshot taken with `share()` costs the serialization pass
//! and nothing else. Decoding builds exactly one fresh buffer per tensor,
//! which is then shared by refcount like any other tensor storage.
//!
//! # What is fused where
//!
//! Every payload is reserved once and filled in bulk; nothing is pushed
//! element by element. The lossy codecs run as two passes — the scale scan,
//! then scale-round-saturate straight into the reserved bytes — through
//! one routine, [`encode_tensor`] and [`encode_tensor_feedback`] being its
//! two callers: the second hands it the tensor mutably, and the same pass
//! that writes a level also leaves `v − level·scale` (what the codec lost)
//! in `v`'s place, so error feedback never decodes its own frame.
//! [`decode_tensor_onto`] is the server's half: it dequantises
//! `level·scale + base` in the one pass that builds the output buffer.
//!
//! # Format
//!
//! All integers are little-endian. A stream or file opens with a header —
//! magic (`DNWR` [`MAGIC`] or `DNCK`), format version u16, tag u8 —
//! written by [`write_header`] and checked against the expected magic by
//! [`read_header`]. Each tensor frame is:
//!
//! ```text
//! rank: u32, dims: rank × u32, payload
//! ```
//!
//! A `DNWR` stream names the payload once, by its header's [`Codec`] tag;
//! a `DNCK` section is a frame behind its own [`Dtype`] tag byte
//! ([`encode_section`]). Both tags select from one private payload list:
//!
//! * f32 ([`Codec::F32`], [`Dtype::F32`]) — lossless: `len × u32` raw
//!   IEEE-754 bit patterns. `decode(encode(x))` is bit-identical for every
//!   value, NaN payloads and signed zeros included.
//! * f16 ([`Dtype::F16`]) — `len × u16` binary16 patterns, round-to-nearest.
//! * sign1 ([`Codec::Sign1`]) — 1-bit sign compression (signSGD-style): one
//!   f32 scale (the mean |x|, accumulated sequentially in f64 so the scale
//!   is identical for any worker-pool width), then `ceil(len/8)` bytes of
//!   LSB-first sign bits (1 = non-negative). Decodes to `±scale`.
//! * i8 ([`Codec::QuantI8`], [`Dtype::I8`]) — linear 8-bit quantization:
//!   one f32 scale (`max |x| / 127`), then `len` i8 levels. Decodes to
//!   `level × scale`.
//!
//! Lists above a tensor are a u32 count and their items ([`write_seq`]);
//! an optional part follows a presence flag byte, 0 or 1.
//!
//! # Hardening
//!
//! Every read is bounds-checked: truncated buffers, oversized length
//! headers, unknown tags, flags other than 0/1 and nonzero padding bits
//! all surface as typed [`WireError`]s — a corrupted stream can never panic
//! the decoder or make it allocate unbounded memory (payload byte counts
//! are validated against the remaining buffer *before* any allocation).
//! Integer narrowing goes through `try_from` or the checked helpers in
//! [`crate::cast`]; lint rule L017 keeps byte-level (de)serialization
//! confined to this module and bans bare narrowing casts inside it.

use crate::storage::{Dtype, Element, QuantTensor, F16};
use crate::{cast, Tensor};
use std::cell::Cell;
use std::fmt;

/// Leading magic of every wire stream: `DNWR` ("DINAR wire").
pub const MAGIC: [u8; 4] = *b"DNWR";

/// Current format version (of `DNWR` and `DNCK` alike).
pub const FORMAT_VERSION: u16 = 1;

/// Maximum tensor rank the decoder accepts. Nothing in the model zoo
/// exceeds rank 4; 8 leaves headroom while keeping a corrupted rank header
/// from driving a 4-billion-iteration dim loop.
pub const MAX_RANK: usize = 8;

/// Error produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Bytes remained after the final frame was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The header does not start with the magic of the format being read.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
        /// The magic expected.
        expected: [u8; 4],
    },
    /// The header's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The magic of the format being read.
        magic: [u8; 4],
        /// The version found.
        found: u16,
    },
    /// A tag byte (codec, file kind, dtype, presence flag) is outside its
    /// catalog.
    UnknownTag {
        /// Which tag.
        what: &'static str,
        /// The tag found.
        tag: u8,
    },
    /// A length header (rank, dim, element count, byte count) exceeds what
    /// this platform / format can represent.
    LengthOverflow {
        /// Which quantity overflowed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Declared element count and decoded payload disagree.
    ShapeMismatch {
        /// Elements the shape header declares.
        declared: usize,
        /// Elements the payload actually produced.
        actual: usize,
    },
    /// Padding bits past the last packed element were not zero.
    NonzeroPadding {
        /// Byte offset of the offending padding byte within the payload.
        at: usize,
    },
    /// A delta frame's shape differs from the base it is decoded onto.
    BaseMismatch {
        /// The shape the frame declares.
        declared: Vec<usize>,
        /// The base tensor's shape.
        base: Vec<usize>,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated wire buffer: read needs {need} bytes, {have} remain")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the final wire frame")
            }
            WireError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:02x?}: not a {} image", expected.escape_ascii())
            }
            WireError::UnsupportedVersion { magic, found } => write!(
                f,
                "unsupported {} format version {found} (expected {FORMAT_VERSION})",
                magic.escape_ascii()
            ),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::LengthOverflow { what, value } => {
                write!(f, "wire length header overflow: {what} = {value}")
            }
            WireError::ShapeMismatch { declared, actual } => {
                write!(
                    f,
                    "wire shape mismatch: header declares {declared} element(s), payload \
                     decoded {actual}"
                )
            }
            WireError::NonzeroPadding { at } => {
                write!(f, "nonzero padding bit(s) at payload byte {at}")
            }
            WireError::BaseMismatch { declared, base } => {
                write!(f, "delta frame of shape {declared:?} decoded onto a base of shape {base:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Codec result alias.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// The update encodings the wire format supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Codec {
    /// Lossless raw f32 bit patterns (4 bytes/element).
    F32,
    /// 1-bit sign compression with a shared f32 scale (~1 bit/element).
    Sign1,
    /// Linear 8-bit quantization with a shared f32 scale (1 byte/element).
    QuantI8,
}

impl Codec {
    /// The codec's wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            Codec::F32 => 0x00,
            Codec::Sign1 => 0x01,
            Codec::QuantI8 => 0x02,
        }
    }

    /// Looks a codec up by its wire tag.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownTag`] for a tag outside the catalog.
    pub fn from_tag(tag: u8) -> WireResult<Codec> {
        match tag {
            0x00 => Ok(Codec::F32),
            0x01 => Ok(Codec::Sign1),
            0x02 => Ok(Codec::QuantI8),
            _ => Err(WireError::UnknownTag { what: "DNWR codec", tag }),
        }
    }

    /// Stable lowercase name for telemetry labels and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::Sign1 => "sign1",
            Codec::QuantI8 => "qi8",
        }
    }

    /// Whether decode(encode(x)) can differ from `x`.
    pub fn is_lossy(self) -> bool {
        !matches!(self, Codec::F32)
    }

    /// All codecs, in tag order.
    pub fn all() -> [Codec; 3] {
        [Codec::F32, Codec::Sign1, Codec::QuantI8]
    }
}

/// The payload list a stream's [`Codec`] and a section's [`Dtype`] both
/// select from; private, so neither reaches a payload it could not before.
#[derive(Debug, Clone, Copy)]
enum Payload {
    F32,
    F16,
    Sign1,
    QuantI8,
}

impl From<Codec> for Payload {
    fn from(codec: Codec) -> Payload {
        match codec {
            Codec::F32 => Payload::F32,
            Codec::Sign1 => Payload::Sign1,
            Codec::QuantI8 => Payload::QuantI8,
        }
    }
}

impl From<Dtype> for Payload {
    fn from(dtype: Dtype) -> Payload {
        match dtype {
            Dtype::F32 => Payload::F32,
            Dtype::F16 => Payload::F16,
            Dtype::I8 => Payload::QuantI8,
        }
    }
}

/// `a × b` for a length header, checked ([`WireError::LengthOverflow`] naming `what`).
fn checked_mul(a: usize, b: usize, what: &'static str) -> WireResult<usize> {
    a.checked_mul(b).ok_or(WireError::LengthOverflow { what, value: u64::MAX })
}

/// An append-only little-endian byte sink for wire frames.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with `capacity` bytes pre-reserved (pair with
    /// [`encoded_tensor_len`] to make encoding a single allocation).
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f32` as its raw little-endian IEEE-754 bit pattern
    /// (bit-exact for NaN payloads and signed zeros).
    pub fn put_f32(&mut self, x: f32) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a count as a `u32` length field — the one checked narrowing
    /// of a count onto the wire ([`WireError::LengthOverflow`] past `u32`).
    pub fn put_len(&mut self, n: usize, what: &'static str) -> WireResult<()> {
        let n = u32::try_from(n).map_err(|_| WireError::LengthOverflow {
            what,
            value: u64::try_from(n).unwrap_or(u64::MAX),
        })?;
        self.put_u32(n);
        Ok(())
    }

    /// Appends a presence flag: 1 if the optional part follows, else 0.
    pub fn put_flag(&mut self, present: bool) {
        self.put_u8(u8::from(present));
    }

    /// Appends a counted `f32` list: [`put_len`](ByteWriter::put_len), then
    /// the f32 payload.
    pub fn put_f32s(&mut self, xs: &[f32], what: &'static str) -> WireResult<()> {
        self.put_len(xs.len(), what)?;
        encode_payload(xs, Payload::F32, self);
        Ok(())
    }

    /// Appends `n` zero bytes and hands them back to be filled: a payload
    /// is one reservation, not a capacity check per element.
    fn reserve_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }
}

/// A bounds-checked little-endian reader over a wire buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes the payload of `len` elements `width` bytes wide, its byte count checked first.
    fn take_elems(&mut self, len: usize, width: usize) -> WireResult<&'a [u8]> {
        self.take(checked_mul(len, width, "payload bytes")?)
    }

    /// Takes the next `N` bytes as an array. Fails as [`take`](Self::take).
    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on an exhausted buffer.
    pub fn read_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on an exhausted buffer.
    pub fn read_u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on an exhausted buffer.
    pub fn read_u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on an exhausted buffer.
    pub fn read_u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f32` bit pattern (bit-exact, NaN payloads included).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on an exhausted buffer.
    pub fn read_f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Reads a `u32` length field as a count ([`ByteWriter::put_len`]).
    pub fn read_len(&mut self, what: &'static str) -> WireResult<usize> {
        let x = self.read_u32()?;
        usize::try_from(x).map_err(|_| WireError::LengthOverflow { what, value: u64::from(x) })
    }

    /// Reads a presence flag. A byte other than 0 or 1 is corruption
    /// ([`WireError::UnknownTag`]), not "present".
    pub fn read_flag(&mut self, what: &'static str) -> WireResult<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what, tag }),
        }
    }

    /// Reads a counted `f32` list ([`ByteWriter::put_f32s`]), its byte
    /// budget checked against the buffer before allocating.
    pub fn read_f32s(&mut self, what: &'static str) -> WireResult<Vec<f32>> {
        let len = self.read_len(what)?;
        Ok(f32_values(self.take_elems(len, 4)?).collect())
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Writes a header: `magic`, format version, `tag` (the stream's codec or
/// the file's kind).
pub fn write_header(w: &mut ByteWriter, magic: [u8; 4], tag: u8) {
    w.put_bytes(&magic);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(tag);
}

/// Byte length of the header.
pub const HEADER_LEN: usize = 7;

/// Reads and validates a header against `magic`, returning its tag byte.
///
/// # Errors
///
/// Returns [`WireError::BadMagic`] or [`WireError::UnsupportedVersion`]
/// (both naming `magic`), or [`WireError::Truncated`].
pub fn read_header(r: &mut ByteReader<'_>, magic: [u8; 4]) -> WireResult<u8> {
    let found = r.array()?;
    if found != magic {
        return Err(WireError::BadMagic { found, expected: magic });
    }
    let version = r.read_u16()?;
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion { magic, found: version });
    }
    r.read_u8()
}

/// Writes a counted list: the item count as a `u32`, then each item
/// through `item(index, item, writer)`; fails on the count or `item`.
pub fn write_seq<I: ExactSizeIterator, E: From<WireError>>(
    w: &mut ByteWriter,
    items: I,
    what: &'static str,
    mut item: impl FnMut(usize, I::Item, &mut ByteWriter) -> Result<(), E>,
) -> Result<(), E> {
    w.put_len(items.len(), what)?;
    for (i, x) in items.enumerate() {
        item(i, x, w)?;
    }
    Ok(())
}

/// Reads a list written by [`write_seq`]. The count comes from the buffer,
/// so the list grows by push: a corrupt huge count runs into
/// [`WireError::Truncated`], never into a giant reservation.
pub fn read_seq<T, E: From<WireError>>(
    r: &mut ByteReader<'_>,
    mut item: impl FnMut(&mut ByteReader<'_>) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let count = r.read_u32()?;
    let mut items = Vec::new();
    for _ in 0..count {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Exact encoded byte length of one tensor frame under `codec` — the shape
/// header plus the codec payload. Use for buffer pre-sizing and for byte
/// metering without encoding.
pub fn encoded_tensor_len(t: &Tensor, codec: Codec) -> usize {
    frame_len(t, codec.into())
}

/// Exact encoded byte length of one section under `dtype` ([`encode_section`]).
pub fn encoded_section_len(t: &Tensor, dtype: Dtype) -> usize {
    1 + frame_len(t, dtype.into())
}

fn frame_len(t: &Tensor, payload: Payload) -> usize {
    let len = t.len();
    let header = 4 + 4 * t.shape().len();
    header
        + match payload {
            Payload::F32 => 4 * len,
            Payload::F16 => 2 * len,
            Payload::Sign1 => 4 + len.div_ceil(8),
            Payload::QuantI8 => 4 + len,
        }
}

/// One element of a tensor being encoded: always read and, under error
/// feedback, overwritten with what the codec lost of it. The two impls are
/// what make write-back a parameter of the one encode routine: a plain
/// `f32` ignores the residual, a `Cell<f32>` (a mutably borrowed buffer
/// viewed through [`Cell::as_slice_of_cells`]) stores it.
pub(crate) trait Lane {
    /// The element's value.
    fn get(&self) -> f32;
    /// Leaves `residual` in the element's place.
    fn leave(&self, residual: f32);
}

impl Lane for f32 {
    #[inline]
    fn get(&self) -> f32 {
        *self
    }
    #[inline]
    fn leave(&self, _residual: f32) {}
}

impl Lane for Cell<f32> {
    #[inline]
    fn get(&self) -> f32 {
        Cell::get(self)
    }
    #[inline]
    fn leave(&self, residual: f32) {
        self.set(residual);
    }
}

/// Encodes one tensor frame, reading directly from the tensor's shared
/// buffer (no copy-on-write materialization).
///
/// # Errors
///
/// Returns [`WireError::LengthOverflow`] if the rank or a dimension does
/// not fit the `u32` wire fields.
pub fn encode_tensor(t: &Tensor, codec: Codec, w: &mut ByteWriter) -> WireResult<()> {
    write_shape(t.shape(), w)?;
    encode_payload(t.as_slice(), codec.into(), w);
    Ok(())
}

/// [`encode_tensor`] for error feedback: writes the identical frame and, in
/// the same pass, overwrites `v` with what the codec lost of it —
/// `v − decode(encode(v))` bit for bit, without decoding anything (all
/// zeros under the lossless codec). Nothing is written to `v` on an error.
///
/// # Errors
///
/// As [`encode_tensor`].
pub fn encode_tensor_feedback(
    v: &mut Tensor,
    codec: Codec,
    w: &mut ByteWriter,
) -> WireResult<()> {
    write_shape(v.shape(), w)?;
    encode_payload(Cell::from_mut(v.as_mut_slice()).as_slice_of_cells(), codec.into(), w);
    Ok(())
}

/// Encodes one checkpoint section: `dtype`'s tag byte, then the frame of
/// `t` stored at that width. Fails as [`encode_tensor`].
pub fn encode_section(t: &Tensor, dtype: Dtype, w: &mut ByteWriter) -> WireResult<()> {
    w.put_u8(dtype.tag());
    write_shape(t.shape(), w)?;
    encode_payload(t.as_slice(), dtype.into(), w);
    Ok(())
}

/// The frame's shape header: rank, then every dimension.
fn write_shape(shape: &[usize], w: &mut ByteWriter) -> WireResult<()> {
    w.put_len(shape.len(), "rank")?;
    for &d in shape {
        w.put_len(d, "dim")?;
    }
    Ok(())
}

/// The payload of `xs`, reserved once and filled in bulk; each element is
/// told what the codec lost of it ([`Lane::leave`]).
fn encode_payload<L: Lane>(xs: &[L], payload: Payload, w: &mut ByteWriter) {
    match payload {
        Payload::F32 => {
            let out = w.reserve_zeroed(4 * xs.len());
            for (dst, x) in out.chunks_exact_mut(4).zip(xs) {
                dst.copy_from_slice(&x.get().to_bits().to_le_bytes());
                x.leave(0.0);
            }
        }
        Payload::F16 => {
            let out = w.reserve_zeroed(2 * xs.len());
            for (dst, x) in out.chunks_exact_mut(2).zip(xs) {
                let h = F16::from_f32(x.get());
                dst.copy_from_slice(&h.to_u16().to_le_bytes());
                x.leave(x.get() - h.to_f32());
            }
        }
        Payload::Sign1 => {
            let scale = sign1_scale(xs);
            w.put_f32(scale);
            let out = w.reserve_zeroed(xs.len().div_ceil(8));
            for (byte, chunk) in out.iter_mut().zip(xs.chunks(8)) {
                let mut bits = 0u8;
                for (bit, x) in chunk.iter().enumerate() {
                    let v = x.get();
                    let positive = v.is_sign_positive();
                    bits |= u8::from(positive) << bit;
                    x.leave(v - if positive { scale } else { -scale });
                }
                *byte = bits;
            }
        }
        Payload::QuantI8 => {
            let scale = quant_scale(xs);
            w.put_f32(scale);
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            let out = w.reserve_zeroed(xs.len());
            for (byte, x) in out.iter_mut().zip(xs) {
                let v = x.get();
                let level = cast::f32_to_i8_sat(v * inv);
                *byte = level.to_le_bytes()[0];
                x.leave(v - f32::from(level) * scale);
            }
        }
    }
}

/// Reads and validates a frame's shape header, returning the shape and its
/// element count. Nothing is allocated from the declared count: callers
/// bounds-check the payload against the buffer first.
fn read_shape(r: &mut ByteReader<'_>) -> WireResult<(Vec<usize>, usize)> {
    let rank = r.read_len("rank")?;
    if rank > MAX_RANK {
        return Err(WireError::LengthOverflow {
            what: "rank",
            value: u64::try_from(rank).unwrap_or(u64::MAX),
        });
    }
    let mut shape = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = r.read_len("dim")?;
        len = checked_mul(len, d, "element count")?;
        shape.push(d);
    }
    Ok((shape, len))
}

/// Decodes one tensor frame into fresh shared storage.
///
/// Validates the shape header and the payload byte budget against the
/// remaining buffer *before* allocating, so an overflowing length header
/// is rejected rather than honored.
///
/// # Errors
///
/// Returns a typed [`WireError`] for any truncated, oversized or corrupt
/// frame; never panics.
pub fn decode_tensor(r: &mut ByteReader<'_>, codec: Codec) -> WireResult<Tensor> {
    decode_frame(r, codec.into(), None)
}

/// Decodes one *delta* frame onto its base: element `i` of the result is
/// `decoded[i] + base[i]` — the bits `decode_tensor` followed by
/// `add_assign(base)` produce — computed in the one pass that builds the
/// output buffer, with no dequantised intermediate.
///
/// # Errors
///
/// As [`decode_tensor`], plus [`WireError::BaseMismatch`] if the frame's
/// shape is not `base`'s (checked before the payload is touched).
pub fn decode_tensor_onto(
    r: &mut ByteReader<'_>,
    codec: Codec,
    base: &Tensor,
) -> WireResult<Tensor> {
    decode_frame(r, codec.into(), Some(base))
}

/// Decodes one checkpoint section at its stored width, handing it to
/// `dense` (f32, f16) or — still at i8, through [`decode_tensor_quant`] —
/// to `quant`. Fails as [`decode_tensor`], or on an unknown dtype tag.
pub fn decode_section<T>(
    r: &mut ByteReader<'_>,
    dense: impl FnOnce(Tensor) -> T,
    quant: impl FnOnce(QuantTensor) -> T,
) -> WireResult<T> {
    let tag = r.read_u8()?;
    match Dtype::from_tag(tag) {
        Some(Dtype::I8) => decode_tensor_quant(r).map(quant),
        Some(dtype) => decode_frame(r, dtype.into(), None).map(dense),
        None => Err(WireError::UnknownTag { what: "DNCK dtype", tag }),
    }
}

/// Decodes a frame's payload, adding each value onto its `base` element
/// when there is one. Every byte count is taken from the reader — and so
/// checked against the buffer — before the output is allocated. Inlined so
/// `base` is a constant per caller: shared, the f32 copy loop ran 25 % slower.
#[inline(always)]
fn decode_frame(
    r: &mut ByteReader<'_>,
    payload: Payload,
    base: Option<&Tensor>,
) -> WireResult<Tensor> {
    let (shape, len) = read_shape(r)?;
    if let Some(base) = base.filter(|b| b.shape() != shape) {
        return Err(WireError::BaseMismatch {
            declared: shape,
            base: base.shape().to_vec(),
        });
    }
    let base = base.map(Tensor::as_slice);
    let data = match payload {
        Payload::F32 => collect_onto(f32_values(r.take_elems(len, 4)?), len, base),
        Payload::F16 => {
            let bytes = r.take_elems(len, 2)?;
            let values = bytes
                .chunks_exact(2)
                .map(|b| F16::from_u16(u16::from_le_bytes([b[0], b[1]])).to_f32());
            collect_onto(values, len, base)
        }
        Payload::Sign1 => {
            let scale = r.read_f32()?;
            let packed = r.take(len.div_ceil(8))?;
            // Only the last byte can carry padding. A corrupted tail byte
            // with stray high bits would decode "successfully" under a
            // laxer reader; reject it.
            if let Some(&last) = packed.last() {
                if len % 8 != 0 && last >> (len % 8) != 0 {
                    return Err(WireError::NonzeroPadding {
                        at: packed.len() - 1,
                    });
                }
            }
            let values = (0..len).map(|i| match packed[i / 8] >> (i % 8) & 1 {
                1 => scale,
                _ => -scale,
            });
            collect_onto(values, len, base)
        }
        Payload::QuantI8 => {
            let scale = r.read_f32()?;
            let levels = r.take(len)?;
            let values = levels
                .iter()
                .map(|&b| f32::from(i8::from_le_bytes([b])) * scale);
            collect_onto(values, len, base)
        }
    };
    let actual = data.len();
    Tensor::from_vec(data, &shape).map_err(|_| WireError::ShapeMismatch {
        declared: len,
        actual,
    })
}

/// Raw little-endian f32 bit patterns, four bytes each.
fn f32_values(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
}

/// Collects `len` decoded values into one exactly-sized buffer, each added
/// onto its `base` element (`value + base`, the operand order of
/// `add_assign`) when a base is given.
fn collect_onto(values: impl Iterator<Item = f32>, len: usize, base: Option<&[f32]>) -> Vec<f32> {
    let mut out = Vec::with_capacity(len);
    match base {
        Some(base) => out.extend(values.zip(base).map(|(v, &b)| v + b)),
        None => out.extend(values),
    }
    out
}

/// Decodes one i8 frame natively into `i8` storage: one byte per element
/// lands in a [`Buffer<i8>`](crate::storage::Buffer) instead of a four-byte
/// `f32`, and the dense form is materialized lazily at first read
/// ([`QuantTensor::dense`](crate::storage::QuantTensor::dense)).
///
/// # Errors
///
/// Returns a typed [`WireError`] for any truncated, oversized or corrupt
/// frame; never panics.
pub fn decode_tensor_quant(r: &mut ByteReader<'_>) -> WireResult<QuantTensor> {
    let (shape, len) = read_shape(r)?;
    let scale = r.read_f32()?;
    let levels: Vec<i8> = r.take(len)?.iter().map(|&b| i8::from_le_bytes([b])).collect();
    let actual = levels.len();
    QuantTensor::from_levels(levels, scale, &shape).map_err(|_| WireError::ShapeMismatch {
        declared: len,
        actual,
    })
}

/// The Sign1 shared scale: mean |x|, accumulated sequentially in f64 so
/// the result is bit-identical for any worker-pool width. Non-finite
/// entries contribute nothing (a NaN-poisoned update must not produce a
/// NaN scale that wipes out the whole tensor on decode).
fn sign1_scale<L: Lane>(xs: &[L]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for x in xs {
        if x.get().is_finite() {
            sum += f64::from(x.get()).abs();
        }
    }
    cast::f64_to_f32(sum / cast::len_to_f64(xs.len()))
}

/// Independent running maxima in the [`quant_scale`] scan.
const SCAN_LANES: usize = 16;

/// The i8 shared scale: max |x| / 127 over the finite entries.
///
/// The maximum of a set of non-NaN values does not depend on the order
/// they are compared in, so the scan keeps [`SCAN_LANES`] running maxima
/// (which vectorizes) and the result is the bits a sequential scan gives.
fn quant_scale<L: Lane>(xs: &[L]) -> f32 {
    let mut maxima = [0.0f32; SCAN_LANES];
    let mut fold = |chunk: &[L]| {
        for (m, x) in maxima.iter_mut().zip(chunk) {
            let a = if x.get().is_finite() { x.get().abs() } else { 0.0 };
            *m = if a > *m { a } else { *m };
        }
    };
    // Whole chunks first: a fixed trip count is what lets the lanes stay
    // in registers.
    let chunks = xs.chunks_exact(SCAN_LANES);
    let tail = chunks.remainder();
    chunks.for_each(&mut fold);
    fold(tail);
    maxima.iter().fold(0.0f32, |m, &a| if a > m { a } else { m }) / 127.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn roundtrip(t: &Tensor, codec: Codec) -> Tensor {
        let mut w = ByteWriter::with_capacity(encoded_tensor_len(t, codec));
        encode_tensor(t, codec, &mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), encoded_tensor_len(t, codec), "predicted len");
        let mut r = ByteReader::new(&bytes);
        let back = decode_tensor(&mut r, codec).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn writer_reader_primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f32(f32::from_bits(0x7FC0_1234)); // NaN with payload
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_f32().unwrap().to_bits(), 0x7FC0_1234);
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_and_trailing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(
            r.read_u32().unwrap_err(),
            WireError::Truncated { need: 4, have: 3 }
        );
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes { extra: 2 });
    }

    #[test]
    fn header_roundtrip_and_rejections() {
        for codec in Codec::all() {
            let mut w = ByteWriter::new();
            write_header(&mut w, MAGIC, codec.tag());
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), HEADER_LEN);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(Codec::from_tag(read_header(&mut r, MAGIC).unwrap()).unwrap(), codec);
        }
        let mut bad_magic = vec![b'X', b'N', b'W', b'R', 1, 0, 0];
        let mut r = ByteReader::new(&bad_magic);
        let err = read_header(&mut r, MAGIC).unwrap_err();
        assert_eq!(err, WireError::BadMagic { found: *b"XNWR", expected: MAGIC });
        assert!(err.to_string().contains("DNWR"), "{err}");
        // The same bytes checked against another format name that format.
        let err = read_header(&mut ByteReader::new(&bad_magic), *b"DNCK").unwrap_err();
        assert!(err.to_string().contains("DNCK") && !err.to_string().contains("DNWR"), "{err}");
        bad_magic[..4].copy_from_slice(&MAGIC);
        bad_magic[4] = 99;
        let mut r = ByteReader::new(&bad_magic);
        let err = read_header(&mut r, MAGIC).unwrap_err();
        assert_eq!(err, WireError::UnsupportedVersion { magic: MAGIC, found: 99 });
        assert!(err.to_string().contains("DNWR format version 99"), "{err}");
        let mut w = ByteWriter::new();
        write_header(&mut w, MAGIC, 0x7F);
        let bad_codec = w.into_bytes();
        let tag = read_header(&mut ByteReader::new(&bad_codec), MAGIC).unwrap();
        assert_eq!(
            Codec::from_tag(tag).unwrap_err(),
            WireError::UnknownTag { what: "DNWR codec", tag: 0x7F }
        );
    }

    #[test]
    fn sections_roundtrip_at_every_dtype_through_the_shared_payloads() {
        let mut rng = Rng::seed_from(0x5EC);
        let t = awkward(37, &mut rng);
        for dtype in Dtype::all() {
            let mut w = ByteWriter::new();
            encode_section(&t, dtype, &mut w).unwrap();
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), encoded_section_len(&t, dtype), "{dtype}");
            assert_eq!(bytes[0], dtype.tag());
            let mut r = ByteReader::new(&bytes);
            let back = decode_section(&mut r, |t| t, |q| q.to_tensor()).unwrap();
            r.finish().unwrap();
            let resident = decode_section(&mut ByteReader::new(&bytes), |_| false, |_| true);
            assert_eq!(resident.unwrap(), dtype == Dtype::I8, "{dtype}: only i8 stays resident");
            let want: Vec<u32> = match dtype {
                Dtype::F32 => bits(&t),
                Dtype::F16 => t.as_slice().iter().map(|&x| F16::from_f32(x).to_f32().to_bits()).collect(),
                // The i8 section is the quant_i8 frame behind a tag byte.
                Dtype::I8 => {
                    let mut w = ByteWriter::new();
                    encode_tensor(&t, Codec::QuantI8, &mut w).unwrap();
                    assert_eq!(&bytes[1..], &w.into_bytes()[..]);
                    bits(&decode_tensor(&mut ByteReader::new(&bytes[1..]), Codec::QuantI8).unwrap())
                }
            };
            let got = bits(&back);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let nan = f32::from_bits(*g).is_nan() && f32::from_bits(*w).is_nan();
                assert!(g == w || nan, "{dtype} element {i}");
            }
        }
        assert_eq!(
            decode_section(&mut ByteReader::new(&[0x7F]), |_| (), |_| ()).unwrap_err(),
            WireError::UnknownTag { what: "DNCK dtype", tag: 0x7F }
        );
    }

    #[test]
    fn flags_and_sequences_frame_what_sits_above_a_tensor() {
        let mut w = ByteWriter::new();
        w.put_flag(true);
        w.put_flag(false);
        w.put_f32s(&[1.5, -0.0, f32::from_bits(0x7FC0_0042)], "scalars").unwrap();
        write_seq(&mut w, [3u8, 5].iter(), "items", |i, &x, w| {
            w.put_u8(x + u8::try_from(i).unwrap());
            Ok::<(), WireError>(())
        })
        .unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.read_flag("a").unwrap());
        assert!(!r.read_flag("b").unwrap());
        let scalars: Vec<u32> = r.read_f32s("scalars").unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(scalars, [1.5f32.to_bits(), 0x8000_0000, 0x7FC0_0042]);
        let items: Vec<u8> = read_seq(&mut r, |r| r.read_u8()).unwrap();
        assert_eq!(items, [3, 6]);
        r.finish().unwrap();
        // A flag is 0 or 1; anything else is a typed error, not "present".
        assert_eq!(
            ByteReader::new(&[2]).read_flag("gauss cache flag").unwrap_err(),
            WireError::UnknownTag { what: "gauss cache flag", tag: 2 }
        );
        // A hostile count runs into truncation, never a reservation.
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert!(matches!(read_seq(&mut r, |r| r.read_u8()), Err(WireError::Truncated { .. })));
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(matches!(r.read_f32s("scalars"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn f32_codec_is_bit_identical_including_nan_payloads() {
        let special = vec![
            f32::from_bits(0x7FC0_0001), // NaN, nonzero payload
            f32::from_bits(0xFF80_0000), // -inf
            f32::from_bits(0x0000_0001), // subnormal
            -0.0,
            0.0,
            f32::MAX,
            f32::MIN,
        ];
        let t = Tensor::from_vec(special.clone(), &[7]).unwrap();
        let back = roundtrip(&t, Codec::F32);
        let got: Vec<u32> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = special.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lossless_roundtrip_over_random_shapes() {
        let mut rng = Rng::seed_from(0xD1AB);
        for trial in 0..50 {
            let rank = trial % 4;
            let shape: Vec<usize> = (0..rank).map(|_| rng.below(7)).collect();
            let t = rng.randn(&shape);
            let back = roundtrip(&t, Codec::F32);
            assert_eq!(back.shape(), t.shape());
            let got: Vec<u32> = back.as_slice().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = t.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "trial {trial} shape {shape:?}");
        }
    }

    #[test]
    fn empty_and_odd_length_tensors_roundtrip_under_all_codecs() {
        let mut rng = Rng::seed_from(7);
        for codec in Codec::all() {
            for shape in [vec![], vec![0], vec![1], vec![3], vec![7], vec![31], vec![3, 0, 5]] {
                let t = rng.randn(&shape);
                let back = roundtrip(&t, codec);
                assert_eq!(back.shape(), t.shape(), "{codec:?} {shape:?}");
                assert_eq!(back.len(), t.len());
            }
        }
    }

    #[test]
    fn sign1_decodes_to_signed_scale() {
        let t = Tensor::from_vec(vec![3.0, -1.0, 0.5, -0.5, 2.0], &[5]).unwrap();
        let back = roundtrip(&t, Codec::Sign1);
        // scale = mean |x| = (3 + 1 + 0.5 + 0.5 + 2) / 5 = 1.4
        let s = 1.4f32;
        let got = back.as_slice();
        let want = [s, -s, s, -s, s];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "{got:?}");
        }
    }

    #[test]
    fn sign1_and_qi8_are_idempotent() {
        // Lossy codecs must be stable on their own output: encoding a
        // decoded tensor again reproduces it bit-exactly (the fixed point
        // the error-feedback loop converges toward).
        let mut rng = Rng::seed_from(42);
        for codec in [Codec::Sign1, Codec::QuantI8] {
            let t = rng.randn(&[67]);
            let once = roundtrip(&t, codec);
            let twice = roundtrip(&once, codec);
            let got: Vec<u32> = twice.as_slice().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = once.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{codec:?}");
        }
    }

    #[test]
    fn qi8_error_is_bounded_by_half_step() {
        let mut rng = Rng::seed_from(11);
        let t = rng.randn(&[256]);
        let max_abs = t.as_slice().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let step = max_abs / 127.0;
        let back = roundtrip(&t, Codec::QuantI8);
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step * 0.5 + 1e-6, "{a} vs {b}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Values that stress the lossy arms: both signs of zero, subnormals,
    /// non-finite entries, ties at .5 of a level, and a spread of normals.
    fn awkward(len: usize, rng: &mut Rng) -> Tensor {
        let special = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE,
            63.5,
            -127.0,
        ];
        let mut t = rng.randn(&[len]);
        for (i, x) in t.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *x = special[(i / 3) % special.len()];
            }
        }
        t
    }

    #[test]
    fn feedback_encode_writes_the_same_frame_and_leaves_the_exact_residual() {
        let mut rng = Rng::seed_from(0xFEED_BAC);
        for codec in Codec::all() {
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 1000] {
                for t in [awkward(len, &mut rng), Tensor::zeros(&[len])] {
                    let before = bits(&t);
                    let mut plain = ByteWriter::new();
                    encode_tensor(&t, codec, &mut plain).unwrap();
                    let plain = plain.into_bytes();
                    let decoded = decode_tensor(&mut ByteReader::new(&plain), codec).unwrap();
                    let want = t.sub(&decoded).unwrap();

                    let mut v = t.clone();
                    let mut fused = ByteWriter::new();
                    encode_tensor_feedback(&mut v, codec, &mut fused).unwrap();
                    assert_eq!(fused.into_bytes(), plain, "{codec:?} len {len}: frame");
                    if codec.is_lossy() {
                        assert_eq!(bits(&v), bits(&want), "{codec:?} len {len}: residual");
                    } else {
                        assert!(v.as_slice().iter().all(|x| x.to_bits() == 0));
                    }
                    // `v` shared `t`'s buffer until it was written: a reader
                    // of the source never sees the residual.
                    assert_eq!(bits(&t), before, "{codec:?} len {len}: source");
                }
            }
        }
    }

    #[test]
    fn laned_scale_scan_equals_the_sequential_maximum() {
        let mut rng = Rng::seed_from(77);
        for len in [0usize, 1, 15, 16, 17, 33, 1000] {
            let t = awkward(len, &mut rng);
            let mut max_abs = 0.0f32;
            for &x in t.as_slice() {
                if x.is_finite() {
                    max_abs = max_abs.max(x.abs());
                }
            }
            assert_eq!(quant_scale(t.as_slice()).to_bits(), (max_abs / 127.0).to_bits());
        }
    }

    #[test]
    fn decode_onto_equals_decode_then_add_assign() {
        let mut rng = Rng::seed_from(0x0B75);
        for codec in Codec::all() {
            for len in [0usize, 1, 7, 9, 16, 129] {
                let t = awkward(len, &mut rng);
                let base = awkward(len, &mut rng);
                let mut w = ByteWriter::new();
                encode_tensor(&t, codec, &mut w).unwrap();
                let bytes = w.into_bytes();
                let mut want = decode_tensor(&mut ByteReader::new(&bytes), codec).unwrap();
                want.add_assign(&base).unwrap();
                let mut r = ByteReader::new(&bytes);
                let got = decode_tensor_onto(&mut r, codec, &base).unwrap();
                r.finish().unwrap();
                assert_eq!(bits(&got), bits(&want), "{codec:?} len {len}");
            }
        }
    }

    #[test]
    fn decode_onto_rejects_a_base_of_another_shape_before_the_payload() {
        let t = Tensor::zeros(&[2, 3]);
        let mut w = ByteWriter::new();
        encode_tensor(&t, Codec::QuantI8, &mut w).unwrap();
        let bytes = w.into_bytes();
        let other = Tensor::zeros(&[3, 2]);
        let err = decode_tensor_onto(&mut ByteReader::new(&bytes), Codec::QuantI8, &other)
            .unwrap_err();
        assert_eq!(
            err,
            WireError::BaseMismatch { declared: vec![2, 3], base: vec![3, 2] }
        );
        // Truncation is still reported as such when the shapes agree.
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_tensor_onto(&mut ByteReader::new(cut), Codec::QuantI8, &t),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn non_finite_inputs_do_not_poison_lossy_scales() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, -2.0, 2.0], &[4]).unwrap();
        for codec in [Codec::Sign1, Codec::QuantI8] {
            let back = roundtrip(&t, codec);
            assert!(
                back.as_slice().iter().all(|x| x.is_finite()),
                "{codec:?}: {:?}",
                back.as_slice()
            );
        }
    }

    #[test]
    fn decoder_rejects_oversized_length_headers_without_allocating() {
        // rank=1, dim=u32::MAX declares ~17 GB of f32 payload; the decoder
        // must bounds-check before reserving.
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_tensor(&mut r, Codec::F32),
            Err(WireError::Truncated { .. })
        ));

        // An absurd rank is rejected outright.
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            decode_tensor(&mut r, Codec::F32).unwrap_err(),
            WireError::LengthOverflow { what: "rank", value: 1_000_000 }
        );

        // Element-count overflow from plausible dims.
        let mut w = ByteWriter::new();
        w.put_u32(8);
        for _ in 0..8 {
            w.put_u32(u32::MAX);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_tensor(&mut r, Codec::F32),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn sign1_rejects_nonzero_padding() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 1.0], &[3]).unwrap();
        let mut w = ByteWriter::new();
        encode_tensor(&t, Codec::Sign1, &mut w).unwrap();
        let mut bytes = w.into_bytes();
        // Tamper with a padding bit above the 3 used bits of the last byte.
        let last = bytes.len() - 1;
        bytes[last] |= 1 << 6;
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            decode_tensor(&mut r, Codec::Sign1).unwrap_err(),
            WireError::NonzeroPadding { at: 0 }
        );
    }

    #[test]
    fn corrupted_streams_error_and_never_panic() {
        // Seeded fuzz loop: truncations of a valid frame always error;
        // random byte flips either decode (payload damage) or error with a
        // typed WireError — no input may panic or over-allocate.
        let mut rng = Rng::seed_from(0xFEED);
        let t = rng.randn(&[5, 7]);
        for codec in Codec::all() {
            let mut w = ByteWriter::new();
            encode_tensor(&t, codec, &mut w).unwrap();
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let mut r = ByteReader::new(&bytes[..cut]);
                let res = decode_tensor(&mut r, codec).and_then(|_| r.finish());
                assert!(res.is_err(), "{codec:?}: prefix of {cut} bytes decoded");
            }
            for _ in 0..200 {
                let mut corrupt = bytes.clone();
                let flips = 1 + rng.below(3);
                for _ in 0..flips {
                    let i = rng.below(corrupt.len());
                    let bit = rng.below(8);
                    corrupt[i] ^= 1u8 << bit;
                }
                let mut r = ByteReader::new(&corrupt);
                // Must return — Ok or a typed error — without panicking.
                let _ = decode_tensor(&mut r, codec).and_then(|_| r.finish());
            }
        }
    }
}
