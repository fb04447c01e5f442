//! Generic dtype storage backend behind the [`Tensor`](crate::Tensor) facade.
//!
//! Historically tensor storage was a hard-coded `Arc<Vec<f32>>`. This module
//! splits storage from the tensor front-end the way the checkpoint/serving
//! plane needs it:
//!
//! * [`Element`] — the closed set of storable scalar types (`f32`, `i8`, and
//!   the bit-pattern half float [`F16`]), each tagged with a [`Dtype`] and
//!   convertible to/from `f32` and to/from its raw bit pattern. The raw
//!   bit-pattern conversions are the one sanctioned punning point in the
//!   workspace: lint rule L018 confines the `to_bit_pattern` /
//!   `from_bit_pattern` spellings (and `transmute`) to this file.
//! * [`Buffer`] — the owned, dtype-generic storage unit. Construction,
//!   copy-on-write materialization (`Clone`) and `Drop` register with the
//!   two-ledger [`alloc`](crate::alloc) accounting exactly as the old
//!   `f32`-only buffer did, so all memory-overhead measurements
//!   (Table 3 of the paper) are unchanged bit for bit.
//! * [`BufferPool`] — a round-scoped free-list allocator: released buffers
//!   park their raw capacity in the pool and re-enter the ledgers only when
//!   re-acquired, so per-batch scratch (the serving plane's dequantization
//!   buffers) stops paying one heap allocation per use.
//! * [`QuantTensor`] — native `i8` storage for quantized parameters: the
//!   wire's `quant_i8` codec decodes straight into a `Buffer<i8>` plus one
//!   scale, and dequantizes to a dense `f32` [`Tensor`](crate::Tensor)
//!   lazily at first read.

use crate::{alloc, profile, Result, Tensor, TensorError};
use std::fmt;

// ---------------------------------------------------------------------------
// Dtype
// ---------------------------------------------------------------------------

/// The storable element types, as a runtime tag.
///
/// The tag byte is what the `DNCK` checkpoint format writes in front of each
/// tensor section, so the discriminant values are part of the on-disk format
/// and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// IEEE-754 single precision, 4 bytes/element.
    F32,
    /// Signed 8-bit quantization levels, 1 byte/element (+ one shared scale).
    I8,
    /// IEEE-754 half precision as a bit pattern, 2 bytes/element.
    F16,
}

impl Dtype {
    /// Bytes per element.
    pub fn width(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::I8 => 1,
            Dtype::F16 => 2,
        }
    }

    /// The on-disk tag byte (part of the `DNCK` format).
    pub fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0x00,
            Dtype::I8 => 0x01,
            Dtype::F16 => 0x02,
        }
    }

    /// Looks a dtype up by its on-disk tag.
    pub fn from_tag(tag: u8) -> Option<Dtype> {
        match tag {
            0x00 => Some(Dtype::F32),
            0x01 => Some(Dtype::I8),
            0x02 => Some(Dtype::F16),
            _ => None,
        }
    }

    /// Human-readable name (reports, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::I8 => "i8",
            Dtype::F16 => "f16",
        }
    }

    /// All dtypes, in tag order.
    pub fn all() -> [Dtype; 3] {
        [Dtype::F32, Dtype::I8, Dtype::F16]
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Element
// ---------------------------------------------------------------------------

/// A scalar type storable in a [`Buffer`].
///
/// The trait is the storage/backend seam: everything above it (tensor ops,
/// wire codecs, checkpoints) manipulates elements through `to_f32`/`from_f32`
/// or whole-buffer views, while the raw bit-pattern accessors exist for the
/// serialization plane and are confined to this module by lint rule L018.
pub trait Element: Copy + PartialEq + Send + Sync + fmt::Debug + 'static {
    /// The runtime dtype tag for this element type.
    const DTYPE: Dtype;

    /// Widens/decodes to `f32` (exact for `f32`, `i8` and `F16`).
    fn to_f32(self) -> f32;

    /// Narrows/encodes from `f32` (round-to-nearest-even for [`F16`],
    /// saturating for `i8`).
    fn from_f32(x: f32) -> Self;

    /// The element's raw bits, zero-extended into a `u32`.
    fn to_bit_pattern(self) -> u32;

    /// Rebuilds an element from raw bits (low `width()*8` bits used).
    fn from_bit_pattern(bits: u32) -> Self;
}

impl Element for f32 {
    const DTYPE: Dtype = Dtype::F32;

    fn to_f32(self) -> f32 {
        self
    }

    fn from_f32(x: f32) -> Self {
        x
    }

    fn to_bit_pattern(self) -> u32 {
        self.to_bits()
    }

    fn from_bit_pattern(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Element for i8 {
    const DTYPE: Dtype = Dtype::I8;

    fn to_f32(self) -> f32 {
        f32::from(self)
    }

    fn from_f32(x: f32) -> Self {
        crate::cast::f32_to_i8_sat(x)
    }

    fn to_bit_pattern(self) -> u32 {
        u32::from(self as u8)
    }

    fn from_bit_pattern(bits: u32) -> Self {
        (bits & 0xFF) as u8 as i8
    }
}

/// IEEE-754 binary16 as a bit pattern.
///
/// The workspace has no native half type, so `F16` stores the 16 raw bits
/// and converts through `f32` in software: widening is exact, narrowing
/// rounds to nearest-even (with subnormal and infinity handling), matching
/// hardware `f32`→`f16` conversion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F16(u16);

impl F16 {
    /// Wraps raw binary16 bits.
    pub const fn from_u16(bits: u16) -> F16 {
        F16(bits)
    }

    /// The raw binary16 bits.
    pub const fn to_u16(self) -> u16 {
        self.0
    }
}

impl Element for F16 {
    const DTYPE: Dtype = Dtype::F16;

    fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    fn to_bit_pattern(self) -> u32 {
        u32::from(self.0)
    }

    fn from_bit_pattern(bits: u32) -> Self {
        F16((bits & 0xFFFF) as u16)
    }
}

/// Narrows an `f32` to binary16 bits with round-to-nearest-even.
fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bit_pattern();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Infinity keeps a zero mantissa; NaN keeps the quiet bit so it
        // stays a NaN after the mantissa truncation.
        let payload = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7C00 | payload;
    }
    let e = exp - 127;
    if e >= 16 {
        return sign | 0x7C00; // overflow to infinity
    }
    if e >= -14 {
        // Normal half: 10-bit mantissa, round-to-nearest-even on the 13
        // dropped bits, carrying a mantissa overflow into the exponent.
        let mut m = mant >> 13;
        let rest = mant & 0x1FFF;
        if rest > 0x1000 || (rest == 0x1000 && m & 1 == 1) {
            m += 1;
        }
        let mut he = (e + 15) as u32;
        if m == 0x400 {
            m = 0;
            he += 1;
            if he >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((he as u16) << 10) | (m as u16);
    }
    if e >= -25 {
        // Subnormal half: shift the full 24-bit significand into place and
        // round to nearest-even. A round-up to 0x400 is the smallest normal
        // and that bit pattern is already correct.
        let full = mant | 0x0080_0000;
        let shift = (13 + (-14 - e)) as u32;
        let mut m = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rest > half || (rest == half && m & 1 == 1) {
            m += 1;
        }
        return sign | (m as u16);
    }
    sign // underflows to (signed) zero
}

/// Widens binary16 bits to an `f32` (always exact).
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1F;
    let mant = u32::from(h & 0x03FF);
    let bits = if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal half: normalize into an f32 with implicit bit.
            let mut m = mant;
            let mut e32 = 113u32; // biased exponent of 2^-14
            while m & 0x400 == 0 {
                m <<= 1;
                e32 -= 1;
            }
            sign | (e32 << 23) | ((m & 0x3FF) << 13)
        }
    } else {
        sign | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bit_pattern(bits)
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

/// The owned, dtype-generic storage unit behind a tensor: the copy-on-write
/// and allocation-accounting boundary.
///
/// A `Buffer` owns the flat element vector and is the single place where the
/// [`alloc`](crate::alloc) ledgers see tensor memory: construction records
/// the allocation, dropping records the deallocation (on the dropping
/// thread, preserving the cross-thread two-ledger semantics), and `Clone` —
/// reached only through `Arc::make_mut` when a *shared* buffer is written —
/// records the allocation of the materialized private copy plus a
/// buffer-copy tick for the copy-traffic counters.
#[derive(Debug)]
pub struct Buffer<T: Element> {
    pub(crate) data: Vec<T>,
}

impl<T: Element> Buffer<T> {
    /// Wraps an owned vector, registering its bytes with the alloc ledgers.
    pub fn new(data: Vec<T>) -> Self {
        alloc::record_alloc(Self::bytes_for(data.len()));
        Buffer { data }
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeros(len: usize) -> Self {
        Buffer::new(vec![T::from_f32(0.0); len])
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes currently charged to the ledgers for this buffer.
    pub fn byte_len(&self) -> u64 {
        Self::bytes_for(self.data.len())
    }

    /// Read-only element view.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable element view (the buffer is uniquely owned by definition).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Moves the vector out, settling this buffer's ledger charge; the
    /// caller now owns untracked memory (the later zero-length `Drop`
    /// records a zero-byte deallocation).
    pub fn take_data(&mut self) -> Vec<T> {
        alloc::record_dealloc(self.byte_len());
        std::mem::take(&mut self.data)
    }

    fn bytes_for(len: usize) -> u64 {
        (len * T::DTYPE.width()) as u64
    }
}

impl<T: Element> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        alloc::record_alloc(self.byte_len());
        profile::record_buffer_copy(self.byte_len());
        Buffer {
            data: self.data.clone(),
        }
    }
}

impl<T: Element> Drop for Buffer<T> {
    fn drop(&mut self) {
        alloc::record_dealloc(self.byte_len());
    }
}

impl<T: Element> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

/// A round-scoped free-list allocator for [`Buffer`]s of one dtype.
///
/// Hot loops that allocate a same-sized scratch buffer per iteration (the
/// serving plane's per-batch dequantization scratch, a round's staging
/// buffers) acquire from the pool instead: a released buffer parks its raw
/// capacity here — off the alloc ledgers, like any caller-owned vector — and
/// the next acquisition of a fitting size reuses it, re-entering the ledgers
/// through the normal [`Buffer::new`] path. Accounting therefore stays
/// exact: bytes are charged exactly while they sit inside a live `Buffer`.
#[derive(Debug, Default)]
pub struct BufferPool<T: Element> {
    free: Vec<Vec<T>>,
    hits: u64,
    misses: u64,
}

impl<T: Element> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A zero-filled buffer of `len` elements, reusing parked capacity when
    /// a released vector can hold it without reallocating.
    pub fn acquire(&mut self, len: usize) -> Buffer<T> {
        match self.free.iter().position(|v| v.capacity() >= len) {
            Some(i) => {
                let mut v = self.free.swap_remove(i);
                v.clear();
                v.resize(len, T::from_f32(0.0));
                self.hits += 1;
                Buffer::new(v)
            }
            None => {
                self.misses += 1;
                Buffer::zeros(len)
            }
        }
    }

    /// Returns a buffer's capacity to the pool for reuse.
    pub fn release(&mut self, mut buf: Buffer<T>) {
        self.free.push(buf.take_data());
    }

    /// Acquisitions served from parked capacity.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Acquisitions that had to allocate fresh.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of released vectors currently parked.
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

impl BufferPool<f32> {
    /// A zero-filled tensor backed by pooled storage.
    pub fn acquire_tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_buffer_unchecked(self.acquire(len), shape.to_vec())
    }

    /// Reclaims a tensor's storage into the pool. A buffer still shared
    /// with another tensor cannot be reclaimed and is simply dropped
    /// (its refcount falls; the other owners keep it).
    pub fn release_tensor(&mut self, t: Tensor) {
        if let Some(buf) = t.try_into_buffer() {
            self.release(buf);
        }
    }
}

// ---------------------------------------------------------------------------
// QuantTensor
// ---------------------------------------------------------------------------

/// A tensor stored natively as `i8` quantization levels plus one `f32`
/// scale: `value[i] = scale * levels[i]`.
///
/// This is the resident form of quantized parameters in the serving plane
/// and the landing type of the wire's `quant_i8` codec: decoding fills a
/// [`Buffer<i8>`] (one byte per element instead of four) and the dense
/// `f32` tensor is materialized lazily, at first read, through
/// [`QuantTensor::dense`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    levels: Buffer<i8>,
    scale: f32,
    shape: Vec<usize>,
    cache: Option<Tensor>,
}

impl QuantTensor {
    /// Builds a quantized tensor from raw levels, a scale and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the product of `shape`
    /// does not equal `levels.len()`.
    pub fn from_levels(levels: Vec<i8>, scale: f32, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != levels.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: levels.len(),
            });
        }
        Ok(QuantTensor {
            levels: Buffer::new(levels),
            scale,
            shape: shape.to_vec(),
            cache: None,
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The shared dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw quantization levels.
    pub fn levels(&self) -> &[i8] {
        self.levels.as_slice()
    }

    /// Resident storage bytes: one per level plus the four-byte scale.
    /// Excludes any lazily materialized dense cache.
    pub fn resident_bytes(&self) -> u64 {
        self.levels.byte_len() + 4
    }

    /// Whether the dense `f32` form has been materialized yet.
    pub fn is_materialized(&self) -> bool {
        self.cache.is_some()
    }

    /// The dense `f32` tensor, dequantized on first call and cached; later
    /// calls are O(1) shares of the cached buffer.
    pub fn dense(&mut self) -> &Tensor {
        if self.cache.is_none() {
            self.cache = Some(self.to_tensor());
        }
        // lint: allow(L001, the line above just filled the cache)
        self.cache.as_ref().expect("dense cache was just filled")
    }

    /// Eagerly dequantizes into a fresh dense tensor without caching.
    pub fn to_tensor(&self) -> Tensor {
        let scale = self.scale;
        let data: Vec<f32> = self
            .levels
            .as_slice()
            .iter()
            .map(|&l| l.to_f32() * scale)
            .collect();
        Tensor::from_buffer_unchecked(Buffer::new(data), self.shape.clone())
    }

    /// Dequantizes into an existing tensor (e.g. pooled scratch) in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `out`'s element count
    /// differs from this tensor's.
    pub fn dequantize_into(&self, out: &mut Tensor) -> Result<()> {
        if out.len() != self.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: self.shape.clone(),
                data_len: out.len(),
            });
        }
        let scale = self.scale;
        for (dst, &l) in out.as_mut_slice().iter_mut().zip(self.levels.as_slice()) {
            *dst = l.to_f32() * scale;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::thread_live_bytes;
    use crate::wire::{self, ByteReader, ByteWriter, Codec};

    /// A tensor quantized the one way there is: through the wire's i8 frame,
    /// decoded natively into i8 storage.
    fn quantize(t: &Tensor) -> QuantTensor {
        let mut w = ByteWriter::new();
        wire::encode_tensor(t, Codec::QuantI8, &mut w).unwrap();
        wire::decode_tensor_quant(&mut ByteReader::new(&w.into_bytes())).unwrap()
    }

    #[test]
    fn dtype_tags_roundtrip_and_widths_match() {
        for d in Dtype::all() {
            assert_eq!(Dtype::from_tag(d.tag()), Some(d));
        }
        assert_eq!(Dtype::from_tag(0x7F), None);
        assert_eq!(Dtype::F32.width(), 4);
        assert_eq!(Dtype::I8.width(), 1);
        assert_eq!(Dtype::F16.width(), 2);
    }

    #[test]
    fn f16_known_values() {
        for (x, bits) in [
            (0.0f32, 0x0000u16),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (0.5, 0x3800),
            (65504.0, 0x7BFF),        // largest finite half
            (f32::INFINITY, 0x7C00),
            (f32::NEG_INFINITY, 0xFC00),
            (6.103_515_6e-5, 0x0400), // smallest normal half
            (5.960_464_5e-8, 0x0001), // smallest subnormal half
        ] {
            assert_eq!(F16::from_f32(x).to_u16(), bits, "encode {x}");
            assert_eq!(f16_bits_to_f32(bits).to_bits(), x.to_bits(), "decode {bits:#06x}");
        }
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        // Overflow saturates to infinity, underflow to signed zero.
        assert_eq!(F16::from_f32(1e6).to_u16(), 0x7C00);
        assert_eq!(F16::from_f32(-1e-10).to_u16(), 0x8000);
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
        // ties go to the even mantissa (1.0).
        assert_eq!(F16::from_f32(1.0 + 2f32.powi(-11)).to_u16(), 0x3C00);
        // 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9: even is 1+2^-9.
        assert_eq!(F16::from_f32(1.0 + 3.0 * 2f32.powi(-11)).to_u16(), 0x3C02);
        // Anything past the tie rounds up.
        assert_eq!(F16::from_f32(1.0 + 2f32.powi(-11) + 2f32.powi(-20)).to_u16(), 0x3C01);
    }

    #[test]
    fn f16_widen_narrow_is_identity_on_every_pattern() {
        // Every half value must survive the f32 round trip bit-exactly
        // (NaNs keep their quiet bit; payload bits may widen but narrow
        // back to a NaN).
        for bits in 0..=u16::MAX {
            let h = F16::from_u16(bits);
            let wide = h.to_f32();
            let back = F16::from_f32(wide);
            if wide.is_nan() {
                assert!(back.to_f32().is_nan(), "{bits:#06x}");
            } else {
                assert_eq!(back.to_u16(), bits, "{bits:#06x}");
            }
        }
    }

    #[test]
    fn element_bit_patterns_roundtrip() {
        for x in [0.0f32, -1.5, f32::MIN_POSITIVE, f32::MAX] {
            assert_eq!(f32::from_bit_pattern(x.to_bit_pattern()).to_bits(), x.to_bits());
        }
        for l in [-128i8, -1, 0, 1, 127] {
            assert_eq!(i8::from_bit_pattern(l.to_bit_pattern()), l);
        }
        for bits in [0u16, 0x3C00, 0xFC00, 0x8001] {
            let h = F16::from_u16(bits);
            assert_eq!(F16::from_bit_pattern(h.to_bit_pattern()).to_u16(), bits);
        }
    }

    #[test]
    fn buffer_ledger_charges_match_dtype_width() {
        let before = thread_live_bytes();
        let b32 = Buffer::<f32>::zeros(100);
        assert_eq!(thread_live_bytes(), before + 400);
        let b8 = Buffer::<i8>::zeros(100);
        assert_eq!(thread_live_bytes(), before + 500);
        let b16 = Buffer::<F16>::zeros(100);
        assert_eq!(thread_live_bytes(), before + 700);
        drop((b32, b8, b16));
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn buffer_clone_records_a_materialized_copy() {
        let b = Buffer::<i8>::zeros(64);
        let before = thread_live_bytes();
        let copies_before = crate::profile::param_snapshot();
        let c = b.clone();
        assert_eq!(thread_live_bytes(), before + 64);
        let delta = crate::profile::param_snapshot().delta_since(&copies_before);
        assert_eq!(delta.copy_calls, 1);
        drop(c);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn pool_reuses_capacity_and_keeps_ledgers_exact() {
        let mut pool = BufferPool::<f32>::new();
        let base = thread_live_bytes();
        let a = pool.acquire(256);
        assert_eq!(thread_live_bytes(), base + 1024);
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        pool.release(a);
        // Parked capacity is off the ledgers until re-acquired.
        assert_eq!(thread_live_bytes(), base);
        assert_eq!(pool.parked(), 1);
        let b = pool.acquire(200); // fits in the parked 256-capacity vec
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert_eq!(thread_live_bytes(), base + 800);
        assert!(b.as_slice().iter().all(|&x| x == 0.0), "reused scratch must be zeroed");
        pool.release(b);
        let c = pool.acquire(512); // does not fit: fresh allocation
        assert_eq!((pool.hits(), pool.misses()), (1, 2));
        drop(c);
        assert_eq!(thread_live_bytes(), base);
    }

    #[test]
    fn pooled_tensors_roundtrip_through_the_pool() {
        let mut pool = BufferPool::<f32>::new();
        let mut t = pool.acquire_tensor(&[4, 8]);
        assert_eq!(t.shape(), &[4, 8]);
        t.as_mut_slice()[0] = 3.0;
        pool.release_tensor(t);
        assert_eq!(pool.parked(), 1);
        let t2 = pool.acquire_tensor(&[4, 8]);
        assert_eq!(pool.hits(), 1);
        assert_eq!(t2.as_slice()[0], 0.0, "recycled tensor must be zeroed");
        // A shared buffer cannot be reclaimed: the share keeps it alive.
        let shared = t2.clone();
        pool.release_tensor(t2);
        assert_eq!(pool.parked(), 0);
        drop(shared);
    }

    #[test]
    fn quant_tensor_stores_one_byte_per_element() {
        let t = crate::Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.0], &[2, 2]).unwrap();
        let before = thread_live_bytes();
        let q = quantize(&t);
        assert_eq!(thread_live_bytes(), before + 4, "4 i8 levels = 4 bytes");
        assert_eq!(q.resident_bytes(), 8);
        assert_eq!(q.shape(), &[2, 2]);
        assert!(!q.is_materialized());
        drop(q);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn quant_dense_is_lazy_and_cached() {
        let t = crate::Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.25], &[4]).unwrap();
        let mut q = quantize(&t);
        let before = thread_live_bytes();
        let first = q.dense().clone();
        // Materialization allocated exactly the 16-byte dense buffer.
        assert_eq!(thread_live_bytes(), before + 16);
        assert!(q.is_materialized());
        let shares_before = crate::profile::param_snapshot();
        let second = q.dense().clone();
        let delta = crate::profile::param_snapshot().delta_since(&shares_before);
        assert_eq!(delta.copy_calls, 0, "second read must share, not copy");
        assert_eq!(first, second);
        // Quantization error is bounded by half a level.
        for (&a, &b) in t.as_slice().iter().zip(first.as_slice()) {
            assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
        }
    }

    #[test]
    fn quant_matches_wire_codec_decode() {
        // The resident i8 form of a quant_i8 frame dequantises to the bits
        // the wire's dense decode gives (same scale, same levels).
        let mut rng = crate::Rng::seed_from(11);
        let t = rng.randn(&[13]);
        let mut w = ByteWriter::new();
        wire::encode_tensor(&t, Codec::QuantI8, &mut w).unwrap();
        let bytes = w.into_bytes();
        let via_wire = wire::decode_tensor(&mut ByteReader::new(&bytes), Codec::QuantI8).unwrap();
        let via_quant = quantize(&t).to_tensor();
        for (a, b) in via_wire.as_slice().iter().zip(via_quant.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dequantize_into_fills_pooled_scratch() {
        let t = crate::Tensor::from_vec(vec![2.0, -2.0, 1.0, 0.0], &[4]).unwrap();
        let q = quantize(&t);
        let mut pool = BufferPool::<f32>::new();
        let mut scratch = pool.acquire_tensor(&[4]);
        q.dequantize_into(&mut scratch).unwrap();
        let direct = q.to_tensor();
        assert_eq!(scratch.as_slice(), direct.as_slice());
        let mut wrong = pool.acquire_tensor(&[5]);
        assert!(q.dequantize_into(&mut wrong).is_err());
    }

    #[test]
    fn from_levels_validates_shape() {
        assert!(QuantTensor::from_levels(vec![1, 2, 3], 0.1, &[2, 2]).is_err());
        let q = QuantTensor::from_levels(vec![1, 2, 3, 4], 0.5, &[2, 2]).unwrap();
        assert_eq!(q.to_tensor().as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }
}
