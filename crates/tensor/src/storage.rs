//! Generic dtype storage backend behind the [`Tensor`](crate::Tensor) facade.
//!
//! Every tensor holds its values as `f32`; the narrower widths exist on the
//! wire and on disk, where a `DNCK` checkpoint section or a `quant_i8` frame
//! is widened back to `f32` as it is decoded. This module owns the types
//! those widths are spelled in and the one storage unit:
//!
//! * [`Element`] — the closed set of storable scalar types (`f32`, `i8`, and
//!   the bit-pattern half float [`F16`]), each tagged with a [`Dtype`] and
//!   convertible to/from `f32`. No element hands out its raw bits: the one
//!   reinterpretation, [`F16`]'s software conversion, goes through
//!   `f32::to_bits`/`from_bits` in this file, and `unsafe` (hence
//!   `transmute`) is forbidden on every target of the workspace.
//! * [`Buffer`] — the owned storage unit, generic over the element type.
//!   Construction, copy-on-write materialization (`Clone`) and `Drop`
//!   register with the two-ledger [`alloc`] accounting, so every
//!   memory-overhead measurement (Table 3 of the paper) counts tensor bytes
//!   at their element width.

use crate::{alloc, profile};
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
/// or whole-buffer views. It has no raw bit-pattern accessor, so no second
/// spelling of a dtype's bits can exist outside this module:
///
/// ```compile_fail
/// use dinar_tensor::storage::Element;
/// let bits = 1.0f32.to_bit_pattern();
/// ```
pub trait Element: Copy + PartialEq + Send + Sync + fmt::Debug + 'static {
    /// The runtime dtype tag for this element type.
    const DTYPE: Dtype;

    /// Widens/decodes to `f32` (exact for `f32`, `i8` and `F16`).
    fn to_f32(self) -> f32;

    /// Narrows/encodes from `f32` (round-to-nearest-even for [`F16`],
    /// saturating for `i8`).
    fn from_f32(x: f32) -> Self;
}

impl Element for f32 {
    const DTYPE: Dtype = Dtype::F32;

    fn to_f32(self) -> f32 {
        self
    }

    fn from_f32(x: f32) -> Self {
        x
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
}

/// Narrows an `f32` to binary16 bits with round-to-nearest-even.
fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
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
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

/// The owned, dtype-generic storage unit behind a tensor: the copy-on-write
/// and allocation-accounting boundary.
///
/// A `Buffer` owns the flat element vector and is the single place where the
/// [`alloc`] ledgers see tensor memory: construction records the allocation,
/// dropping records the deallocation (on the dropping thread, preserving the
/// cross-thread two-ledger semantics), and `Clone` —
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::thread_live_bytes;

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
            (65504.0, 0x7BFF), // largest finite half
            (f32::INFINITY, 0x7C00),
            (f32::NEG_INFINITY, 0xFC00),
            (6.103_515_6e-5, 0x0400), // smallest normal half
            (5.960_464_5e-8, 0x0001), // smallest subnormal half
        ] {
            assert_eq!(F16::from_f32(x).to_u16(), bits, "encode {x}");
            assert_eq!(
                f16_bits_to_f32(bits).to_bits(),
                x.to_bits(),
                "decode {bits:#06x}"
            );
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
        assert_eq!(
            F16::from_f32(1.0 + 2f32.powi(-11) + 2f32.powi(-20)).to_u16(),
            0x3C01
        );
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
        for x in [0.0f32, -0.0, -1.5, f32::MIN_POSITIVE, f32::MAX] {
            assert_eq!(f32::from_f32(x.to_f32()).to_bits(), x.to_bits());
        }
        // The i8 grid is symmetric: -128 saturates to -127 on the way back.
        for l in [-127i8, -1, 0, 1, 127] {
            assert_eq!(i8::from_f32(l.to_f32()), l);
        }
        assert_eq!(i8::from_f32((-128i8).to_f32()), -127);
        for bits in [0u16, 0x3C00, 0xFC00, 0x8001] {
            let h = F16::from_u16(bits);
            assert_eq!(F16::from_f32(h.to_f32()).to_u16(), bits);
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
}
