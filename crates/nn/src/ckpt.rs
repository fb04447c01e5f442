//! `DNCK` — the versioned, dtype-tagged checkpoint format.
//!
//! Where the `DNWR` wire format ([`crate::snapshot`]) frames *transient*
//! round traffic, `DNCK` frames *durable* state: the global model between
//! rounds, personalized client models for serving, and (from the same
//! sections and model framing) full mid-round resume images assembled by
//! `dinar-fl`. The layout:
//!
//! ```text
//! magic "DNCK" (4 bytes)
//! version: u16
//! kind: u8                     (0x00 model, 0x01 fl-resume image)
//! layer_count: u32
//! per layer:
//!   tensor_count: u32
//!   per tensor:
//!     dtype tag: u8            (F32 = 0x00, I8 = 0x01, F16 = 0x02)
//!     rank: u32, dims: u32 × rank
//!     payload at that width    (f32 or f16 bit patterns; i8: scale + levels)
//! ```
//!
//! Every tensor carries its own dtype tag, so a single checkpoint can mix
//! storage widths (e.g. f32 biases next to i8 weight matrices) and old
//! readers fail loudly on tags they do not know. The header check and the
//! sections are [`dinar_tensor::wire`]'s, the codec `DNWR` streams use, and
//! the counts are [`crate::snapshot`]'s model framing; this module owns the
//! kind byte, the at-width decoded form and file I/O. Every payload's byte
//! budget is validated before allocation, corrupt counts run into
//! [`WireError::Truncated`] instead of a giant reservation, and the whole
//! buffer must be consumed.
//!
//! The I8 payload *is* the wire plane's `quant_i8` payload, so a model
//! checkpointed at i8 decodes to exactly the values a client would have
//! received over a `quant_i8` uplink.

use crate::snapshot::{framed_len, read_layers, write_layers};
use crate::{ModelParams, NnError, Result};
use dinar_tensor::wire::{
    self, decode_section, encode_section, encoded_section_len, ByteReader, ByteWriter, WireError,
};
pub use dinar_tensor::wire::{FORMAT_VERSION, HEADER_LEN};
use dinar_tensor::{Dtype, QuantTensor, Tensor};
use std::fs;
use std::path::Path;

/// The four magic bytes every checkpoint starts with.
pub const MAGIC: [u8; 4] = *b"DNCK";

/// What a `DNCK` file contains. The tag byte sits in the header so a model
/// loader cannot silently misparse an FL resume image (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// A bare model: layer/tensor sections only.
    Model,
    /// A full FL resume image (global model, per-client state, partial
    /// round) as framed by `dinar-fl`.
    FlResume,
}

impl CkptKind {
    /// On-disk tag byte. Stable across versions — never renumber.
    pub fn tag(self) -> u8 {
        match self {
            CkptKind::Model => 0x00,
            CkptKind::FlResume => 0x01,
        }
    }

    /// Parses a tag byte.
    pub fn from_tag(tag: u8) -> Option<CkptKind> {
        match tag {
            0x00 => Some(CkptKind::Model),
            0x01 => Some(CkptKind::FlResume),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CkptKind::Model => "model",
            CkptKind::FlResume => "fl-resume",
        }
    }
}

/// Writes the `DNCK` header (magic + version + kind).
pub fn write_header(w: &mut ByteWriter, kind: CkptKind) {
    wire::write_header(w, MAGIC, kind.tag());
}

/// Reads the `DNCK` header and checks the file kind, failing loudly on a
/// mismatch (e.g. feeding an FL resume image to a bare model loader).
///
/// # Errors
///
/// Returns [`NnError::Wire`] for a bad magic/version (naming `DNCK`), an
/// unknown kind byte or truncation, and [`NnError::InvalidConfig`] if the
/// kind differs from `expected`.
pub fn expect_header(r: &mut ByteReader<'_>, expected: CkptKind) -> Result<()> {
    let tag = wire::read_header(r, MAGIC)?;
    let kind = CkptKind::from_tag(tag).ok_or(WireError::UnknownTag { what: "DNCK kind", tag })?;
    if kind != expected {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "checkpoint is a {} file, expected {}",
                kind.name(),
                expected.name()
            ),
        });
    }
    Ok(())
}

/// A decoded checkpoint tensor, still in its on-disk storage width.
///
/// [`decode_checkpoint_raw`] returns these so a serving path can keep i8 weights
/// resident as [`QuantTensor`]s instead of eagerly widening to f32.
#[derive(Debug, Clone)]
pub enum CkptTensor {
    /// A dense f32 tensor (decoded from an F32 or F16 section).
    Dense(Tensor),
    /// An i8-quantized tensor (decoded from an I8 section).
    Quant(QuantTensor),
}

impl CkptTensor {
    /// Widens to a dense f32 tensor (dequantizing an I8 section).
    pub fn into_tensor(self) -> Tensor {
        match self {
            CkptTensor::Dense(t) => t,
            CkptTensor::Quant(q) => q.to_tensor(),
        }
    }

    /// The tensor's shape, regardless of storage width.
    pub fn shape(&self) -> &[usize] {
        match self {
            CkptTensor::Dense(t) => t.shape(),
            CkptTensor::Quant(q) => q.shape(),
        }
    }
}

/// A decoded checkpoint body with tensors kept at their on-disk widths.
#[derive(Debug, Clone)]
pub struct RawCheckpoint {
    /// One entry per layer; each entry is that layer's tensor sections.
    pub layers: Vec<Vec<CkptTensor>>,
}

impl RawCheckpoint {
    /// Densifies every section into a plain f32 [`ModelParams`].
    pub fn into_params(self) -> ModelParams {
        let dense = |ts: Vec<CkptTensor>| ts.into_iter().map(CkptTensor::into_tensor).collect();
        ModelParams::from(self.layers.into_iter().map(dense).collect::<Vec<_>>())
    }
}

/// Exact byte length [`encode_checkpoint`] will produce for `params` under
/// `dtype` — usable for byte metering without encoding.
pub fn encoded_checkpoint_len(params: &ModelParams, dtype: Dtype) -> usize {
    framed_len(params, |t| encoded_section_len(t, dtype))
}

/// Encodes `params` as a complete `DNCK` checkpoint under `dtype`: the
/// model framing around one `dtype` section per tensor.
///
/// # Errors
///
/// Returns [`NnError::Wire`] if a count, rank or dimension exceeds the
/// `u32` wire fields.
pub fn encode_checkpoint(params: &ModelParams, dtype: Dtype) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(encoded_checkpoint_len(params, dtype));
    write_header(&mut w, CkptKind::Model);
    write_layers(&mut w, &params.layers, |_, _, t, w| encode_section(t, dtype, w))?;
    Ok(w.into_bytes())
}

/// Decodes a complete `DNCK` checkpoint, every section at its on-disk
/// width. The whole buffer must be consumed.
///
/// # Errors
///
/// Returns [`NnError::Wire`] for truncated buffers, bad magic/version,
/// unknown dtype tags, overflowing length headers or trailing bytes.
/// Never panics and never allocates more than the remaining buffer.
pub fn decode_checkpoint_raw(bytes: &[u8]) -> Result<RawCheckpoint> {
    let mut r = ByteReader::new(bytes);
    expect_header(&mut r, CkptKind::Model)?;
    let layers = read_layers(&mut r, |r| decode_section(r, CkptTensor::Dense, CkptTensor::Quant))?;
    r.finish()?;
    Ok(RawCheckpoint { layers })
}

/// Decodes a complete `DNCK` checkpoint to dense f32 [`ModelParams`].
///
/// # Errors
///
/// Same conditions as [`decode_checkpoint_raw`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<ModelParams> {
    Ok(decode_checkpoint_raw(bytes)?.into_params())
}

/// Saves `params` to a `DNCK` file at `path` under `dtype`.
///
/// # Errors
///
/// Propagates encode errors; I/O failures surface as
/// [`NnError::InvalidConfig`] with the path in the message.
pub fn save(params: &ModelParams, dtype: Dtype, path: impl AsRef<Path>) -> Result<()> {
    let bytes = encode_checkpoint(params, dtype)?;
    fs::write(path.as_ref(), bytes).map_err(|e| NnError::InvalidConfig {
        reason: format!("cannot write checkpoint {}: {e}", path.as_ref().display()),
    })
}

/// Loads a `DNCK` file at its on-disk widths.
///
/// # Errors
///
/// Same conditions as [`decode_checkpoint_raw`], plus I/O failures as
/// [`NnError::InvalidConfig`].
pub fn load_raw(path: impl AsRef<Path>) -> Result<RawCheckpoint> {
    let bytes = fs::read(path.as_ref()).map_err(|e| NnError::InvalidConfig {
        reason: format!("cannot read checkpoint {}: {e}", path.as_ref().display()),
    })?;
    decode_checkpoint_raw(&bytes)
}

/// Loads a `DNCK` file as dense f32 [`ModelParams`].
///
/// # Errors
///
/// Same conditions as [`load_raw`].
pub fn load(path: impl AsRef<Path>) -> Result<ModelParams> {
    Ok(load_raw(path)?.into_params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{self, Activation};
    use dinar_tensor::Rng;

    fn params() -> ModelParams {
        let mut rng = Rng::seed_from(7);
        models::mlp(&[4, 6, 3], Activation::Tanh, &mut rng)
            .unwrap()
            .params()
    }

    fn bits(p: &ModelParams) -> Vec<u32> {
        p.layers
            .iter()
            .flat_map(|l| l.tensors.iter())
            .flat_map(|t| t.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn f32_roundtrip_is_bit_identical() {
        let p = params();
        let bytes = encode_checkpoint(&p, Dtype::F32).unwrap();
        assert_eq!(bytes.len(), encoded_checkpoint_len(&p, Dtype::F32));
        assert_eq!(&bytes[..4], b"DNCK");
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(bits(&p), bits(&back));
    }

    #[test]
    fn f16_roundtrip_halves_payload_and_stays_close() {
        let p = params();
        let f32_len = encoded_checkpoint_len(&p, Dtype::F32);
        let bytes = encode_checkpoint(&p, Dtype::F16).unwrap();
        assert_eq!(bytes.len(), encoded_checkpoint_len(&p, Dtype::F16));
        assert!(bytes.len() < f32_len);
        let back = decode_checkpoint(&bytes).unwrap();
        assert!(back.same_shape(&p));
        // Init weights are O(1); f16 carries 10 mantissa bits.
        assert!(back.max_abs_diff(&p).unwrap() < 1e-2);
    }

    #[test]
    fn f16_is_exact_for_representable_values() {
        let p = ModelParams::new(vec![crate::params::LayerParams::new(vec![
            Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.0], &[2, 2]).unwrap(),
        ])]);
        let back =
            decode_checkpoint(&encode_checkpoint(&p, Dtype::F16).unwrap()).unwrap();
        assert_eq!(bits(&p), bits(&back));
    }

    #[test]
    fn i8_matches_the_wire_quantizer_exactly() {
        let p = params();
        let bytes = encode_checkpoint(&p, Dtype::I8).unwrap();
        let raw = decode_checkpoint_raw(&bytes).unwrap();
        for (layer, raw_layer) in p.layers.iter().zip(&raw.layers) {
            for (t, sec) in layer.tensors.iter().zip(raw_layer) {
                let CkptTensor::Quant(q) = sec else {
                    panic!("i8 checkpoint produced a dense section")
                };
                let mut w = ByteWriter::new();
                wire::encode_tensor(t, wire::Codec::QuantI8, &mut w).unwrap();
                let expect = wire::decode_tensor_quant(&mut ByteReader::new(&w.into_bytes())).unwrap();
                assert_eq!(q.levels(), expect.levels());
                assert_eq!(q.scale().to_bits(), expect.scale().to_bits());
            }
        }
    }

    #[test]
    fn mixed_width_sections_decode_together() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.125], &[4]).unwrap();
        let mut w = ByteWriter::new();
        write_header(&mut w, CkptKind::Model);
        w.put_u32(1);
        w.put_u32(3);
        for dtype in [Dtype::F32, Dtype::F16, Dtype::I8] {
            encode_section(&t, dtype, &mut w).unwrap();
        }
        let raw = decode_checkpoint_raw(&w.into_bytes()).unwrap();
        assert_eq!(raw.layers.len(), 1);
        assert_eq!(raw.layers[0].len(), 3);
        let dense = raw.into_params();
        assert_eq!(dense.layers[0].tensors[0].as_slice(), t.as_slice());
        assert_eq!(dense.layers[0].tensors[1].as_slice(), t.as_slice());
    }

    #[test]
    fn file_roundtrip_at_every_dtype() {
        let dir = std::env::temp_dir().join("dinar-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = params();
        for dtype in Dtype::all() {
            let path = dir.join(format!("ckpt-{}.dnck", dtype.name()));
            save(&p, dtype, &path).unwrap();
            let back = load(&path).unwrap();
            assert!(back.same_shape(&p), "{dtype}");
            // What is loaded installs into a model of the same architecture.
            let mut model = models::mlp(&[4, 6, 3], Activation::Tanh, &mut Rng::seed_from(7)).unwrap();
            model.set_params(&back).unwrap();
            if dtype == Dtype::F32 {
                assert_eq!(back, p);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn corrupted_checkpoints_return_typed_errors() {
        let p = params();
        let bytes = encode_checkpoint(&p, Dtype::F32).unwrap();
        // Bad magic, named as the checkpoint format's.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = decode_checkpoint(&bad).unwrap_err();
        assert!(matches!(err, NnError::Wire(WireError::BadMagic { expected: MAGIC, .. })));
        assert!(err.to_string().contains("DNCK"), "{err}");
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(NnError::Wire(WireError::UnsupportedVersion { magic: MAGIC, .. }))
        ));
        // Unknown kind tag.
        let mut bad = bytes.clone();
        bad[6] = 0x7F;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(NnError::Wire(WireError::UnknownTag { what: "DNCK kind", tag: 0x7F }))
        ));
        // Wrong kind (an fl-resume header on a model loader).
        let mut bad = bytes.clone();
        bad[6] = CkptKind::FlResume.tag();
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(NnError::InvalidConfig { .. })
        ));
        // Unknown dtype tag on the first section.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 8] = 0x7F;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(NnError::Wire(WireError::UnknownTag { what: "DNCK dtype", tag: 0x7F }))
        ));
        // Every strict prefix fails.
        for cut in [0, 3, HEADER_LEN, HEADER_LEN + 5, bytes.len() - 1] {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_checkpoint(&extended),
            Err(NnError::Wire(WireError::TrailingBytes { .. }))
        ));
        // A corrupt layer count runs into truncation, not an abort.
        let mut corrupt = bytes;
        corrupt[HEADER_LEN] = 0xFF;
        assert!(decode_checkpoint(&corrupt).is_err());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = load("/nonexistent/dinar.dnck").unwrap_err();
        assert!(err.to_string().contains("nonexistent"));
        // A file that is there but is not a checkpoint is a wire error.
        let path = std::env::temp_dir().join("dinar-ckpt-garbage.dnck");
        std::fs::write(&path, b"{not a checkpoint").unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, NnError::Wire(WireError::BadMagic { .. })), "got {err:?}");
    }
}
