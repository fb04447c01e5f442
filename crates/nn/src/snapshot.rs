//! Wire-format encode/decode of [`ModelParams`] snapshots.
//!
//! The FL transport exchanges models as bytes, not handles: the server
//! broadcasts an encoded global snapshot and every client upload comes
//! back encoded (optionally compressed). This module owns the one model
//! framing over the section codec in [`dinar_tensor::wire`]
//! ([`write_layers`]/[`read_layers`]); `DNCK` models ([`crate::ckpt`]) and
//! resume images use it too, with dtype-tagged sections in place of frames:
//!
//! ```text
//! header (magic "DNWR", version u16, codec u8)
//! layer_count: u32
//! per layer: tensor_count u32, then tensor frames (see dinar_tensor::wire)
//! ```
//!
//! Encoding reads straight out of the snapshot's copy-on-write buffers —
//! take the snapshot with [`ModelParams::share`] and serialization is the
//! only pass over the data. [`decode_params`] validates every length
//! header against the buffer before allocating and returns typed errors
//! for any corruption; it never panics.
//!
//! # Error feedback
//!
//! The lossy codecs ([`Codec::Sign1`], [`Codec::QuantI8`]) discard
//! per-element information every round. [`ErrorFeedback`] implements the
//! standard compensation: the residual `v − decode(encode(v))` is carried
//! client-side and added to the next round's update before encoding, so
//! quantization error accumulates into later rounds instead of being lost
//! (Seide et al.'s 1-bit SGD trick). For [`Codec::F32`] the residual is
//! identically zero and is not materialized.
//!
//! A lossy upload is two sweeps per tensor over the carried residual buffer
//! and allocates nothing once that buffer exists: sweep A overwrites the
//! residual with `v = (params − base) + residual`, sweep B
//! ([`encode_tensor_feedback`]) writes each level into the frame and what it
//! lost back over `v`, where the next round's sweep A finds it. The sender
//! never decodes its own frame. [`decode_params_onto`] is the receiving
//! half: each level is dequantised straight onto the base it is a delta to.
//! The FL server decodes no upload at all: [`CheckedParams::check`] runs
//! the same checks on arrival, and the round's close reads the checked
//! payloads a block at a time inside its FedAvg pass.

use crate::{LayerParams, ModelParams, NnError, Result};
use dinar_tensor::wire::{
    encode_tensor, encode_tensor_feedback, encoded_tensor_len, read_header, read_seq, write_header,
    write_seq, ByteReader, ByteWriter, Codec, PayloadSpan, PayloadView, WireError, WireResult,
    HEADER_LEN, MAGIC,
};
use dinar_tensor::Tensor;

/// The one model framing — of `DNWR` snapshots, `DNCK` models and every
/// parameter-shaped part of a resume image: a `u32` layer count, then per
/// layer a `u32` tensor count and each tensor's section, which
/// `section(layer, index, tensor, writer)` writes.
pub fn write_layers<L: AsRef<[Tensor]>, E: From<WireError>>(
    w: &mut ByteWriter,
    layers: &[L],
    mut section: impl FnMut(usize, usize, &Tensor, &mut ByteWriter) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    write_seq(w, layers.iter(), "layer count", |li, layer, w| {
        write_seq(w, layer.as_ref().iter(), "tensor count", |ti, t, w| {
            section(li, ti, t, w)
        })
    })
}

/// Reads the model framing written by [`write_layers`], each section
/// through `section`.
pub fn read_layers<T, E: From<WireError>>(
    r: &mut ByteReader<'_>,
    mut section: impl FnMut(&mut ByteReader<'_>) -> std::result::Result<T, E>,
) -> std::result::Result<Vec<Vec<T>>, E> {
    read_seq(r, |r| read_seq(r, &mut section))
}

/// Exact byte length of a header plus the model framing of `params`, each
/// tensor's section taking `section_len(tensor)` bytes.
pub(crate) fn framed_len(params: &ModelParams, section_len: impl Fn(&Tensor) -> usize) -> usize {
    let layer = |l: &LayerParams| 4 + l.tensors.iter().map(&section_len).sum::<usize>();
    HEADER_LEN + 4 + params.layers.iter().map(layer).sum::<usize>()
}

/// Exact byte length [`encode_params`] will produce for `params` under
/// `codec` — usable for byte metering without encoding.
pub fn encoded_params_len(params: &ModelParams, codec: Codec) -> usize {
    framed_len(params, |t| encoded_tensor_len(t, codec))
}

/// Encodes a parameter snapshot to wire bytes under `codec`, reading
/// directly from the snapshot's shared buffers (no copy-on-write
/// materialization) into a single exactly-sized allocation.
///
/// # Errors
///
/// Returns [`NnError::Wire`] if a layer/tensor count or dimension exceeds
/// the `u32` wire fields.
pub fn encode_params(params: &ModelParams, codec: Codec) -> Result<Vec<u8>> {
    encode_frame(params, codec, |_, _, t, w| encode_tensor(t, codec, w))
}

/// The stream header and model framing of `params` around the tensor
/// frames that `tensor(layer, index, tensor, writer)` writes.
fn encode_frame(
    params: &ModelParams,
    codec: Codec,
    tensor: impl FnMut(usize, usize, &Tensor, &mut ByteWriter) -> WireResult<()>,
) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(encoded_params_len(params, codec));
    write_header(&mut w, MAGIC, codec.tag());
    write_layers(&mut w, &params.layers, tensor)?;
    Ok(w.into_bytes())
}

/// Decodes wire bytes back into a [`ModelParams`], reading the codec from
/// the stream header. The whole buffer must be consumed.
///
/// # Errors
///
/// Returns [`NnError::Wire`] for truncated buffers, bad magic/version,
/// unknown codecs, overflowing length headers, corrupt payloads or
/// trailing bytes. Never panics.
pub fn decode_params(bytes: &[u8]) -> Result<ModelParams> {
    decode_frame(bytes, None)
}

/// Decodes a *delta* frame onto `base`: every element is `decoded + base`,
/// the bits of [`decode_params`] followed by `add_assign(base)`, built in
/// one pass per tensor with no dequantised intermediate.
///
/// # Errors
///
/// As [`decode_params`], plus [`NnError::ParamShapeMismatch`] (or a
/// [`WireError::BaseMismatch`]) if the frame's architecture is not
/// `base`'s.
pub fn decode_params_onto(bytes: &[u8], base: &ModelParams) -> Result<ModelParams> {
    decode_frame(bytes, Some(base))
}

fn decode_frame(bytes: &[u8], base: Option<&ModelParams>) -> Result<ModelParams> {
    let mut onto = base.map(|b| b.layers.iter().flat_map(|l| &l.tensors));
    let layers = read_frame(bytes, base, |shape, view| {
        let base = onto.as_mut().and_then(Iterator::next).map(Tensor::as_slice);
        Ok(view.decode(&shape, base)?)
    })?;
    Ok(ModelParams::from(layers))
}

/// The one reader of a `DNWR` model frame: header, model framing and every
/// tensor's [`PayloadView`], handed with its shape to `tensor`. With `like`,
/// the frame must have `like`'s architecture, tensor by tensor before each
/// payload is read and layer by layer at the end.
fn read_frame<T>(
    bytes: &[u8],
    like: Option<&ModelParams>,
    mut tensor: impl FnMut(Vec<usize>, PayloadView<'_>) -> Result<T>,
) -> Result<Vec<Vec<T>>> {
    let mismatch = || NnError::ParamShapeMismatch {
        reason: "frame does not have the architecture of its base".into(),
    };
    let mut shapes = like.map(|l| l.layers.iter().flat_map(|l| &l.tensors));
    let mut r = ByteReader::new(bytes);
    let codec = Codec::from_tag(read_header(&mut r, MAGIC)?)?;
    let layers = read_layers(&mut r, |r| {
        let expect = match shapes.as_mut() {
            Some(shapes) => Some(shapes.next().ok_or_else(mismatch)?.shape()),
            None => None,
        };
        let (shape, view) = PayloadView::read(r, codec, expect)?;
        tensor(shape, view)
    })?;
    r.finish()?;
    // Tensor by tensor the shapes agreed; the layer grouping and a frame
    // shorter than its base are what is left to rule out.
    let grouped = |like: &ModelParams| {
        layers.len() == like.layers.len()
            && layers
                .iter()
                .zip(&like.layers)
                .all(|(l, b)| l.len() == b.tensors.len())
    };
    if like.is_some_and(|like| !grouped(like)) {
        return Err(mismatch());
    }
    Ok(layers)
}

/// A `DNWR` model frame checked at the trust boundary and not decoded.
///
/// [`CheckedParams::check`] runs every check [`decode_params_onto`] runs —
/// header, codec, each tensor's shape against the expected architecture,
/// payload byte budgets, sign1 padding, trailing bytes — and keeps the
/// bytes with where each tensor's payload sits in them. Reading the values
/// afterwards cannot fail: the FL server folds a checked upload straight
/// into FedAvg at its round close without building the model it
/// encodes.
#[derive(Debug)]
pub struct CheckedParams {
    bytes: Vec<u8>,
    /// Each tensor's shape and payload, layer by layer.
    layers: Vec<Vec<(Vec<usize>, PayloadSpan)>>,
}

impl CheckedParams {
    /// Checks `bytes` as a frame of `like`'s architecture, decoding nothing.
    ///
    /// # Errors
    ///
    /// As [`decode_params_onto`] with `like` as the base.
    pub fn check(bytes: Vec<u8>, like: &ModelParams) -> Result<CheckedParams> {
        let layers = read_frame(&bytes, Some(like), |shape, view| Ok((shape, view.span())))?;
        Ok(CheckedParams { bytes, layers })
    }

    /// Whether the frame has `params`' architecture.
    pub fn same_shape(&self, params: &ModelParams) -> bool {
        self.layers.len() == params.layers.len()
            && self.layers.iter().zip(&params.layers).all(|(l, p)| {
                l.len() == p.tensors.len()
                    && l.iter().zip(&p.tensors).all(|((s, _), t)| s == t.shape())
            })
    }

    /// Each tensor's payload, layer by layer.
    pub fn payloads(&self) -> impl Iterator<Item = PayloadView<'_>> {
        self.layers
            .iter()
            .flatten()
            .map(|(_, span)| span.view(&self.bytes))
    }
}

/// Client-side error-feedback state for lossy update compression.
///
/// Holds the residual (quantization error) of the previous round and
/// folds it into the next update before encoding. One instance per
/// client; the state never crosses the wire.
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    residual: Option<ModelParams>,
}

impl ErrorFeedback {
    /// Fresh state with no carried residual.
    pub fn new() -> ErrorFeedback {
        ErrorFeedback::default()
    }

    /// The carried residual, if any: what the last lossy encode lost.
    pub fn residual(&self) -> Option<&ModelParams> {
        self.residual.as_ref()
    }

    /// Encodes `update` under `codec`, compensating with and refreshing
    /// the carried residual.
    ///
    /// For a lossless codec this is plain [`encode_params`] and any stale
    /// residual is dropped. For a lossy codec the compensated value
    /// `v = update + residual` is encoded, and the new residual
    /// `v − decode(encode(v))` replaces the old one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Wire`] on encode failure and
    /// [`NnError::ParamShapeMismatch`] if the carried residual's
    /// architecture no longer matches the update's; either way the carried
    /// residual is exactly what it was.
    pub fn compress(&mut self, update: &ModelParams, codec: Codec) -> Result<Vec<u8>> {
        self.encode(update, None, codec)
    }

    /// [`compress`](ErrorFeedback::compress) of the delta `params − base`
    /// without materializing it: the subtraction rides the sweep that adds
    /// the carried residual. Same frame, same residual, bit for bit.
    ///
    /// # Errors
    ///
    /// As [`compress`](ErrorFeedback::compress), with `base` held to the
    /// same architecture check as the residual.
    pub fn compress_delta(
        &mut self,
        params: &ModelParams,
        base: &ModelParams,
        codec: Codec,
    ) -> Result<Vec<u8>> {
        self.encode(params, Some(base), codec)
    }

    fn encode(
        &mut self,
        params: &ModelParams,
        base: Option<&ModelParams>,
        codec: Codec,
    ) -> Result<Vec<u8>> {
        if !codec.is_lossy() {
            let bytes = match base {
                Some(base) => encode_params(&params.sub(base)?, codec),
                None => encode_params(params, codec),
            }?;
            self.residual = None;
            return Ok(bytes);
        }
        // Architectures first: nothing below may fail once state is touched.
        for other in base.into_iter().chain(&self.residual) {
            params.check_shape(other, "compress")?;
        }
        // With nothing carried, `v` starts as the update itself (round one's
        // allocation) and sweep A has nothing to add. A carried residual was
        // left by a successful encode of this architecture, so the wire
        // fields are known to fit and the frame below cannot fail on it.
        let carried = self.residual.take();
        let fresh = carried.is_none();
        let mut v = match (carried, base) {
            (Some(residual), _) => residual,
            (None, Some(base)) => params.sub(base)?,
            (None, None) => params.share(),
        };
        let bytes = encode_frame(params, codec, |li, ti, p, w| {
            let v = &mut v.layers[li].tensors[ti];
            if !fresh {
                // Sweep A: the compensated value, over the old residual.
                let (r, p) = (v.as_mut_slice().iter_mut(), p.as_slice());
                match base.map(|b| b.layers[li].tensors[ti].as_slice()) {
                    Some(b) => r.zip(p).zip(b).for_each(|((r, &p), &b)| *r = (p - b) + *r),
                    None => r.zip(p).for_each(|(r, &u)| *r = u + *r),
                }
            }
            // Sweep B: levels into the frame, what they lost back over `v`.
            encode_tensor_feedback(v, codec, w)
        })?;
        self.residual = Some(v);
        Ok(bytes)
    }

    /// Drops the carried residual (e.g. on a model-architecture change).
    pub fn reset(&mut self) {
        self.residual = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{self, Activation};
    use dinar_tensor::Rng;

    fn small_params() -> ModelParams {
        let mut rng = Rng::seed_from(31);
        let model = models::mlp(&[4, 6, 3], Activation::ReLU, &mut rng).unwrap();
        model.params()
    }

    #[test]
    fn lossless_roundtrip_is_bit_identical() {
        let p = small_params();
        let bytes = encode_params(&p, Codec::F32).unwrap();
        assert_eq!(bytes.len(), encoded_params_len(&p, Codec::F32));
        let back = decode_params(&bytes).unwrap();
        assert!(back.same_shape(&p));
        for (a, b) in p.layers.iter().zip(&back.layers) {
            for (ta, tb) in a.tensors.iter().zip(&b.tensors) {
                let bits_a: Vec<u32> = ta.as_slice().iter().map(|x| x.to_bits()).collect();
                let bits_b: Vec<u32> = tb.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits_a, bits_b);
            }
        }
    }

    #[test]
    fn encode_does_not_materialize_the_cow_snapshot() {
        let p = small_params();
        let snapshot = p.share();
        let before = dinar_tensor::profile::param_snapshot();
        let _ = encode_params(&snapshot, Codec::F32).unwrap();
        let delta = dinar_tensor::profile::param_snapshot().delta_since(&before);
        assert_eq!(delta.copy_calls, 0, "encode deep-copied a shared buffer");
    }

    #[test]
    fn lossy_codecs_roundtrip_shapes_and_sizes() {
        let p = small_params();
        let f32_len = encoded_params_len(&p, Codec::F32);
        for codec in [Codec::Sign1, Codec::QuantI8] {
            let bytes = encode_params(&p, codec).unwrap();
            assert_eq!(bytes.len(), encoded_params_len(&p, codec), "{codec:?}");
            assert!(bytes.len() < f32_len, "{codec:?} did not compress");
            let back = decode_params(&bytes).unwrap();
            assert!(back.same_shape(&p), "{codec:?}");
        }
        // Sign1 is ≥8× smaller than raw f32 once the model is big enough
        // that per-tensor framing stops dominating — the wire plane's
        // headline compression ratio (ratcheted end-to-end by
        // tests/bench_ratchet.rs over BENCH_wire.json).
        let mut rng = Rng::seed_from(5);
        let big = models::mlp(&[64, 32, 10], Activation::ReLU, &mut rng)
            .unwrap()
            .params();
        let sign1 = encode_params(&big, Codec::Sign1).unwrap();
        let raw = encoded_params_len(&big, Codec::F32);
        assert!(sign1.len() * 8 <= raw, "sign1 {} vs f32 {raw}", sign1.len());
    }

    #[test]
    fn error_feedback_recovers_quantization_loss_over_rounds() {
        // Repeatedly transmitting the same update with feedback must
        // converge: the running mean of the decoded transmissions
        // approaches the true update, which a feedback-free encoder can
        // never do (its error is identical every round).
        let p = small_params();
        let mut fb = ErrorFeedback::new();
        let mut mean = p.zeros_like();
        let rounds = 64;
        for _ in 0..rounds {
            let bytes = fb.compress(&p, Codec::Sign1).unwrap();
            let decoded = decode_params(&bytes).unwrap();
            mean.add_assign(&decoded).unwrap();
        }
        mean.scale(1.0 / dinar_tensor::cast::len_to_f32(rounds));
        let err = mean.max_abs_diff(&p).unwrap();
        let mut fb_free = p.zeros_like();
        let once = decode_params(&encode_params(&p, Codec::Sign1).unwrap()).unwrap();
        fb_free.add_assign(&once).unwrap();
        let err_free = fb_free.max_abs_diff(&p).unwrap();
        assert!(
            err < err_free * 0.5,
            "feedback mean err {err} not well under feedback-free {err_free}"
        );
        assert!(fb.residual().is_some());
    }

    #[test]
    fn lossless_compress_drops_residual_and_matches_plain_encode() {
        let p = small_params();
        let mut fb = ErrorFeedback::new();
        let _ = fb.compress(&p, Codec::QuantI8).unwrap();
        assert!(fb.residual().is_some());
        let bytes = fb.compress(&p, Codec::F32).unwrap();
        assert!(!fb.residual().is_some());
        assert_eq!(bytes, encode_params(&p, Codec::F32).unwrap());
    }

    fn flat_bits(p: &ModelParams) -> Vec<u32> {
        p.to_flat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_failed_compress_leaves_the_carried_residual_exactly_as_it_was() {
        let p = small_params();
        let other = models::mlp(&[4, 5, 3], Activation::ReLU, &mut Rng::seed_from(2))
            .unwrap()
            .params();
        for codec in [Codec::Sign1, Codec::QuantI8] {
            let mut fb = ErrorFeedback::new();
            fb.compress(&p, codec).unwrap();
            let carried = flat_bits(fb.residual.as_ref().unwrap());
            // Update vs residual, then params vs base and base vs residual
            // on the delta entry: each is refused before anything is written.
            for result in [
                fb.compress(&other, codec),
                fb.compress_delta(&p, &other, codec),
                fb.compress_delta(&other, &other, codec),
            ] {
                assert!(matches!(result, Err(NnError::ParamShapeMismatch { .. })));
                assert_eq!(
                    flat_bits(fb.residual.as_ref().unwrap()),
                    carried,
                    "{codec:?}"
                );
            }
            // The next good round is compensated as if nothing had happened.
            let mut twin = ErrorFeedback::new();
            twin.compress(&p, codec).unwrap();
            assert_eq!(
                fb.compress(&p, codec).unwrap(),
                twin.compress(&p, codec).unwrap()
            );
        }
        // With nothing carried, a refused delta leaves nothing behind.
        let mut fresh = ErrorFeedback::new();
        assert!(fresh.compress_delta(&p, &other, Codec::QuantI8).is_err());
        assert!(!fresh.residual().is_some());
    }

    #[test]
    fn delta_entry_equals_compress_of_the_subtracted_update() {
        let mut rng = Rng::seed_from(8);
        let base = small_params();
        for codec in Codec::all() {
            let (mut fused, mut split) = (ErrorFeedback::new(), ErrorFeedback::new());
            for round in 0..3 {
                let mut trained = base.share();
                trained.map_inplace(|x| x * 0.9);
                let noise = rng.randn(&[1]).as_slice()[0];
                trained.map_inplace(|x| x + noise);
                let want = split.compress(&trained.sub(&base).unwrap(), codec).unwrap();
                let got = fused.compress_delta(&trained, &base, codec).unwrap();
                assert_eq!(got, want, "{codec:?} round {round}: frame");
                assert_eq!(
                    fused.residual.as_ref().map(flat_bits),
                    split.residual.as_ref().map(flat_bits),
                    "{codec:?} round {round}: residual"
                );
                let mut server = decode_params(&want).unwrap();
                server.add_assign(&base).unwrap();
                let onto = decode_params_onto(&got, &base).unwrap();
                assert_eq!(
                    flat_bits(&onto),
                    flat_bits(&server),
                    "{codec:?} round {round}"
                );
            }
        }
    }

    #[test]
    fn decode_onto_rejects_frames_of_another_architecture() {
        let p = small_params();
        let bytes = encode_params(&p, Codec::QuantI8).unwrap();
        let mut rng = Rng::seed_from(3);
        let reshaped = models::mlp(&[4, 5, 3], Activation::ReLU, &mut rng)
            .unwrap()
            .params();
        let deeper = models::mlp(&[4, 6, 3, 2], Activation::ReLU, &mut rng)
            .unwrap()
            .params();
        let shallower = ModelParams::new(vec![p.layers[0].share()]);
        assert!(matches!(
            decode_params_onto(&bytes, &reshaped),
            Err(NnError::Wire(WireError::BaseMismatch { .. }))
        ));
        for base in [&deeper, &shallower] {
            assert!(matches!(
                decode_params_onto(&bytes, base),
                Err(NnError::ParamShapeMismatch { .. })
            ));
        }
        for cut in [0, HEADER_LEN, bytes.len() - 1] {
            assert!(
                decode_params_onto(&bytes[..cut], &p).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn corrupted_model_streams_return_typed_errors() {
        let p = small_params();
        let bytes = encode_params(&p, Codec::F32).unwrap();
        // Every strict prefix fails.
        for cut in [0, 3, HEADER_LEN, HEADER_LEN + 2, bytes.len() - 1] {
            assert!(
                decode_params(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_params(&extended),
            Err(NnError::Wire(WireError::TrailingBytes { .. }))
        ));
        // A corrupt layer count runs into truncation, not an abort.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN] = 0xFF;
        assert!(decode_params(&corrupt).is_err());
    }
}
