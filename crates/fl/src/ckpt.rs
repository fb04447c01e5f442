//! Mid-round resume images: checkpoint a whole FL system — even between
//! two clients of an unfinished round — and restart it bit-identically.
//!
//! A resume image is a `DNCK` file ([`dinar_nn::ckpt`]) with header kind
//! `fl-resume`. It captures everything mutable in the engine:
//!
//! * the server's global model and completed-round counter,
//! * every client's model parameters, RNG stream position
//!   ([`dinar_tensor::RngState`]), optimizer state
//!   ([`dinar_nn::optim::OptimState`]) and middleware state
//!   ([`MiddlewareState`]) — DINAR's stored private layers included,
//! * an optional partial round: the `(loss, update)` pairs of the clients
//!   that already finished this round, in client order.
//!
//! What it deliberately does **not** capture: the private data shards and
//! static configuration (epochs, batch size, architecture, middleware
//! stack). A resumed run rebuilds those from the same builder inputs, then
//! installs the image with [`crate::FlSystem::restore`]. Because the
//! engine's parallel fan-out trains clients independently and aggregates
//! in client order, the sequential partial-round driver
//! ([`crate::FlSystem::begin_round_partial`] / `finish_round`) produces a
//! final model bit-identical to an uninterrupted parallel run — the
//! determinism contract `tests/resume_determinism.rs` pins at every
//! thread-pool width.
//!
//! All model tensors are stored at [`Dtype::F32`]: a resume image is a
//! fidelity-critical artifact, so the narrower f16/i8 widths (meant for
//! serving) are not offered here.

use crate::{ClientUpdate, FlError, MiddlewareState, Result};
use dinar_nn::ckpt::{expect_header, write_header, CkptKind};
use dinar_nn::optim::OptimState;
use dinar_nn::snapshot::{read_layers, write_layers};
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::wire::{
    decode_section, encode_section, read_seq, write_seq, ByteReader, ByteWriter, WireError,
    WireResult,
};
use dinar_tensor::{Dtype, RngState, Tensor};
use std::fs;
use std::path::Path;

/// One client's mutable state inside a resume image.
#[derive(Debug)]
pub struct ClientCkpt {
    /// The client's id (must match the rebuilt client on restore).
    pub id: usize,
    /// The client's (personalized) model parameters.
    pub params: ModelParams,
    /// The client's RNG stream position (batch shuffling determinism).
    pub rng: RngState,
    /// The client's optimizer state (momenta, accumulators, step count).
    pub optim: OptimState,
    /// Per-middleware state, `None` for stateless entries, in stack order.
    pub middleware: Vec<Option<MiddlewareState>>,
}

/// The already-finished portion of an interrupted round: each entry is the
/// `(mean training loss, update)` a client produced, in client order
/// (clients `0..completed.len()` are done; the rest have not started).
#[derive(Debug, Default)]
pub struct PendingRound {
    /// Finished `(loss, update)` pairs, in client order.
    pub completed: Vec<(f32, ClientUpdate)>,
}

impl PendingRound {
    /// An O(1) snapshot of the finished portion (see [`ClientUpdate::share`]).
    pub fn share(&self) -> PendingRound {
        PendingRound {
            completed: self
                .completed
                .iter()
                .map(|(loss, u)| (*loss, u.share()))
                .collect(),
        }
    }
}

/// A complete FL resume image.
#[derive(Debug)]
pub struct FlCheckpoint {
    /// Rounds fully completed before the image was taken.
    pub rounds_run: usize,
    /// The server's current global model.
    pub global: ModelParams,
    /// Per-client state, in client order.
    pub clients: Vec<ClientCkpt>,
    /// The interrupted round's finished portion, if the image was taken
    /// mid-round.
    pub pending: Option<PendingRound>,
}

/// Writes a parameter-shaped part — a model, an optimizer's state groups —
/// in the model framing, every tensor an f32 section.
fn write_f32_layers<L: AsRef<[Tensor]>>(w: &mut ByteWriter, layers: &[L]) -> WireResult<()> {
    write_layers(w, layers, |_, _, t, w| encode_section(t, Dtype::F32, w))
}

fn write_rng(w: &mut ByteWriter, rng: &RngState) {
    for &word in &rng.words {
        w.put_u64(word);
    }
    w.put_flag(rng.gauss_cache.is_some());
    if let Some(cached) = rng.gauss_cache {
        w.put_f32(cached);
    }
}

fn read_rng(r: &mut ByteReader<'_>) -> WireResult<RngState> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = r.read_u64()?;
    }
    let gauss_cache = r
        .read_flag("resume gauss-cache flag")?
        .then(|| r.read_f32())
        .transpose()?;
    Ok(RngState { words, gauss_cache })
}

fn write_middleware(w: &mut ByteWriter, state: &Option<MiddlewareState>) -> WireResult<()> {
    w.put_flag(state.is_some());
    let Some(state) = state else {
        return Ok(());
    };
    w.put_flag(state.rng.is_some());
    if let Some(rng) = &state.rng {
        write_rng(w, rng);
    }
    write_seq(
        w,
        state.stored.iter(),
        "resume middleware slot count",
        |_, slot, w| {
            w.put_flag(slot.is_some());
            let Some(layer) = slot else {
                return Ok(());
            };
            write_seq(
                w,
                layer.tensors.iter(),
                "resume slot tensor count",
                |_, t, w| encode_section(t, Dtype::F32, w),
            )
        },
    )
}

fn read_middleware(r: &mut ByteReader<'_>) -> WireResult<Option<MiddlewareState>> {
    if !r.read_flag("resume middleware flag")? {
        return Ok(None);
    }
    let rng = r
        .read_flag("resume middleware rng flag")?
        .then(|| read_rng(r))
        .transpose()?;
    let stored = read_seq(r, |r| {
        let present = r.read_flag("resume middleware slot flag")?;
        present
            .then(|| read_seq(r, decode_section).map(LayerParams::new))
            .transpose()
    })?;
    Ok(Some(MiddlewareState { rng, stored }))
}

/// Encodes a resume image as `DNCK` bytes (header kind `fl-resume`).
///
/// # Errors
///
/// Returns [`FlError::Nn`] wrapping a wire error if any count exceeds the
/// `u32`/`u64` file fields.
pub fn encode_resume(ckpt: &FlCheckpoint) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    write_header(&mut w, CkptKind::FlResume);
    w.put_u64(u64::try_from(ckpt.rounds_run).unwrap_or(u64::MAX));
    write_f32_layers(&mut w, &ckpt.global.layers)?;
    write_seq(
        &mut w,
        ckpt.clients.iter(),
        "resume client count",
        |_, client, w| {
            w.put_u64(u64::try_from(client.id).unwrap_or(u64::MAX));
            write_rng(w, &client.rng);
            write_f32_layers(w, &client.params.layers)?;
            w.put_f32s(&client.optim.scalars, "resume optim scalar count")?;
            write_f32_layers(w, &client.optim.groups)?;
            write_seq(
                w,
                client.middleware.iter(),
                "resume middleware count",
                |_, mw, w| write_middleware(w, mw),
            )
        },
    )?;
    w.put_flag(ckpt.pending.is_some());
    if let Some(pending) = &ckpt.pending {
        let completed = pending.completed.iter();
        write_seq(
            &mut w,
            completed,
            "resume completed count",
            |_, (loss, update), w| {
                w.put_u64(u64::try_from(update.client_id).unwrap_or(u64::MAX));
                w.put_f32(*loss);
                w.put_u64(u64::try_from(update.num_samples).unwrap_or(u64::MAX));
                write_f32_layers(w, &update.params.layers)
            },
        )?;
    }
    Ok(w.into_bytes())
}

fn read_file_usize(r: &mut ByteReader<'_>, what: &'static str) -> WireResult<usize> {
    let value = r.read_u64()?;
    usize::try_from(value).map_err(|_| WireError::LengthOverflow { what, value })
}

fn read_client(r: &mut ByteReader<'_>) -> WireResult<ClientCkpt> {
    let id = read_file_usize(r, "resume client id")?;
    let rng = read_rng(r)?;
    let params = read_layers(r, decode_section)?.into();
    let scalars = r.read_f32s("resume optim scalar count")?;
    let optim = OptimState {
        scalars,
        groups: read_layers(r, decode_section)?,
    };
    let middleware = read_seq(r, read_middleware)?;
    Ok(ClientCkpt {
        id,
        params,
        rng,
        optim,
        middleware,
    })
}

fn read_completed(r: &mut ByteReader<'_>) -> WireResult<(f32, ClientUpdate)> {
    let client_id = read_file_usize(r, "resume update client id")?;
    let loss = r.read_f32()?;
    let num_samples = read_file_usize(r, "resume update samples")?;
    let params = read_layers(r, decode_section)?.into();
    Ok((
        loss,
        ClientUpdate {
            client_id,
            params,
            num_samples,
        },
    ))
}

/// Decodes a resume image. The whole buffer must be consumed.
///
/// # Errors
///
/// Returns [`FlError::Nn`] wrapping the typed wire error for truncation,
/// bad magic/version, a non-`fl-resume` kind, a presence flag other than
/// 0/1, corrupt headers or trailing bytes. Never panics.
pub fn decode_resume(bytes: &[u8]) -> Result<FlCheckpoint> {
    let mut r = ByteReader::new(bytes);
    expect_header(&mut r, CkptKind::FlResume)?;
    let rounds_run = read_file_usize(&mut r, "resume round counter")?;
    let global = read_layers(&mut r, decode_section)?.into();
    let clients = read_seq(&mut r, read_client)?;
    let pending = match r.read_flag("resume pending-round flag")? {
        true => Some(PendingRound {
            completed: read_seq(&mut r, read_completed)?,
        }),
        false => None,
    };
    r.finish()?;
    Ok(FlCheckpoint {
        rounds_run,
        global,
        clients,
        pending,
    })
}

/// Saves a resume image to `path`.
///
/// # Errors
///
/// Propagates encode errors; I/O failures surface as
/// [`FlError::InvalidConfig`] with the path in the message.
pub fn save_resume(ckpt: &FlCheckpoint, path: impl AsRef<Path>) -> Result<()> {
    let bytes = encode_resume(ckpt)?;
    fs::write(path.as_ref(), bytes).map_err(|e| FlError::InvalidConfig {
        reason: format!("cannot write resume image {}: {e}", path.as_ref().display()),
    })
}

/// Loads a resume image from `path`.
///
/// # Errors
///
/// Same conditions as [`decode_resume`], plus I/O failures as
/// [`FlError::InvalidConfig`].
pub fn load_resume(path: impl AsRef<Path>) -> Result<FlCheckpoint> {
    let bytes = fs::read(path.as_ref()).map_err(|e| FlError::InvalidConfig {
        reason: format!("cannot read resume image {}: {e}", path.as_ref().display()),
    })?;
    decode_resume(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::NnError;
    use dinar_tensor::Rng;

    fn params(v: f32) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![
            Tensor::full(&[2, 3], v),
            Tensor::full(&[3], v * 2.0),
        ])])
    }

    fn image() -> FlCheckpoint {
        let mut rng = Rng::seed_from(11);
        let _ = rng.normal(); // leave a gauss cache behind
        FlCheckpoint {
            rounds_run: 3,
            global: params(0.5),
            clients: vec![
                ClientCkpt {
                    id: 0,
                    params: params(1.0),
                    rng: rng.state(),
                    optim: OptimState {
                        scalars: vec![7.0],
                        groups: vec![vec![Tensor::full(&[2, 3], 0.1)], vec![]],
                    },
                    middleware: vec![
                        None,
                        Some(MiddlewareState {
                            rng: Some(Rng::seed_from(4).state()),
                            stored: vec![None, Some(LayerParams::new(vec![Tensor::ones(&[3])]))],
                        }),
                    ],
                },
                ClientCkpt {
                    id: 1,
                    params: params(2.0),
                    rng: Rng::seed_from(9).state(),
                    optim: OptimState::default(),
                    middleware: vec![],
                },
            ],
            pending: Some(PendingRound {
                completed: vec![(
                    0.25,
                    ClientUpdate {
                        client_id: 0,
                        params: params(3.0),
                        num_samples: 64,
                    },
                )],
            }),
        }
    }

    #[test]
    fn resume_image_roundtrips_exactly() {
        let ckpt = image();
        let bytes = encode_resume(&ckpt).unwrap();
        assert_eq!(&bytes[..4], b"DNCK");
        let back = decode_resume(&bytes).unwrap();
        assert_eq!(back.rounds_run, ckpt.rounds_run);
        assert_eq!(back.global, ckpt.global);
        assert_eq!(back.clients.len(), 2);
        assert_eq!(back.clients[0].rng, ckpt.clients[0].rng);
        assert_eq!(back.clients[0].optim, ckpt.clients[0].optim);
        assert_eq!(back.clients[0].middleware, ckpt.clients[0].middleware);
        assert_eq!(back.clients[1].id, 1);
        let pending = back.pending.unwrap();
        assert_eq!(pending.completed.len(), 1);
        assert_eq!(pending.completed[0].0, 0.25);
        assert_eq!(pending.completed[0].1.num_samples, 64);
        assert_eq!(pending.completed[0].1.params, params(3.0));
    }

    #[test]
    fn between_rounds_image_has_no_pending() {
        let mut ckpt = image();
        ckpt.pending = None;
        let back = decode_resume(&encode_resume(&ckpt).unwrap()).unwrap();
        assert!(back.pending.is_none());
    }

    #[test]
    fn model_checkpoint_kind_is_rejected() {
        let p = params(1.0);
        let bytes = dinar_nn::ckpt::encode_checkpoint(&p, Dtype::F32).unwrap();
        assert!(matches!(
            decode_resume(&bytes),
            Err(FlError::Nn(NnError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let bytes = encode_resume(&image()).unwrap();
        for cut in [0, 5, 7, 20, bytes.len() - 1] {
            assert!(
                decode_resume(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_resume(&extended),
            Err(FlError::Nn(NnError::Wire(WireError::TrailingBytes { .. })))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dinar-fl-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.dnck");
        let ckpt = image();
        save_resume(&ckpt, &path).unwrap();
        let back = load_resume(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.global, ckpt.global);
        assert_eq!(back.clients.len(), ckpt.clients.len());
    }
}
