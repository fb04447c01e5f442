//! The checkpoint plane, end to end: `DNCK` model/resume round-trips
//! through real files, corrupted images, seeded bit-flip fuzz through the
//! corruption harness `tests/wire_plane.rs` shares, and the bytes every
//! encoder writes pinned against the element-at-a-time writers the shared
//! section codec replaced.
//!
//! These tests also run under `--features sanitize`: the checkpoint codec
//! moves raw bit patterns without arithmetic, so even non-finite payloads
//! round-trip without tripping the kernel sanitizers.

use dinar_fl::ckpt::{decode_resume, encode_resume, load_resume, save_resume, FlCheckpoint};
use dinar_fl::{FlConfig, FlError, FlSystem, MiddlewareState};
use dinar_nn::ckpt::{self, CkptKind, CkptTensor, RawCheckpoint, FORMAT_VERSION, HEADER_LEN, MAGIC};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Adam;
use dinar_nn::serve::ServingModel;
use dinar_nn::snapshot::{decode_params, encode_params};
use dinar_nn::{LayerParams, ModelParams, NnError};
use dinar_tensor::wire::{self, ByteWriter, Codec, WireError};
use dinar_tensor::{Dtype, Rng, Tensor};
use std::path::PathBuf;

#[path = "support/corruption.rs"]
mod corruption;

const ALL_DTYPES: [Dtype; 3] = [Dtype::F32, Dtype::F16, Dtype::I8];

fn test_params() -> dinar_nn::ModelParams {
    let mut rng = Rng::seed_from(31);
    models::mlp(&[6, 5, 4], Activation::ReLU, &mut rng)
        .expect("model")
        .params()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dinar-ckpt-plane-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn small_system(seed: u64) -> FlSystem {
    let data = {
        let mut rng = Rng::seed_from(seed);
        let mut features = Tensor::zeros(&[60, 2]);
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
            features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
            labels.push(class);
        }
        dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
    };
    let mut rng = Rng::seed_from(seed + 1);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 16,
        seed: seed + 2,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
        |_| Box::new(Adam::new(0.05)),
    )
    .expect("clients")
    .build()
    .expect("system")
}

/// The file path round-trips at every storage width: f32 bit-identically,
/// f16/i8 shape-identically (they are lossy by design).
#[test]
fn model_checkpoint_files_roundtrip_at_every_dtype() {
    let params = test_params();
    for dtype in ALL_DTYPES {
        let path = temp_path(&format!("model-{dtype:?}.dnck"));
        ckpt::save(&params, dtype, &path).expect("save");
        let back = ckpt::load(&path).expect("load");
        assert_eq!(back.layers.len(), params.layers.len(), "{dtype:?}");
        for (a, b) in params.layers.iter().zip(&back.layers) {
            for (x, y) in a.tensors.iter().zip(&b.tensors) {
                assert_eq!(x.shape(), y.shape(), "{dtype:?}");
                if dtype == Dtype::F32 {
                    let xb: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The lossless save/load pair (what the deleted `io::save`/`io::load`
/// wrapped) is the same plane: bytes on disk start with the `DNCK` magic
/// and decode bit for bit.
#[test]
fn io_facade_writes_dnck_files() {
    let params = test_params();
    let path = temp_path("io-facade.dnck");
    ckpt::save(&params, Dtype::F32, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(&bytes[..4], &MAGIC);
    let back = ckpt::load(&path).expect("load via ckpt");
    assert_eq!(back, params);
    std::fs::remove_file(&path).ok();
}

/// A checkpoint mixing every storage width in one layer (f32 next to f16
/// next to i8), framed by hand around the section codec.
fn mixed_width_checkpoint(params: &ModelParams) -> Vec<u8> {
    let mut w = ByteWriter::new();
    ckpt::write_header(&mut w, CkptKind::Model);
    let tensors: Vec<&Tensor> = params.layers.iter().flat_map(|l| &l.tensors).collect();
    w.put_u32(1);
    w.put_u32(u32::try_from(tensors.len()).expect("count"));
    for (i, t) in tensors.iter().enumerate() {
        wire::encode_section(t, ALL_DTYPES[i % 3], &mut w).expect("section");
    }
    w.into_bytes()
}

/// Every strict prefix of a model checkpoint errors: no partial decode
/// passes for a truncated file.
#[test]
fn truncated_model_checkpoints_error_at_every_cut() {
    let params = test_params();
    for dtype in ALL_DTYPES {
        let bytes = ckpt::encode_checkpoint(&params, dtype).expect("encode");
        corruption::assert_every_prefix_fails(&format!("{dtype:?}"), &bytes, ckpt::decode_checkpoint);
    }
    let mixed = mixed_width_checkpoint(&params);
    corruption::assert_every_prefix_fails("mixed", &mixed, ckpt::decode_checkpoint_raw);
}

/// Header corruption surfaces as typed errors: wrong magic, unsupported
/// version, wrong image kind, unknown dtype tag.
#[test]
fn header_corruption_is_typed() {
    let params = test_params();
    let bytes = ckpt::encode_checkpoint(&params, Dtype::F32).expect("encode");

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(ckpt::decode_checkpoint(&bad_magic).is_err(), "bad magic");

    let mut bad_version = bytes.clone();
    bad_version[4] = (FORMAT_VERSION + 1) as u8;
    assert!(ckpt::decode_checkpoint(&bad_version).is_err(), "bad version");

    let mut bad_kind = bytes.clone();
    bad_kind[6] = CkptKind::FlResume.tag();
    assert!(
        ckpt::decode_checkpoint(&bad_kind).is_err(),
        "a resume-tagged image must not load as a model"
    );

    let mut bad_dtype = bytes.clone();
    bad_dtype[HEADER_LEN + 8] = 0x7F; // first tensor's dtype tag
    assert!(ckpt::decode_checkpoint(&bad_dtype).is_err(), "bad dtype tag");

    let mut trailing = bytes;
    trailing.push(0);
    assert!(ckpt::decode_checkpoint(&trailing).is_err(), "trailing byte");
}

/// Seeded fuzz over corrupted model images at every dtype: random bit
/// flips must return a typed error or decode garbage — never panic,
/// allocate absurdly, or loop.
#[test]
fn corrupted_model_checkpoints_never_panic() {
    let params = test_params();
    for dtype in ALL_DTYPES {
        let bytes = ckpt::encode_checkpoint(&params, dtype).expect("encode");
        corruption::assert_bit_flips_return(&bytes, 99, 200, ckpt::decode_checkpoint);
    }
    corruption::assert_bit_flips_return(&mixed_width_checkpoint(&params), 98, 200, ckpt::decode_checkpoint_raw);
}

/// The FL resume image survives the same treatment: file round-trip,
/// every-prefix truncation, and seeded bit-flip fuzz.
#[test]
fn resume_images_roundtrip_and_survive_corruption() {
    let mut system = small_system(7);
    system.run(1).expect("round");
    system.begin_round_partial(2).expect("partial");
    let image = system.checkpoint();
    let bytes = encode_resume(&image).expect("encode");

    let back = decode_resume(&bytes).expect("decode");
    assert_eq!(back.rounds_run, image.rounds_run);
    assert_eq!(back.clients.len(), image.clients.len());
    assert!(back.pending.is_some());

    let path = temp_path("resume.dnck");
    save_resume(&image, &path).expect("save");
    let from_file = load_resume(&path).expect("load");
    assert_eq!(from_file.rounds_run, image.rounds_run);
    std::fs::remove_file(&path).ok();

    corruption::assert_hardened("resume", &bytes, 131, 300, decode_resume);
}

/// A model image does not load as a resume image, and vice versa — the
/// kind byte keeps the two planes apart.
#[test]
fn image_kinds_do_not_cross_load() {
    let params = test_params();
    let model_bytes = ckpt::encode_checkpoint(&params, Dtype::F32).expect("encode");
    assert!(decode_resume(&model_bytes).is_err());

    let mut system = small_system(17);
    system.run(1).expect("round");
    let resume_bytes = encode_resume(&system.checkpoint()).expect("encode");
    assert!(ckpt::decode_checkpoint(&resume_bytes).is_err());
}

/// The serving loader rejects corrupt files with typed errors, and a
/// missing file is an error, not a panic.
#[test]
fn serving_loader_rejects_corrupt_files() {
    let params = test_params();
    let path = temp_path("serve-corrupt.dnck");
    let bytes = ckpt::encode_checkpoint(&params, Dtype::I8).expect("encode");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write truncated");
    assert!(matches!(
        ServingModel::load(&path),
        Err(NnError::Wire(_) | NnError::InvalidConfig { .. })
    ));
    std::fs::remove_file(&path).ok();
    assert!(ServingModel::load(temp_path("does-not-exist.dnck")).is_err());
}

/// The writers and reader the shared section codec replaced, copied from
/// the parent commit as the byte reference: element at a time, one
/// `put_f32`/`put_u16`/level per element, the parent's quantiser, and the
/// resume image's hand-rolled framing. `flags` collects the offset of every
/// presence-flag byte a resume image carries.
mod parent {
    use dinar_fl::ckpt::FlCheckpoint;
    use dinar_fl::MiddlewareState;
    use dinar_nn::ckpt::CkptTensor;
    use dinar_nn::ModelParams;
    use dinar_tensor::wire::{ByteReader, ByteWriter, Codec};
    use dinar_tensor::{cast, Dtype, Element, QuantTensor, RngState, Tensor, F16};

    fn quantise(xs: &[f32]) -> (f32, Vec<i8>) {
        let max = xs.iter().filter(|x| x.is_finite()).fold(0.0f32, |m, x| m.max(x.abs()));
        let scale = max / 127.0;
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        (scale, xs.iter().map(|&x| cast::f32_to_i8_sat(x * inv)).collect())
    }

    fn shape(w: &mut ByteWriter, t: &Tensor) {
        w.put_u32(t.shape().len() as u32);
        for &d in t.shape() {
            w.put_u32(d as u32);
        }
    }

    /// `nn::ckpt::write_tensor` at the parent.
    pub fn section(w: &mut ByteWriter, t: &Tensor, dtype: Dtype) {
        w.put_u8(dtype.tag());
        shape(w, t);
        match dtype {
            Dtype::F32 => t.as_slice().iter().for_each(|&x| w.put_f32(x)),
            Dtype::F16 => t.as_slice().iter().for_each(|&x| w.put_u16(F16::from_f32(x).to_u16())),
            Dtype::I8 => {
                let (scale, levels) = quantise(t.as_slice());
                w.put_f32(scale);
                levels.iter().for_each(|&l| w.put_u8(l.to_le_bytes()[0]));
            }
        }
    }

    /// A `DNWR` tensor frame at the parent.
    fn frame(w: &mut ByteWriter, t: &Tensor, codec: Codec) {
        shape(w, t);
        let xs = t.as_slice();
        match codec {
            Codec::F32 => xs.iter().for_each(|&x| w.put_f32(x)),
            Codec::QuantI8 => {
                let (scale, levels) = quantise(xs);
                w.put_f32(scale);
                levels.iter().for_each(|&l| w.put_u8(l.to_le_bytes()[0]));
            }
            Codec::Sign1 => {
                let sum: f64 = xs.iter().filter(|x| x.is_finite()).map(|&x| f64::from(x).abs()).sum();
                let scale = if xs.is_empty() { 0.0 } else { (sum / xs.len() as f64) as f32 };
                w.put_f32(scale);
                for chunk in xs.chunks(8) {
                    let bits = chunk.iter().enumerate();
                    w.put_u8(bits.fold(0u8, |b, (i, x)| b | u8::from(x.is_sign_positive()) << i));
                }
            }
        }
    }

    fn layers(w: &mut ByteWriter, p: &ModelParams, mut tensor: impl FnMut(&mut ByteWriter, &Tensor)) {
        w.put_u32(p.layers.len() as u32);
        for layer in &p.layers {
            w.put_u32(layer.tensors.len() as u32);
            layer.tensors.iter().for_each(|t| tensor(w, t));
        }
    }

    fn header(w: &mut ByteWriter, magic: &[u8; 4], tag: u8) {
        w.put_bytes(magic);
        w.put_u16(1);
        w.put_u8(tag);
    }

    pub fn dnwr(p: &ModelParams, codec: Codec) -> Vec<u8> {
        let mut w = ByteWriter::new();
        header(&mut w, b"DNWR", codec.tag());
        layers(&mut w, p, |w, t| frame(w, t, codec));
        w.into_bytes()
    }

    pub fn dnck(p: &ModelParams, dtype: Dtype) -> Vec<u8> {
        let mut w = ByteWriter::new();
        header(&mut w, b"DNCK", 0x00);
        layers(&mut w, p, |w, t| section(w, t, dtype));
        w.into_bytes()
    }

    fn flag(w: &mut ByteWriter, flags: &mut Vec<usize>, present: bool) {
        flags.push(w.len());
        w.put_u8(u8::from(present));
    }

    fn rng(w: &mut ByteWriter, flags: &mut Vec<usize>, rng: &RngState) {
        rng.words.iter().for_each(|&x| w.put_u64(x));
        flag(w, flags, rng.gauss_cache.is_some());
        rng.gauss_cache.into_iter().for_each(|x| w.put_f32(x));
    }

    fn middleware(w: &mut ByteWriter, flags: &mut Vec<usize>, state: &Option<MiddlewareState>) {
        flag(w, flags, state.is_some());
        let Some(state) = state else { return };
        flag(w, flags, state.rng.is_some());
        state.rng.iter().for_each(|r| rng(w, flags, r));
        w.put_u32(state.stored.len() as u32);
        for slot in &state.stored {
            flag(w, flags, slot.is_some());
            if let Some(layer) = slot {
                w.put_u32(layer.tensors.len() as u32);
                layer.tensors.iter().for_each(|t| section(w, t, Dtype::F32));
            }
        }
    }

    /// `fl::ckpt::encode_resume` at the parent.
    pub fn resume(image: &FlCheckpoint, flags: &mut Vec<usize>) -> Vec<u8> {
        let f32s = |w: &mut ByteWriter, t: &Tensor| section(w, t, Dtype::F32);
        let mut w = ByteWriter::new();
        header(&mut w, b"DNCK", 0x01);
        w.put_u64(image.rounds_run as u64);
        layers(&mut w, &image.global, f32s);
        w.put_u32(image.clients.len() as u32);
        for client in &image.clients {
            w.put_u64(client.id as u64);
            rng(&mut w, flags, &client.rng);
            layers(&mut w, &client.params, f32s);
            w.put_u32(client.optim.scalars.len() as u32);
            client.optim.scalars.iter().for_each(|&s| w.put_f32(s));
            w.put_u32(client.optim.groups.len() as u32);
            for group in &client.optim.groups {
                w.put_u32(group.len() as u32);
                group.iter().for_each(|t| section(&mut w, t, Dtype::F32));
            }
            w.put_u32(client.middleware.len() as u32);
            client.middleware.iter().for_each(|m| middleware(&mut w, flags, m));
        }
        flag(&mut w, flags, image.pending.is_some());
        if let Some(pending) = &image.pending {
            w.put_u32(pending.completed.len() as u32);
            for (loss, update) in &pending.completed {
                w.put_u64(update.client_id as u64);
                w.put_f32(*loss);
                w.put_u64(update.num_samples as u64);
                layers(&mut w, &update.params, f32s);
            }
        }
        w.into_bytes()
    }

    /// `nn::ckpt::read_params_raw` at the parent, after the header: grow by
    /// push, one element per read.
    pub fn read_model(bytes: &[u8]) -> Vec<Vec<CkptTensor>> {
        let mut r = ByteReader::new(&bytes[7..]);
        let mut out = Vec::new();
        for _ in 0..r.read_u32().unwrap() {
            let mut layer = Vec::new();
            for _ in 0..r.read_u32().unwrap() {
                let dtype = Dtype::from_tag(r.read_u8().unwrap()).unwrap();
                let shape: Vec<usize> = (0..r.read_u32().unwrap()).map(|_| r.read_u32().unwrap() as usize).collect();
                let len = shape.iter().product();
                layer.push(match dtype {
                    Dtype::F32 => CkptTensor::Dense(Tensor::from_vec((0..len).map(|_| r.read_f32().unwrap()).collect(), &shape).unwrap()),
                    Dtype::F16 => CkptTensor::Dense(Tensor::from_vec((0..len).map(|_| F16::from_u16(r.read_u16().unwrap()).to_f32()).collect(), &shape).unwrap()),
                    Dtype::I8 => {
                        let scale = r.read_f32().unwrap();
                        let levels = (0..len).map(|_| i8::from_le_bytes([r.read_u8().unwrap()])).collect();
                        CkptTensor::Quant(QuantTensor::from_levels(levels, scale, &shape).unwrap())
                    }
                });
            }
            out.push(layer);
        }
        r.finish().unwrap();
        out
    }
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A section's variant and every bit it decoded to.
fn section_bits(section: &CkptTensor) -> (bool, Vec<usize>, Vec<u32>) {
    match section {
        CkptTensor::Dense(t) => (false, t.shape().to_vec(), tensor_bits(t)),
        CkptTensor::Quant(q) => {
            let mut bits: Vec<u32> = q.levels().iter().map(|&l| u32::from(l.to_le_bytes()[0])).collect();
            bits.push(q.scale().to_bits());
            (true, q.shape().to_vec(), bits)
        }
    }
}

fn raw_bits(raw: &[Vec<CkptTensor>]) -> Vec<Vec<(bool, Vec<usize>, Vec<u32>)>> {
    raw.iter().map(|l| l.iter().map(section_bits).collect()).collect()
}

/// Parameters with every awkward value a payload can meet: both zeros,
/// subnormals, non-finite entries, f16 overflow and half-way ties, and an
/// empty tensor.
fn awkward_params() -> ModelParams {
    let mut rng = Rng::seed_from(0xB17E);
    let mut odd = rng.randn(&[5, 7]);
    let special = [0.0, -0.0, f32::NAN, f32::INFINITY, -f32::INFINITY, f32::from_bits(1), 7e4, 1.0 + 2f32.powi(-11)];
    for (x, s) in odd.as_mut_slice().iter_mut().step_by(3).zip(special) {
        *x = s;
    }
    ModelParams::new(vec![
        LayerParams::new(vec![odd, rng.randn(&[7])]),
        LayerParams::new(vec![Tensor::zeros(&[0]), rng.randn(&[2, 3, 2]), Tensor::zeros(&[9])]),
        LayerParams::new(vec![]),
    ])
}

/// `small_system` after a full round and a partial one, with a
/// middleware state that has every optional part (and one with none) and
/// a client RNG holding a Gaussian half-sample, so every presence flag a
/// resume image can carry is in it at both values.
fn full_resume_image() -> FlCheckpoint {
    let mut system = small_system(23);
    system.run(1).expect("round");
    system.begin_round_partial(2).expect("partial");
    let mut image = system.checkpoint();
    assert!(image.pending.is_some());
    image.clients[0].rng.gauss_cache = Some(-0.75);
    image.clients[1].middleware = vec![
        None,
        Some(MiddlewareState {
            rng: Some(Rng::seed_from(4).state()),
            stored: vec![None, Some(LayerParams::new(vec![Tensor::full(&[2, 2], 0.5)]))],
        }),
        Some(MiddlewareState { rng: None, stored: vec![] }),
    ];
    image
}

/// Same bytes: `DNWR` streams under every codec, `DNCK` models at every
/// dtype, a mixed-width checkpoint and a full resume image all encode to
/// exactly what the parent's element-at-a-time writers wrote, and decode to
/// the bits and `RawCheckpoint` variants the parent's reader produced.
#[test]
fn codecs_write_the_parents_bytes() {
    let params = awkward_params();
    for codec in Codec::all() {
        let bytes = encode_params(&params, codec).expect("encode");
        assert_eq!(bytes, parent::dnwr(&params, codec), "DNWR {codec:?}");
        let back = decode_params(&bytes).expect("decode");
        if codec == Codec::F32 {
            assert_eq!(back.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                params.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }
    let trained = test_params();
    for p in [&params, &trained] {
        for dtype in ALL_DTYPES {
            let bytes = ckpt::encode_checkpoint(p, dtype).expect("encode");
            assert_eq!(bytes, parent::dnck(p, dtype), "DNCK {dtype:?}");
            assert_eq!(bytes.len(), ckpt::encoded_checkpoint_len(p, dtype));
            let RawCheckpoint { layers } = ckpt::decode_checkpoint_raw(&bytes).expect("decode");
            assert_eq!(raw_bits(&layers), raw_bits(&parent::read_model(&bytes)), "DNCK {dtype:?}");
        }
    }
    let mixed = mixed_width_checkpoint(&params);
    let mut want = ByteWriter::new();
    ckpt::write_header(&mut want, CkptKind::Model);
    let tensors: Vec<&Tensor> = params.layers.iter().flat_map(|l| &l.tensors).collect();
    want.put_u32(1);
    want.put_u32(tensors.len() as u32);
    for (i, t) in tensors.iter().enumerate() {
        parent::section(&mut want, t, ALL_DTYPES[i % 3]);
    }
    assert_eq!(mixed, want.into_bytes(), "mixed-width sections");
    let RawCheckpoint { layers } = ckpt::decode_checkpoint_raw(&mixed).expect("decode");
    assert_eq!(raw_bits(&layers), raw_bits(&parent::read_model(&mixed)));

    let image = full_resume_image();
    let bytes = encode_resume(&image).expect("encode");
    assert_eq!(bytes, parent::resume(&image, &mut Vec::new()), "resume image");
    let back = decode_resume(&bytes).expect("decode");
    assert_eq!(encode_resume(&back).expect("re-encode"), bytes, "resume decode is exact");
    assert_eq!(back.clients[1].middleware, image.clients[1].middleware);
    assert_eq!(back.clients[0].rng, image.clients[0].rng);
}

/// A presence flag is 0 or 1. Set any flag byte of a resume image to 2 —
/// a gauss-cache flag, a middleware, middleware-RNG or slot flag, the
/// pending-round flag — and decoding fails with a typed error; a laxer
/// reader took it for "present".
#[test]
fn resume_presence_flags_accept_only_zero_or_one() {
    let image = full_resume_image();
    let mut flags = Vec::new();
    let bytes = parent::resume(&image, &mut flags);
    assert_eq!(bytes, encode_resume(&image).expect("encode"));
    assert!(flags.len() >= 10, "{} flags", flags.len());
    for &at in &flags {
        assert!(bytes[at] <= 1);
        let mut bad = bytes.clone();
        bad[at] = 2;
        match decode_resume(&bad) {
            Err(FlError::Nn(NnError::Wire(WireError::UnknownTag { what, tag: 2 }))) => {
                assert!(what.contains("flag"), "{what}");
            }
            other => panic!("flag byte at {at} set to 2 decoded as {other:?}"),
        }
    }
}

/// Errors name the format they were reading: a bad-magic `.dnck` file says
/// `DNCK` (not the wire stream's `DNWR`), and an unknown kind byte is a
/// `DNCK kind`, not a wire codec.
#[test]
fn checkpoint_errors_name_the_dnck_format() {
    let path = temp_path("bad-magic.dnck");
    let mut bytes = ckpt::encode_checkpoint(&test_params(), Dtype::F32).expect("encode");
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).expect("write");
    let err = ckpt::load(&path).expect_err("bad magic loaded").to_string();
    std::fs::remove_file(&path).ok();
    assert!(err.contains("DNCK") && !err.contains("DNWR"), "{err}");
    bytes[0] = b'D';
    bytes[4] = 9;
    let err = ckpt::decode_checkpoint(&bytes).expect_err("bad version").to_string();
    assert!(err.contains("DNCK format version 9"), "{err}");
    bytes[4] = 1;
    bytes[6] = 0x7F;
    let err = ckpt::decode_checkpoint(&bytes).expect_err("bad kind").to_string();
    assert!(err.contains("DNCK kind"), "{err}");
}
