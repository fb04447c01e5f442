//! The one corruption harness for the byte planes, shared by
//! `tests/wire_plane.rs` and `tests/ckpt_plane.rs` (each includes this file
//! with `#[path]`): `DNWR` streams, `DNCK` models and resume images are
//! inputs to it, not three copies of the loop.

use dinar_tensor::Rng;

/// Every strict prefix of a valid encoding must fail to decode: no
/// partial decode is valid.
pub fn assert_every_prefix_fails<T, E>(label: &str, bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "{label}: prefix of {cut} bytes decoded");
    }
}

/// `trials` seeded corruptions of 1–4 bit flips each: the decoder must
/// return — garbage or a typed error — and never panic, allocate absurdly
/// or loop.
pub fn assert_bit_flips_return<T, E>(
    bytes: &[u8],
    seed: u64,
    trials: u64,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    let mut rng = Rng::seed_from(seed);
    for trial in 0..trials {
        let mut corrupt = bytes.to_vec();
        for f in 0..=trial % 4 {
            let r = rng.next_u64() ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(f);
            let idx = usize::try_from(r % corrupt.len() as u64).expect("index fits");
            corrupt[idx] ^= 1u8 << (r >> 32 & 7);
        }
        let _ = decode(&corrupt); // Ok(garbage) or Err — both fine
    }
}

/// Both halves: every-prefix truncation, then seeded bit flips.
pub fn assert_hardened<T, E>(
    label: &str,
    bytes: &[u8],
    seed: u64,
    trials: u64,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert_every_prefix_fails(label, bytes, &decode);
    assert_bit_flips_return(bytes, seed, trials, decode);
}
