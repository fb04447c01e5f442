//! Synthetic class-conditional data generators.
//!
//! Each generator produces a classification task of a given *modality* with a
//! tunable within-class noise level. The noise level controls the Bayes error
//! and therefore how much a model must **memorize** individual samples to fit
//! the training set — which is precisely the property membership inference
//! attacks exploit (§2.2 of the paper: MIAs thrive on the member/non-member
//! generalization gap). Replicating that gap, rather than the pixel
//! statistics of CIFAR or GTSRB, is what makes the paper's experiments
//! reproducible on synthetic data.
//!
//! Modalities:
//!
//! * [`Modality::Image`] — per-class Gaussian prototype images plus i.i.d.
//!   Gaussian noise (stands in for CIFAR-10/100, GTSRB, CelebA),
//! * [`Modality::Audio`] — per-class prototype waveforms built from a few
//!   random sinusoids, with random circular time shift and additive noise
//!   (stands in for Speech Commands),
//! * [`Modality::BinaryTabular`] — per-class Bernoulli feature profiles with
//!   flip noise (stands in for Purchase100 and Texas100's binary records).
//!
//! # Stream layout (images and audio)
//!
//! The prototype generator draws every Gaussian from one counter-based
//! stream ([`CbRng`]), keyed by the caller's next two raw outputs, as
//! [`Rng::fill_normal`] keys its fills. Write `z(p)` for that stream's
//! standard normal at position `p` (half `p % 2` of
//! [`CbRng::ref_normal_pair`]`(p / 2)`), `C` for the class count, `F` for
//! the row length and `n` for the sample count. The caller's `rng` draws,
//! in this order:
//!
//! 1. the key: two raw outputs ([`Rng::next_u64`]);
//! 2. audio only: the `C` waveform prototypes (three sinusoids of three
//!    [`Rng::uniform_in`] draws each), then one shift per row in row
//!    order, [`Rng::below`]`(F / 8)` when `F > 8` and 0 otherwise;
//! 3. the shuffle: [`Rng::permutation`]`(n)`.
//!
//! Image prototype `c` element `j` is `z(c·F + j)·1 + 0` (an
//! `N(0, 1)` fill). Generated row `i` has label `i % C`, and its element `j`
//! is `proto[(j + shift) % F] + z(P + i·F + j)·noise`, where `P = C·F` for
//! images (the positions the prototypes took) and `0` for audio, and an
//! image row's shift is 0. Shuffled row `r` is generated row `perm[r]`.
//!
//! Row `i`'s noise is the fixed position range `[P + i·F, P + (i+1)·F)`,
//! so every shuffled slot is filled straight from its own range, in
//! parallel parts, and the partition cannot change a bit. The caller's
//! `rng` takes no scalar Gaussian draw, so a cached Box–Muller half-sample
//! stays cached.
//!
//! # Row offsets (tabular)
//!
//! A tabular dataset is the serial walk of the caller's stream: class
//! profiles, then rows `0..n` in order at two raw draws per feature, then
//! the shuffle. Where row `i` starts is therefore known without drawing the
//! rows before it: each parallel part advances a copy of the stream to its
//! first row ([`Rng::advance`]), the caller's stream is advanced past the
//! last row, and the output — dataset and the caller's state after it — is
//! the serial walk's at every pool width.

use crate::{DataError, Dataset, Result};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{par, CbRng, Rng, Tensor};

/// The feature modality of a synthetic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// `channels × height × width` images.
    Image {
        /// Color channels.
        channels: usize,
        /// Image height.
        height: usize,
        /// Image width.
        width: usize,
    },
    /// Single-channel waveforms of `len` samples.
    Audio {
        /// Waveform length.
        len: usize,
    },
    /// `features` binary (0/1) columns.
    BinaryTabular {
        /// Number of binary features.
        features: usize,
    },
}

impl ToJson for Modality {
    fn to_json(&self) -> Json {
        match *self {
            Modality::Image {
                channels,
                height,
                width,
            } => Json::obj(vec![(
                "Image",
                Json::obj(vec![
                    ("channels", channels.to_json()),
                    ("height", height.to_json()),
                    ("width", width.to_json()),
                ]),
            )]),
            Modality::Audio { len } => {
                Json::obj(vec![("Audio", Json::obj(vec![("len", len.to_json())]))])
            }
            Modality::BinaryTabular { features } => Json::obj(vec![(
                "BinaryTabular",
                Json::obj(vec![("features", features.to_json())]),
            )]),
        }
    }
}

impl Modality {
    /// The logical shape of one sample.
    pub fn sample_shape(&self) -> Vec<usize> {
        match *self {
            Modality::Image {
                channels,
                height,
                width,
            } => vec![channels, height, width],
            Modality::Audio { len } => vec![1, len],
            Modality::BinaryTabular { features } => vec![features],
        }
    }

    /// Number of scalar features per sample.
    pub fn feature_len(&self) -> usize {
        self.sample_shape().iter().product()
    }
}

/// Specification of a synthetic classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Dataset name (for reports).
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of samples to generate.
    pub num_samples: usize,
    /// Feature modality.
    pub modality: Modality,
    /// Within-class noise level.
    ///
    /// For images/audio this is the standard deviation of additive Gaussian
    /// noise relative to unit-variance prototypes; for binary tabular data it
    /// is the per-feature flip probability. Higher noise → harder task →
    /// larger memorization incentive → stronger MIA signal on unprotected
    /// models.
    pub noise: f32,
}

impl ToJson for SynthSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("num_classes", self.num_classes.to_json()),
            ("num_samples", self.num_samples.to_json()),
            ("modality", self.modality.to_json()),
            ("noise", self.noise.to_json()),
        ])
    }
}

impl SynthSpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] for zero classes/samples/features
    /// or out-of-range noise.
    pub fn validate(&self) -> Result<()> {
        if self.num_classes == 0 {
            return Err(DataError::InvalidSpec {
                reason: "num_classes must be positive".into(),
            });
        }
        if self.num_samples == 0 {
            return Err(DataError::InvalidSpec {
                reason: "num_samples must be positive".into(),
            });
        }
        if self.modality.feature_len() == 0 {
            return Err(DataError::InvalidSpec {
                reason: "modality has zero features".into(),
            });
        }
        if self.noise < 0.0 || !self.noise.is_finite() {
            return Err(DataError::InvalidSpec {
                reason: format!("noise {} must be finite and non-negative", self.noise),
            });
        }
        if matches!(self.modality, Modality::BinaryTabular { .. }) && self.noise > 0.5 {
            return Err(DataError::InvalidSpec {
                reason: "flip probability above 0.5 destroys the class signal".into(),
            });
        }
        Ok(())
    }

    /// Generates the dataset.
    ///
    /// Labels are balanced (`num_samples / num_classes` each, up to
    /// remainder) and rows are shuffled. The same `rng` state always yields
    /// the same dataset, and leaves `rng` in the same state, at every pool
    /// width: every row is drawn from a position range known before any row
    /// is drawn (see the module docs), so rows are filled in parallel parts.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the spec is invalid.
    pub fn generate(&self, rng: &mut Rng) -> Result<Dataset> {
        self.validate()?;
        match self.modality {
            Modality::BinaryTabular { features } => self.generate_tabular(rng, features),
            Modality::Image { .. } | Modality::Audio { .. } => self.generate_prototype(rng),
        }
    }

    /// Prototype-plus-noise generator for images and audio, in the stream
    /// layout of the module docs. For audio a random circular shift is
    /// applied so that models must learn shift-tolerant features (as
    /// convolutions with pooling do).
    fn generate_prototype(&self, rng: &mut Rng) -> Result<Dataset> {
        let (n, classes, flen) = (
            self.num_samples,
            self.num_classes,
            self.modality.feature_len(),
        );
        let stream = CbRng::new(rng.next_u64(), rng.next_u64());
        // Row `i`'s noise starts at `first + i·flen`: past the prototypes
        // the stream holds for images, at 0 for audio.
        let (prototypes, shifts, first) = match self.modality {
            Modality::Audio { len } => {
                let prototypes: Vec<f32> = (0..classes)
                    .flat_map(|_| waveform_prototype(rng, len))
                    .collect();
                // The shift is rejection-sampled (`Rng::below`), so the
                // shifts are drawn serially, before any row.
                let shifts = (0..n)
                    .map(|_| if flen > 8 { rng.below(flen / 8) } else { 0 })
                    .collect();
                (prototypes, shifts, 0)
            }
            _ => {
                let mut prototypes = vec![0.0f32; classes * flen];
                stream.fill_normal(0, &mut prototypes, 0.0, 1.0);
                (prototypes, vec![0; n], classes * flen)
            }
        };
        let perm = rng.permutation(n);
        let noise = self.noise;
        let mut data = vec![0.0f32; n * flen];
        let row_bytes = flen * std::mem::size_of::<f32>();
        par::for_each_part_mut(&mut data, flen, row_bytes, |offset, part| {
            for (row, &i) in part.chunks_exact_mut(flen).zip(&perm[offset / flen..]) {
                let class = i % classes;
                row.copy_from_slice(&prototypes[class * flen..][..flen]);
                row.rotate_left(shifts[i]);
                stream.axpy_normal(first + i * flen, row, noise);
            }
        });
        self.dataset(data, &perm)
    }

    /// Bernoulli-profile generator for binary tabular data.
    fn generate_tabular(&self, rng: &mut Rng, features: usize) -> Result<Dataset> {
        // Each class has its own activation probability per feature, drawn
        // around a sparse base rate (purchases / medical codes are sparse).
        let profiles: Vec<Vec<u64>> = (0..self.num_classes)
            .map(|_| {
                (0..features)
                    .map(|_| {
                        let p = if rng.bernoulli(0.3) {
                            rng.uniform_in(0.5, 0.95) // class-marker feature
                        } else {
                            rng.uniform_in(0.02, 0.15) // background feature
                        };
                        bernoulli_threshold(p)
                    })
                    .collect()
            })
            .collect();
        let flip = bernoulli_threshold(self.noise);
        // A tabular row is two raw draws per feature.
        self.shuffled_rows(rng, 2 * features as u64, |row, i, stream| {
            for (slot, &on) in row.iter_mut().zip(&profiles[i % self.num_classes]) {
                let bit = (stream.next_u64() >> 40) < on;
                let flipped = (stream.next_u64() >> 40) < flip; // label-independent flip noise
                *slot = f32::from(u8::from(bit ^ flipped));
            }
        })
    }

    /// Draws the rows of a generator whose rows take `draws_per_row` raw
    /// draws each, then shuffles them, as a serial walk over `rng` would —
    /// each row drawn straight into its shuffled place, on the pool.
    ///
    /// `fill(row, i, stream)` draws row `i` from a stream at its first
    /// draw. Each parallel part advances a copy of `rng` to its first row;
    /// `rng` itself is advanced past the last row and then draws the
    /// shuffle.
    fn shuffled_rows(
        &self,
        rng: &mut Rng,
        draws_per_row: u64,
        fill: impl Fn(&mut [f32], usize, &mut Rng) + Sync,
    ) -> Result<Dataset> {
        let (n, flen) = (self.num_samples, self.modality.feature_len());
        let start = rng.clone();
        rng.advance(n as u64 * draws_per_row);
        let perm = rng.permutation(n);
        let mut data = vec![0.0f32; n * flen];
        // Shuffled row `r` is row `perm[r]`: order the slots by their row.
        let mut slots: Vec<(usize, &mut [f32])> = perm
            .iter()
            .copied()
            .zip(data.chunks_exact_mut(flen))
            .collect();
        slots.sort_unstable_by_key(|&(i, _)| i);
        let row_bytes = flen * std::mem::size_of::<f32>();
        par::for_each_part_mut(&mut slots, 1, row_bytes, |first, part| {
            let mut stream = start.clone();
            stream.advance(first as u64 * draws_per_row);
            for (i, row) in part.iter_mut() {
                fill(row, *i, &mut stream);
            }
        });
        self.dataset(data, &perm)
    }

    /// The dataset whose row `r` is generated row `perm[r]` (`data` already
    /// in that order); generated row `i` has label `i % num_classes`.
    fn dataset(&self, data: Vec<f32>, perm: &[usize]) -> Result<Dataset> {
        let labels = perm.iter().map(|&i| i % self.num_classes).collect();
        let features = Tensor::from_vec(data, &[self.num_samples, self.modality.feature_len()])?;
        Dataset::new(
            features,
            labels,
            &self.modality.sample_shape(),
            self.num_classes,
        )
    }
}

/// `⌈p·2²⁴⌉`: a raw draw `d` passes [`Rng::bernoulli`]`(p)` exactly when
/// `d >> 40` is below it, because `uniform()` is those 24 bits times 2⁻²⁴,
/// which `f32` holds exactly — as it does `p·2²⁴`.
fn bernoulli_threshold(p: f32) -> u64 {
    (p * 16_777_216.0).ceil() as u64
}

/// A smooth per-class waveform: a mixture of a few random sinusoids.
fn waveform_prototype(rng: &mut Rng, len: usize) -> Vec<f32> {
    let n_components = 3;
    let components: Vec<(f32, f32, f32)> = (0..n_components)
        .map(|_| {
            (
                rng.uniform_in(1.0, 24.0),                  // frequency (cycles per window)
                rng.uniform_in(0.0, std::f32::consts::TAU), // phase
                rng.uniform_in(0.5, 1.0),                   // amplitude
            )
        })
        .collect();
    (0..len)
        .map(|t| {
            let x = t as f32 / len as f32;
            components
                .iter()
                .map(|&(f, p, a)| a * (std::f32::consts::TAU * f * x + p).sin())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_spec(noise: f32) -> SynthSpec {
        SynthSpec {
            name: "test-img".into(),
            num_classes: 4,
            num_samples: 80,
            modality: Modality::Image {
                channels: 2,
                height: 4,
                width: 4,
            },
            noise,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = image_spec(1.0);
        let a = spec.generate(&mut Rng::seed_from(5)).unwrap();
        let b = spec.generate(&mut Rng::seed_from(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_balanced() {
        let ds = image_spec(1.0).generate(&mut Rng::seed_from(0)).unwrap();
        assert_eq!(ds.class_histogram(), vec![20, 20, 20, 20]);
    }

    #[test]
    fn sample_shape_matches_modality() {
        let ds = image_spec(1.0).generate(&mut Rng::seed_from(0)).unwrap();
        assert_eq!(ds.sample_shape(), &[2, 4, 4]);
        assert_eq!(ds.feature_len(), 32);
    }

    #[test]
    fn low_noise_classes_are_separable_high_noise_not() {
        // Nearest-prototype accuracy proxy: same-class samples should be
        // closer to each other at low noise.
        let near = image_spec(0.1).generate(&mut Rng::seed_from(1)).unwrap();
        let far = image_spec(5.0).generate(&mut Rng::seed_from(1)).unwrap();
        let within_over_between = |ds: &Dataset| {
            let f = ds.features();
            let mut within = 0.0f64;
            let mut between = 0.0f64;
            let (mut wn, mut bn) = (0u32, 0u32);
            for i in 0..20 {
                for j in (i + 1)..20 {
                    let a = f.row(i).unwrap();
                    let b = f.row(j).unwrap();
                    let d = a.sub(&b).unwrap().norm_l2() as f64;
                    if ds.labels()[i] == ds.labels()[j] {
                        within += d;
                        wn += 1;
                    } else {
                        between += d;
                        bn += 1;
                    }
                }
            }
            (within / wn.max(1) as f64) / (between / bn.max(1) as f64)
        };
        assert!(within_over_between(&near) < 0.3);
        assert!(within_over_between(&far) > 0.8);
    }

    #[test]
    fn tabular_features_are_binary() {
        let spec = SynthSpec {
            name: "test-tab".into(),
            num_classes: 5,
            num_samples: 50,
            modality: Modality::BinaryTabular { features: 30 },
            noise: 0.05,
        };
        let ds = spec.generate(&mut Rng::seed_from(2)).unwrap();
        assert!(ds
            .features()
            .as_slice()
            .iter()
            .all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn audio_waveforms_are_bounded_and_smooth() {
        let spec = SynthSpec {
            name: "test-audio".into(),
            num_classes: 3,
            num_samples: 12,
            modality: Modality::Audio { len: 64 },
            noise: 0.1,
        };
        let ds = spec.generate(&mut Rng::seed_from(3)).unwrap();
        assert_eq!(ds.sample_shape(), &[1, 64]);
        // Sinusoid mixture with amplitude <= 3 plus small noise.
        assert!(ds.features().as_slice().iter().all(|&x| x.abs() < 5.0));
    }

    #[test]
    fn spec_validation() {
        let mut spec = image_spec(1.0);
        spec.num_classes = 0;
        assert!(spec.generate(&mut Rng::seed_from(0)).is_err());

        let mut spec = image_spec(-1.0);
        assert!(spec.generate(&mut Rng::seed_from(0)).is_err());
        spec.noise = f32::NAN;
        assert!(spec.generate(&mut Rng::seed_from(0)).is_err());

        let bad_flip = SynthSpec {
            name: "bad".into(),
            num_classes: 2,
            num_samples: 10,
            modality: Modality::BinaryTabular { features: 5 },
            noise: 0.9,
        };
        assert!(bad_flip.generate(&mut Rng::seed_from(0)).is_err());
    }
}
