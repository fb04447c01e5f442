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
//! # Row offsets
//!
//! A dataset is the serial walk of one stream: class prototypes (or
//! profiles), then rows `0..n` in order, then the shuffle. Image rows take
//! `flen` scalar normals and tabular rows two raw draws per feature, so
//! where row `i` starts in the stream is known without drawing the rows
//! before it. Each parallel part therefore advances a copy of the stream to
//! its first row ([`Rng::advance`]; for images, whether a part starts on the
//! cached half of a Box–Muller pair follows from the count), the caller's
//! stream is advanced past the last row, and the output — dataset and the
//! caller's state after it — is the serial walk's at every pool width.
//! Audio rows draw a rejection-sampled shift first, so their offsets depend
//! on the data: they are walked serially through the same row function.

use crate::{DataError, Dataset, Result};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{par, Rng, Tensor};

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
    /// width: image and tabular rows take a fixed number of draws each, so
    /// they are filled in parallel parts, each from a copy of the stream
    /// advanced to its first row (see [`Rng::advance`]).
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

    /// Prototype-plus-noise generator for images and audio. For audio a
    /// random circular shift is applied so that models must learn
    /// shift-tolerant features (as convolutions with pooling do).
    fn generate_prototype(&self, rng: &mut Rng) -> Result<Dataset> {
        let flen = self.modality.feature_len();
        // Per-class prototypes.
        let prototypes: Vec<Vec<f32>> = (0..self.num_classes)
            .map(|_| match self.modality {
                Modality::Audio { len } => waveform_prototype(rng, len),
                _ => (0..flen).map(|_| rng.normal()).collect(),
            })
            .collect();
        let class_of = |row: usize| &prototypes[row % self.num_classes];
        let noise = self.noise;
        if let Modality::Audio { .. } = self.modality {
            // The shift is rejection-sampled (`Rng::below`), so where a row's
            // draws start depends on the rows before it: audio rows are
            // walked serially, and shuffled once all are drawn.
            let mut rows = vec![0.0f32; self.num_samples * flen];
            for (i, row) in rows.chunks_exact_mut(flen).enumerate() {
                let shift = if flen > 8 { rng.below(flen / 8) } else { 0 };
                noisy_row(row, class_of(i), shift, noise, rng);
            }
            let perm = rng.permutation(self.num_samples);
            let data = perm.iter().flat_map(|&i| &rows[i * flen..][..flen]).copied().collect();
            return self.dataset(data, &perm);
        }
        // An image row is `flen` scalar normals.
        self.shuffled_rows(
            rng,
            |stream, rows| skip_normals(stream, rows * flen),
            |row, i, stream| noisy_row(row, class_of(i), 0, noise, stream),
        )
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
        self.shuffled_rows(
            rng,
            |stream, rows| stream.advance(2 * (rows * features) as u64),
            |row, i, stream| {
                for (slot, &on) in row.iter_mut().zip(&profiles[i % self.num_classes]) {
                    let bit = (stream.next_u64() >> 40) < on;
                    let flipped = (stream.next_u64() >> 40) < flip; // label-independent flip noise
                    *slot = f32::from(u8::from(bit ^ flipped));
                }
            },
        )
    }

    /// Draws the rows of a generator whose rows take a fixed number of
    /// draws, then shuffles them, as a serial walk over `rng` would — each
    /// row drawn straight into its shuffled place, on the pool.
    ///
    /// `skip(stream, rows)` moves a stream past `rows` rows, and
    /// `fill(row, i, stream)` draws row `i` from a stream at its first
    /// draw. Each parallel part advances a copy of `rng` to its first row;
    /// `rng` itself is advanced past the last row and then draws the
    /// shuffle.
    fn shuffled_rows(
        &self,
        rng: &mut Rng,
        skip: impl Fn(&mut Rng, usize) + Sync,
        fill: impl Fn(&mut [f32], usize, &mut Rng) + Sync,
    ) -> Result<Dataset> {
        let (n, flen) = (self.num_samples, self.modality.feature_len());
        let start = rng.clone();
        skip(rng, n);
        let perm = rng.permutation(n);
        let mut data = vec![0.0f32; n * flen];
        // Shuffled row `r` is row `perm[r]`: order the slots by their row.
        let mut slots: Vec<(usize, &mut [f32])> =
            perm.iter().copied().zip(data.chunks_exact_mut(flen)).collect();
        slots.sort_unstable_by_key(|&(i, _)| i);
        par::for_each_part_mut(&mut slots, 1, min_rows(flen), |first, part| {
            let mut stream = start.clone();
            skip(&mut stream, first);
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

/// Elements a parallel part must fill before the generators fan out.
const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Fewest rows of `flen` features per parallel part.
fn min_rows(flen: usize) -> usize {
    (PAR_MIN_ELEMS / flen).max(1)
}

/// One prototype-plus-noise row: element `j` is `proto[(j + shift) % flen]`
/// plus `noise` times the next scalar normal of `rng` — `flen` normals,
/// whatever the shift.
fn noisy_row(row: &mut [f32], proto: &[f32], shift: usize, noise: f32, rng: &mut Rng) {
    let rotated = proto[shift..].iter().chain(&proto[..shift]);
    for (slot, &p) in row.iter_mut().zip(rotated) {
        *slot = p + noise * rng.normal();
    }
}

/// Moves `rng` past `count` scalar normals: the state `count` calls of
/// [`Rng::normal`] leave. A call returns the cached half-sample if there is
/// one; otherwise it draws a Box–Muller pair (two raw outputs) and caches
/// the pair's second half.
fn skip_normals(rng: &mut Rng, count: usize) {
    if count == 0 {
        return;
    }
    let mut state = rng.state();
    let fresh = count - usize::from(state.gauss_cache.take().is_some());
    *rng = Rng::from_state(state);
    rng.advance(2 * (fresh / 2) as u64);
    if fresh % 2 == 1 {
        rng.normal();
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
                rng.uniform_in(1.0, 24.0),                       // frequency (cycles per window)
                rng.uniform_in(0.0, std::f32::consts::TAU),      // phase
                rng.uniform_in(0.5, 1.0),                        // amplitude
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
