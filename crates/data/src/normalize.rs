//! Classical data preprocessing (§4.1 of the paper: raw data "prepared
//! following classical data preprocessing techniques" before training).
//!
//! [`Standardizer`] implements the fit-on-train / apply-everywhere protocol:
//! per-feature mean/variance are estimated on the training split only, then
//! frozen, so no test-set statistics leak into training — and, in the FL
//! setting, each client fits on its own shard (its statistics are part of
//! its private state).

use crate::{DataError, Dataset, Result};
use dinar_tensor::Tensor;

/// Per-feature standardization: `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-feature statistics on a dataset's flat feature matrix.
    ///
    /// Features with (near-)zero variance get `std = 1` so constant columns
    /// pass through centred instead of exploding.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] for an empty dataset.
    pub fn fit(dataset: &Dataset) -> Result<Self> {
        if dataset.is_empty() {
            return Err(DataError::InvalidSpec {
                reason: "cannot fit a standardizer on an empty dataset".into(),
            });
        }
        let n = dataset.len();
        let d = dataset.feature_len();
        let x = dataset.features().as_slice();
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for j in 0..d {
                mean[j] += x[i * d + j] as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; d];
        for i in 0..n {
            for j in 0..d {
                let diff = x[i * d + j] as f64 - mean[j];
                var[j] += diff * diff;
            }
        }
        let std = var
            .iter()
            .map(|&v| {
                let s = (v / n as f64).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Ok(Standardizer {
            mean: mean.into_iter().map(|m| m as f32).collect(),
            std,
        })
    }

    /// Number of features this standardizer was fitted on.
    pub fn num_features(&self) -> usize {
        self.mean.len()
    }

    /// Applies the frozen statistics, returning a standardized copy.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the dataset's feature count
    /// differs from the fitted one.
    pub fn transform(&self, dataset: &Dataset) -> Result<Dataset> {
        let d = dataset.feature_len();
        if d != self.mean.len() {
            return Err(DataError::InvalidSpec {
                reason: format!(
                    "standardizer fitted on {} features, dataset has {d}",
                    self.mean.len()
                ),
            });
        }
        let n = dataset.len();
        let x = dataset.features().as_slice();
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            for j in 0..d {
                out[i * d + j] = (x[i * d + j] - self.mean[j]) / self.std[j];
            }
        }
        Dataset::new(
            Tensor::from_vec(out, &[n, d])?,
            dataset.labels().to_vec(),
            dataset.sample_shape(),
            dataset.num_classes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    fn skewed_dataset(n: usize) -> Dataset {
        let mut rng = Rng::seed_from(0);
        let features = Tensor::from_fn(&[n, 3], |i| match i % 3 {
            0 => rng.normal_with(100.0, 5.0), // large offset
            1 => rng.normal_with(0.0, 0.01),  // tiny scale
            _ => 7.0,                         // constant column
        });
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(features, labels, &[3], 2).unwrap()
    }

    #[test]
    fn transform_centres_and_scales() {
        let train = skewed_dataset(500);
        let standardizer = Standardizer::fit(&train).unwrap();
        let out = standardizer.transform(&train).unwrap();
        let x = out.features().as_slice();
        for j in 0..2 {
            let vals: Vec<f32> = (0..500).map(|i| x[i * 3 + j]).collect();
            let mean = vals.iter().sum::<f32>() / 500.0;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 500.0;
            assert!(mean.abs() < 1e-3, "feature {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "feature {j} var {var}");
        }
    }

    #[test]
    fn constant_columns_centre_without_exploding() {
        let train = skewed_dataset(100);
        let standardizer = Standardizer::fit(&train).unwrap();
        let out = standardizer.transform(&train).unwrap();
        let x = out.features().as_slice();
        for i in 0..100 {
            assert!(x[i * 3 + 2].abs() < 1e-5); // (7 - 7) / 1
        }
    }

    #[test]
    fn statistics_are_frozen_after_fit() {
        let train = skewed_dataset(200);
        let standardizer = Standardizer::fit(&train).unwrap();
        // A shifted "test" set must be transformed with the TRAIN stats.
        let mut rng = Rng::seed_from(1);
        let shifted = Dataset::new(
            Tensor::from_fn(&[50, 3], |_| rng.normal_with(200.0, 5.0)),
            (0..50).map(|i| i % 2).collect(),
            &[3],
            2,
        )
        .unwrap();
        let out = standardizer.transform(&shifted).unwrap();
        // Feature 0 was centred at 100: the shifted data lands around +20 std.
        let mean0: f32 = (0..50)
            .map(|i| out.features().as_slice()[i * 3])
            .sum::<f32>()
            / 50.0;
        assert!(mean0 > 10.0, "test mean {mean0} should reflect train stats");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let train = skewed_dataset(50);
        let standardizer = Standardizer::fit(&train).unwrap();
        let other = Dataset::new(Tensor::zeros(&[4, 2]), vec![0, 1, 0, 1], &[2], 2).unwrap();
        assert!(standardizer.transform(&other).is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        let empty = Dataset::new(Tensor::zeros(&[0, 3]), vec![], &[3], 2).unwrap();
        assert!(matches!(
            Standardizer::fit(&empty),
            Err(DataError::InvalidSpec { .. })
        ));
    }
}
