//! Disjoint per-client data partitioning.
//!
//! The paper divides each training pool into disjoint splits per FL client
//! (§5.3) and studies non-IID distributions produced by a Dirichlet(α) prior
//! over per-class client shares (§5.8): lower α → spikier class distributions
//! → more heterogeneous clients; α → ∞ recovers the IID case.

use crate::{DataError, Dataset, Result};
use dinar_tensor::Rng;

/// How to distribute class mass across clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Independent and identically distributed shards (the paper's α = ∞).
    Iid,
    /// Dirichlet non-IID with symmetric concentration α (the paper uses
    /// α ∈ {0.8, 2, 5}).
    Dirichlet(f64),
}

/// Splits sample indices into `clients` disjoint shards.
///
/// For [`Distribution::Iid`], a random permutation is dealt round-robin. For
/// [`Distribution::Dirichlet`], each class's samples are divided according to
/// a fresh Dirichlet draw over clients, so client class histograms become
/// increasingly skewed as α decreases.
///
/// Every client is guaranteed at least one sample (shards are topped up from
/// the largest shard if a Dirichlet draw starves one).
///
/// # Errors
///
/// Returns [`DataError::InvalidSplit`] if `clients == 0`, there are fewer
/// samples than clients, or α is not positive, and
/// [`DataError::LabelOutOfRange`] for a label `≥ num_classes`.
pub fn partition_indices(
    labels: &[usize],
    num_classes: usize,
    clients: usize,
    distribution: Distribution,
    rng: &mut Rng,
) -> Result<Vec<Vec<usize>>> {
    if clients == 0 {
        return Err(DataError::InvalidSplit {
            reason: "cannot partition across zero clients".into(),
        });
    }
    if labels.len() < clients {
        return Err(DataError::InvalidSplit {
            reason: format!("{} samples cannot cover {clients} clients", labels.len()),
        });
    }
    if let Some(&label) = labels.iter().find(|&&l| l >= num_classes) {
        return Err(DataError::LabelOutOfRange {
            label,
            classes: num_classes,
        });
    }
    if let Distribution::Dirichlet(alpha) = distribution {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(DataError::InvalidSplit {
                reason: format!("dirichlet alpha {alpha} must be positive and finite"),
            });
        }
    }

    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); clients];
    match distribution {
        Distribution::Iid => {
            let perm = rng.permutation(labels.len());
            for (pos, idx) in perm.into_iter().enumerate() {
                shards[pos % clients].push(idx);
            }
        }
        Distribution::Dirichlet(alpha) => {
            for class in 0..num_classes {
                let mut members: Vec<usize> = labels
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                rng.shuffle(&mut members);
                let shares = rng.dirichlet(alpha, clients);
                // Convert shares to cumulative cut points over this class.
                let n = members.len();
                let mut start = 0usize;
                let mut acc = 0.0f64;
                for (c, &share) in shares.iter().enumerate() {
                    acc += share;
                    let end = if c + 1 == clients {
                        n
                    } else {
                        (acc * n as f64).round() as usize
                    }
                    .clamp(start, n);
                    shards[c].extend_from_slice(&members[start..end]);
                    start = end;
                }
            }
        }
    }

    // Guarantee non-empty shards: move a sample from the largest shard (the
    // last one on ties). Every sample was placed and there are at least
    // `clients` of them, so while a shard is empty the largest holds two.
    while let Some(empty) = shards.iter().position(Vec::is_empty) {
        let largest = (1..clients).fold(0, |best, i| {
            if shards[i].len() >= shards[best].len() {
                i
            } else {
                best
            }
        });
        let moved = shards[largest]
            .pop()
            .ok_or_else(|| DataError::InvalidSplit {
                reason: "no sample left to top up an empty shard".into(),
            })?;
        shards[empty].push(moved);
    }
    Ok(shards)
}

/// Partitions a dataset into per-client datasets.
///
/// # Errors
///
/// Same conditions as [`partition_indices`].
pub fn partition_dataset(
    dataset: &Dataset,
    clients: usize,
    distribution: Distribution,
    rng: &mut Rng,
) -> Result<Vec<Dataset>> {
    let shards = partition_indices(
        dataset.labels(),
        dataset.num_classes(),
        clients,
        distribution,
        rng,
    )?;
    shards.iter().map(|s| dataset.subset(s)).collect()
}

/// Measures partition heterogeneity: the mean total-variation distance
/// between each client's class distribution and the global one, in `[0, 1]`.
///
/// IID partitions score near 0; single-class clients score near 1. Used to
/// verify that lower Dirichlet α produces more non-IID shards (Fig. 8).
pub fn heterogeneity(shards: &[Vec<usize>], labels: &[usize], num_classes: usize) -> f64 {
    if shards.is_empty() || labels.is_empty() {
        return 0.0;
    }
    let mut global = vec![0.0f64; num_classes];
    for &l in labels {
        global[l] += 1.0;
    }
    let total: f64 = global.iter().sum();
    for g in &mut global {
        *g /= total;
    }
    let mut sum_tv = 0.0;
    for shard in shards {
        let mut local = vec![0.0f64; num_classes];
        for &i in shard {
            local[labels[i]] += 1.0;
        }
        let n: f64 = local.iter().sum();
        if n == 0.0 {
            continue;
        }
        let tv: f64 = local
            .iter()
            .zip(&global)
            .map(|(l, g)| (l / n - g).abs())
            .sum::<f64>()
            / 2.0;
        sum_tv += tv;
    }
    sum_tv / shards.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    #[test]
    fn iid_shards_are_disjoint_and_exhaustive() {
        let l = labels(103, 5);
        let mut rng = Rng::seed_from(0);
        let shards = partition_indices(&l, 5, 4, Distribution::Iid, &mut rng).unwrap();
        assert_eq!(shards.len(), 4);
        let mut all: Vec<usize> = shards.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn iid_shards_are_balanced() {
        let l = labels(100, 5);
        let mut rng = Rng::seed_from(1);
        let shards = partition_indices(&l, 5, 4, Distribution::Iid, &mut rng).unwrap();
        assert!(shards.iter().all(|s| s.len() == 25));
    }

    #[test]
    fn dirichlet_preserves_every_sample() {
        let l = labels(200, 10);
        let mut rng = Rng::seed_from(2);
        let shards =
            partition_indices(&l, 10, 5, Distribution::Dirichlet(0.5), &mut rng).unwrap();
        let mut all: Vec<usize> = shards.concat();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn lower_alpha_is_more_heterogeneous() {
        let l = labels(2000, 10);
        let mut rng = Rng::seed_from(3);
        let het = |alpha: f64, rng: &mut Rng| {
            let shards =
                partition_indices(&l, 10, 5, Distribution::Dirichlet(alpha), rng).unwrap();
            heterogeneity(&shards, &l, 10)
        };
        let spiky = het(0.1, &mut rng);
        let mild = het(5.0, &mut rng);
        let iid_shards = partition_indices(&l, 10, 5, Distribution::Iid, &mut rng).unwrap();
        let iid = heterogeneity(&iid_shards, &l, 10);
        assert!(
            spiky > mild && mild > iid,
            "expected monotone heterogeneity: {spiky} > {mild} > {iid}"
        );
        // IID heterogeneity is only sampling noise (hypergeometric), well
        // below any Dirichlet skew.
        assert!(iid < 0.1);
    }

    #[test]
    fn invalid_requests_rejected() {
        let l = labels(10, 2);
        let mut rng = Rng::seed_from(4);
        assert!(partition_indices(&l, 2, 0, Distribution::Iid, &mut rng).is_err());
        assert!(partition_indices(&l, 2, 11, Distribution::Iid, &mut rng).is_err());
        assert!(partition_indices(&l, 2, 2, Distribution::Dirichlet(0.0), &mut rng).is_err());
        assert!(
            partition_indices(&l, 2, 2, Distribution::Dirichlet(f64::INFINITY), &mut rng)
                .is_err()
        );
    }

    #[test]
    fn out_of_range_labels_are_rejected() {
        let mut rng = Rng::seed_from(6);
        // One stray label among placeable ones: the Dirichlet walk used to
        // drop it and return 3 of 4 samples.
        for distribution in [Distribution::Dirichlet(1.0), Distribution::Iid] {
            assert_eq!(
                partition_indices(&[0, 0, 0, 7], 1, 2, distribution, &mut rng),
                Err(DataError::LabelOutOfRange { label: 7, classes: 1 })
            );
        }
        // Nothing placeable: the top-up used to panic on an empty shard.
        assert_eq!(
            partition_indices(&[3, 4], 2, 2, Distribution::Dirichlet(1.0), &mut rng),
            Err(DataError::LabelOutOfRange { label: 3, classes: 2 })
        );
    }

    #[test]
    fn partition_dataset_round_trips() {
        use dinar_tensor::Tensor;
        let features = Tensor::from_fn(&[20, 3], |i| i as f32);
        let ds = crate::Dataset::new(features, labels(20, 4), &[3], 4).unwrap();
        let mut rng = Rng::seed_from(5);
        let parts = partition_dataset(&ds, 4, Distribution::Iid, &mut rng).unwrap();
        assert_eq!(parts.iter().map(crate::Dataset::len).sum::<usize>(), 20);
        assert!(parts.iter().all(|p| p.num_classes() == 4));
    }
}
