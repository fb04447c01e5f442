//! ROC curves and attack AUC.
//!
//! The attack AUC (Appendix A of the paper) is the probability that the
//! attacker's score ranks a random member above a random non-member, i.e.
//! the Mann–Whitney U statistic normalized to `[0, 1]`. It integrates over
//! every possible decision threshold, which is why the paper prefers it to
//! accuracy at a single threshold.

/// Computes the AUC of a scoring attacker.
///
/// `member_scores` are the attack scores of true members, `nonmember_scores`
/// those of true non-members; higher scores must mean "more likely member".
/// Ties contribute ½. Returns a value in `[0, 1]`; an uninformative attacker
/// scores 0.5.
///
/// Runs in `O((m + n) log(m + n))` via rank summation.
///
/// # Panics
///
/// Panics if either slice is empty or contains NaN.
pub fn attack_auc(member_scores: &[f32], nonmember_scores: &[f32]) -> f64 {
    assert!(
        !member_scores.is_empty() && !nonmember_scores.is_empty(),
        "attack_auc requires non-empty score sets"
    );
    assert!(
        member_scores
            .iter()
            .chain(nonmember_scores)
            .all(|s| !s.is_nan()),
        "attack_auc scores must not be NaN"
    );
    // Pool scores, sort, assign mid-ranks to ties, sum member ranks.
    let m = member_scores.len();
    let n = nonmember_scores.len();
    let mut pooled: Vec<(f32, bool)> = member_scores
        .iter()
        .map(|&s| (s, true))
        .chain(nonmember_scores.iter().map(|&s| (s, false)))
        .collect();
    pooled.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut rank_sum_members = 0.0f64;
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i;
        while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        // Ranks i+1 ..= j+1 share the mid-rank.
        let mid_rank = (i + 1 + j + 1) as f64 / 2.0;
        for item in &pooled[i..=j] {
            if item.1 {
                rank_sum_members += mid_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_members - (m as f64 * (m as f64 + 1.0)) / 2.0;
    u / (m as f64 * n as f64)
}

/// A point on the ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate.
    pub fpr: f64,
    /// True-positive rate.
    pub tpr: f64,
    /// The threshold producing this point.
    pub threshold: f32,
}

/// Full ROC curve (for plots and threshold selection).
///
/// # Panics
///
/// Same conditions as [`attack_auc`].
pub fn roc_curve(member_scores: &[f32], nonmember_scores: &[f32]) -> Vec<RocPoint> {
    assert!(
        !member_scores.is_empty() && !nonmember_scores.is_empty(),
        "roc_curve requires non-empty score sets"
    );
    let mut pooled: Vec<(f32, bool)> = member_scores
        .iter()
        .map(|&s| (s, true))
        .chain(nonmember_scores.iter().map(|&s| (s, false)))
        .collect();
    // Descending scores: lowering the threshold adds points.
    pooled.sort_by(|a, b| b.0.total_cmp(&a.0));
    let m = member_scores.len() as f64;
    let n = nonmember_scores.len() as f64;
    let mut curve = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f32::INFINITY,
    }];
    let (mut tp, mut fp) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < pooled.len() {
        let threshold = pooled[i].0;
        while i < pooled.len() && pooled[i].0 == threshold {
            if pooled[i].1 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        curve.push(RocPoint {
            fpr: fp / n,
            tpr: tp / m,
            threshold,
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_one() {
        let auc = attack_auc(&[0.9, 0.8, 0.7], &[0.3, 0.2, 0.1]);
        assert!((auc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_separation_gives_zero() {
        let auc = attack_auc(&[0.1, 0.2], &[0.8, 0.9]);
        assert!(auc.abs() < 1e-12);
    }

    #[test]
    fn identical_scores_give_half() {
        let auc = attack_auc(&[0.5; 10], &[0.5; 7]);
        assert!((auc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_scores_near_half() {
        let mut rng = dinar_tensor::Rng::seed_from(0);
        let members: Vec<f32> = (0..2000).map(|_| rng.uniform()).collect();
        let nonmembers: Vec<f32> = (0..2000).map(|_| rng.uniform()).collect();
        let auc = attack_auc(&members, &nonmembers);
        assert!((auc - 0.5).abs() < 0.03, "auc={auc}");
    }

    #[test]
    fn auc_matches_brute_force_with_ties() {
        let members = [0.3f32, 0.5, 0.5, 0.9];
        let nonmembers = [0.1f32, 0.5, 0.7];
        let mut wins = 0.0f64;
        for &a in &members {
            for &b in &nonmembers {
                if a > b {
                    wins += 1.0;
                } else if a == b {
                    wins += 0.5;
                }
            }
        }
        let brute = wins / (members.len() * nonmembers.len()) as f64;
        let fast = attack_auc(&members, &nonmembers);
        assert!((brute - fast).abs() < 1e-12, "brute={brute} fast={fast}");
    }

    #[test]
    fn roc_curve_is_monotone_and_anchored() {
        let members = [0.9f32, 0.6, 0.55, 0.3];
        let nonmembers = [0.7f32, 0.4, 0.2, 0.1];
        let curve = roc_curve(&members, &nonmembers);
        assert_eq!(curve.first().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        let last = curve.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for pair in curve.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_scores_panic() {
        attack_auc(&[], &[0.5]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_panic() {
        attack_auc(&[f32::NAN], &[0.5]);
    }
}
