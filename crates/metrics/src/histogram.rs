//! Histograms and Jensen–Shannon divergence.
//!
//! The paper's layer-sensitivity analysis (§3, §4.1) computes "the
//! Jensen–Shannon divergence between the gradients of each layer resulting
//! from the predictions of member data samples and non-member data samples".
//! We realize that as the JS divergence between *histograms* of the two
//! gradient populations over a shared binning.

/// A fixed-width histogram over a closed range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi]`. Out-of-range samples clamp into the edge bins, so no
    /// probability mass is lost.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi}]"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram spanning the joint range of two sample sets — the
    /// shared binning required for a meaningful divergence between them.
    ///
    /// Non-finite samples are ignored. If all samples are equal, the range is
    /// widened by ±1 so the histogram stays valid.
    pub fn joint_pair(a: &[f32], b: &[f32], bins: usize) -> (Histogram, Histogram) {
        let finite = a.iter().chain(b).copied().filter(|x| x.is_finite());
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for x in finite {
            lo = lo.min(x as f64);
            hi = hi.max(x as f64);
        }
        if !lo.is_finite() || !hi.is_finite() {
            (lo, hi) = (-1.0, 1.0);
        }
        if lo >= hi {
            lo -= 1.0;
            hi += 1.0;
        }
        let mut ha = Histogram::new(lo, hi, bins);
        let mut hb = Histogram::new(lo, hi, bins);
        ha.extend(a.iter().copied());
        hb.extend(b.iter().copied());
        (ha, hb)
    }

    /// Adds one sample (non-finite samples are ignored).
    pub fn add(&mut self, x: f32) {
        if !x.is_finite() {
            return;
        }
        let bins = self.counts.len();
        let t = ((x as f64 - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let idx = (t as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized bin probabilities (all zeros if the histogram is empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Jensen–Shannon divergence between two discrete distributions, in nats.
///
/// `JS(P, Q) = ½ KL(P ‖ M) + ½ KL(Q ‖ M)` with `M = ½(P + Q)`. Bounded by
/// `ln 2 ≈ 0.693`; 0 iff the distributions match. Inputs are normalized
/// defensively.
///
/// # Panics
///
/// Panics if the slices have different lengths or both are all-zero.
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share support");
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    assert!(sp > 0.0 && sq > 0.0, "distributions must have mass");
    let mut js = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let pi = pi / sp;
        let qi = qi / sq;
        let mi = 0.5 * (pi + qi);
        if pi > 0.0 {
            js += 0.5 * pi * (pi / mi).ln();
        }
        if qi > 0.0 {
            js += 0.5 * qi * (qi / mi).ln();
        }
    }
    js.max(0.0)
}

/// JS divergence between the histograms of two sample populations over a
/// shared `bins`-bin range — the §3 generalization-gap measure.
pub fn js_divergence_samples(a: &[f32], b: &[f32], bins: usize) -> f64 {
    let (ha, hb) = Histogram::joint_pair(a, b, bins);
    if ha.total() == 0 || hb.total() == 0 {
        return 0.0;
    }
    js_divergence(&ha.probabilities(), &hb.probabilities())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 9.99, -5.0, 50.0, f32::NAN]);
        assert_eq!(h.total(), 5); // NaN ignored
        assert_eq!(h.counts()[0], 2); // 0.5 and clamped -5.0
        assert_eq!(h.counts()[9], 2); // 9.99 and clamped 50.0
        assert_eq!(h.counts()[1], 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 7);
        h.extend((0..100).map(|i| (i as f32 / 50.0) - 1.0));
        let p: f64 = h.probabilities().iter().sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn js_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert!(js_divergence(&p, &p) < 1e-15);
    }

    #[test]
    fn js_disjoint_is_ln2() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((js_divergence(&p, &q) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn js_is_symmetric() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.3, 0.6];
        assert!((js_divergence(&p, &q) - js_divergence(&q, &p)).abs() < 1e-15);
    }

    #[test]
    fn js_normalizes_unnormalized_input() {
        let p = [7.0, 2.0, 1.0];
        let q = [0.7, 0.2, 0.1];
        assert!(js_divergence(&p, &q) < 1e-15);
    }

    #[test]
    fn sample_js_detects_distribution_shift() {
        let mut rng = dinar_tensor::Rng::seed_from(0);
        let a: Vec<f32> = (0..5000).map(|_| rng.normal()).collect();
        let same: Vec<f32> = (0..5000).map(|_| rng.normal()).collect();
        let shifted: Vec<f32> = (0..5000).map(|_| rng.normal_with(2.0, 1.0)).collect();
        let near = js_divergence_samples(&a, &same, 40);
        let far = js_divergence_samples(&a, &shifted, 40);
        assert!(near < 0.02, "near={near}");
        assert!(far > 0.2, "far={far}");
    }

    #[test]
    fn joint_pair_handles_constant_samples() {
        let (ha, hb) = Histogram::joint_pair(&[1.0; 5], &[1.0; 3], 4);
        assert_eq!(ha.total(), 5);
        assert_eq!(hb.total(), 3);
        assert!(js_divergence(&ha.probabilities(), &hb.probabilities()) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "share support")]
    fn js_mismatched_lengths_panic() {
        js_divergence(&[1.0], &[0.5, 0.5]);
    }
}
