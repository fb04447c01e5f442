//! Confusion matrices and per-class accuracy.
//!
//! The paper reports overall accuracy; per-class views matter in the
//! non-IID experiments (Fig. 8), where skewed client shards produce models
//! that are accurate only on their majority classes.

/// A `classes × classes` confusion matrix (`rows = truth`, `cols =
/// prediction`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or contain out-of-range labels.
    pub fn from_pairs(truth: &[usize], predicted: &[usize], classes: usize) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut m = ConfusionMatrix::new(classes);
        for (&t, &p) in truth.iter().zip(predicted) {
            m.record(t, p);
        }
        m
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "label out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count at `(truth, predicted)`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 if empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Per-class recall (`None` for classes with no observations).
    pub fn per_class_recall(&self) -> Vec<Option<f64>> {
        (0..self.classes)
            .map(|c| {
                let row: u64 = (0..self.classes).map(|p| self.count(c, p)).sum();
                (row > 0).then(|| self.count(c, c) as f64 / row as f64)
            })
            .collect()
    }

    /// Balanced accuracy: the mean recall over classes that appear.
    pub fn balanced_accuracy(&self) -> f64 {
        let recalls: Vec<f64> = self.per_class_recall().into_iter().flatten().collect();
        if recalls.is_empty() {
            0.0
        } else {
            recalls.iter().sum::<f64>() / recalls.len() as f64
        }
    }

    /// Merges another matrix into this one (e.g. across FL clients).
    ///
    /// # Panics
    ///
    /// Panics if class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.classes, other.classes, "class count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_recall() {
        // truth:     0 0 1 1 1 2
        // predicted: 0 1 1 1 0 2
        let m = ConfusionMatrix::from_pairs(&[0, 0, 1, 1, 1, 2], &[0, 1, 1, 1, 0, 2], 3);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        let recalls = m.per_class_recall();
        assert_eq!(recalls[0], Some(0.5));
        assert_eq!(recalls[1], Some(2.0 / 3.0));
        assert_eq!(recalls[2], Some(1.0));
        let balanced = (0.5 + 2.0 / 3.0 + 1.0) / 3.0;
        assert!((m.balanced_accuracy() - balanced).abs() < 1e-12);
    }

    #[test]
    fn unseen_classes_are_none_and_excluded() {
        let m = ConfusionMatrix::from_pairs(&[0, 0], &[0, 0], 3);
        assert_eq!(m.per_class_recall(), vec![Some(1.0), None, None]);
        assert!((m.balanced_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfusionMatrix::from_pairs(&[0], &[0], 2);
        let b = ConfusionMatrix::from_pairs(&[1], &[0], 2);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.count(1, 0), 1);
        assert!((a.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.balanced_accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        ConfusionMatrix::new(2).record(0, 2);
    }
}
