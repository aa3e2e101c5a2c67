//! In-memory dataset container with deterministic shuffling, splits, and
//! mini-batching.

use crate::matrix::Matrix;
use crate::rng::{shuffle, SplitMix64};

/// A supervised dataset: row-major features plus one scalar target per row.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    targets: Vec<f32>,
}

impl Dataset {
    /// Build from row slices. All rows must share the same width.
    pub fn from_rows(rows: &[Vec<f32>], targets: &[f32]) -> Self {
        assert_eq!(rows.len(), targets.len(), "row/target count mismatch");
        assert!(!rows.is_empty(), "empty dataset");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged feature rows");
            data.extend_from_slice(row);
        }
        Self {
            features: Matrix::from_vec(rows.len(), cols, data),
            targets: targets.to_vec(),
        }
    }

    /// Build from an already-assembled matrix.
    pub fn from_matrix(features: Matrix, targets: Vec<f32>) -> Self {
        assert_eq!(features.rows(), targets.len(), "row/target count mismatch");
        Self { features, targets }
    }

    pub fn len(&self) -> usize {
        self.targets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    pub fn features(&self) -> &Matrix {
        &self.features
    }

    pub fn targets(&self) -> &[f32] {
        &self.targets
    }

    pub fn row(&self, i: usize) -> &[f32] {
        self.features.row(i)
    }

    /// Fraction of positive (`> 0.5`) targets — class balance diagnostics.
    pub fn positive_rate(&self) -> f64 {
        if self.targets.is_empty() {
            return 0.0;
        }
        self.targets.iter().filter(|&&t| t > 0.5).count() as f64 / self.targets.len() as f64
    }

    /// Deterministic split into `(train, held_out)` where `held_out` gets
    /// `frac` of the rows. Rows are shuffled first so splits are
    /// class-mixed; the shuffle order depends only on `seed`.
    pub fn split(&self, frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&frac), "frac must be in [0,1)");
        let mut idx = Vec::new();
        self.shuffled_indices_into(seed, &mut idx);
        let n_held = ((self.len() as f64) * frac).round() as usize;
        let (held_idx, train_idx) = idx.split_at(n_held);
        (self.subset(train_idx), self.subset(held_idx))
    }

    /// Materialise a subset of rows.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut features = Matrix::default();
        let mut targets = Vec::new();
        self.gather_into(indices, &mut features, &mut targets);
        Dataset { features, targets }
    }

    /// The row indices `0..len` in a deterministic shuffled order that
    /// depends only on `seed`, written into `order` (allocation reused).
    /// Training walks one such order per epoch in mini-batch chunks.
    pub fn shuffled_indices_into(&self, seed: u64, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        shuffle(order, &mut SplitMix64::new(seed));
    }

    /// Copy the rows `indices` (features and targets, in that order)
    /// into `features` / `targets`, reusing their allocations — how a
    /// mini-batch is gathered without materialising a [`Dataset`].
    pub fn gather_into(&self, indices: &[usize], features: &mut Matrix, targets: &mut Vec<f32>) {
        features.resize_for_overwrite(indices.len(), self.dim());
        for (r, &i) in indices.iter().enumerate() {
            features.row_mut(r).copy_from_slice(self.features.row(i));
        }
        targets.clear();
        targets.extend(indices.iter().map(|&i| self.targets[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn split_partitions_all_rows() {
        let ds = toy(100);
        let (train, cal) = ds.split(0.25, 7);
        assert_eq!(train.len() + cal.len(), 100);
        assert_eq!(cal.len(), 25);
        assert_eq!(train.dim(), 2);
    }

    #[test]
    fn split_is_deterministic() {
        let ds = toy(50);
        let (a1, b1) = ds.split(0.2, 9);
        let (a2, b2) = ds.split(0.2, 9);
        assert_eq!(a1.targets(), a2.targets());
        assert_eq!(b1.features().as_slice(), b2.features().as_slice());
    }

    #[test]
    fn split_differs_across_seeds() {
        let ds = toy(50);
        let (_, b1) = ds.split(0.2, 1);
        let (_, b2) = ds.split(0.2, 2);
        assert_ne!(b1.features().as_slice(), b2.features().as_slice());
    }

    #[test]
    fn batches_cover_dataset_once() {
        let ds = toy(23);
        let mut order = Vec::new();
        ds.shuffled_indices_into(3, &mut order);
        let (mut features, mut targets) = (Matrix::default(), Vec::new());
        let mut batches = 0;
        let mut firsts = Vec::new();
        for chunk in order.chunks(5) {
            ds.gather_into(chunk, &mut features, &mut targets);
            assert_eq!(features.rows(), targets.len());
            batches += 1;
            for (r, &i) in chunk.iter().enumerate() {
                assert_eq!(features.row(r), ds.row(i));
                assert_eq!(targets[r], ds.targets()[i]);
                firsts.push(features.get(r, 0));
            }
        }
        assert_eq!(batches, 5); // 4 full + 1 short
        assert_eq!(targets.len(), 3);
        // Every feature row must appear exactly once.
        firsts.sort_by(f32::total_cmp);
        let expect: Vec<f32> = (0..23).map(|i| i as f32).collect();
        assert_eq!(firsts, expect);
        // The order depends only on the seed.
        let mut again = Vec::new();
        ds.shuffled_indices_into(3, &mut again);
        assert_eq!(order, again);
    }

    #[test]
    fn positive_rate() {
        let ds = toy(10);
        assert!((ds.positive_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Dataset::from_rows(&[vec![1.0], vec![1.0, 2.0]], &[0.0, 1.0]);
    }
}
