//! Multi-layer perceptron binary classifier.
//!
//! The paper's branching-point predictors are "two-layer perceptron (MLP)
//! classifier\[s\]" over hidden-state vectors (§3.1). [`Mlp`] generalises
//! that slightly (any number of hidden layers) because the ablation
//! benches compare probe depths, but the default configuration is exactly
//! the paper's: one ReLU hidden layer plus a sigmoid output.

use crate::data::Dataset;
use crate::layer::{Activation, Dense};
use crate::loss::bce_with_grad;
use crate::matrix::Matrix;
use crate::optim::{OptimKind, Optimizer};
use crate::rng::SplitMix64;

/// Training/shape configuration for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    pub input_dim: usize,
    /// Hidden layer widths; `vec![32]` gives the paper's 2-layer probe.
    pub hidden_dims: Vec<usize>,
    pub lr: f32,
    pub epochs: usize,
    pub batch_size: usize,
    /// Weight applied to positive-class loss (branching points are rare).
    pub pos_weight: f32,
    pub weight_decay: f32,
    pub optimizer: OptimKind,
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            input_dim: 0,
            hidden_dims: vec![32],
            lr: 1e-3,
            epochs: 30,
            batch_size: 64,
            pos_weight: 1.0,
            weight_decay: 1e-5,
            optimizer: OptimKind::default(),
            seed: 0,
        }
    }
}

/// A feed-forward binary classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    config: MlpConfig,
    /// Mean training loss per epoch, recorded by [`Mlp::fit`].
    pub loss_history: Vec<f32>,
}

/// Reusable activation buffers for [`Mlp::predict_proba_batch_into`].
/// One scratch can be shared across models and batch sizes; buffers
/// grow to the largest batch seen and are then reused.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    a: Matrix,
    b: Matrix,
}

impl Mlp {
    /// Construct with Xavier-initialised weights (deterministic in seed).
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be set");
        let mut rng = SplitMix64::new(config.seed ^ 0x4D4C_5000);
        let mut layers = Vec::with_capacity(config.hidden_dims.len() + 1);
        let mut prev = config.input_dim;
        for &h in &config.hidden_dims {
            layers.push(Dense::new(prev, h, Activation::Relu, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, 1, Activation::Sigmoid, &mut rng));
        Self {
            layers,
            config,
            loss_history: Vec::new(),
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Train on `data` with mini-batch gradient descent. Returns the final
    /// epoch's mean loss. Calling `fit` again continues training.
    ///
    /// Each epoch walks the rows in a seeded shuffled order, in chunks
    /// of `batch_size` (the last may be short). One set of buffers —
    /// the gathered batch, one activation matrix per layer and a
    /// gradient ping-pong pair — is reused by every step, so the loop
    /// allocates nothing after the first batch.
    pub fn fit(&mut self, data: &Dataset) -> f32 {
        assert_eq!(data.dim(), self.config.input_dim, "dataset dim mismatch");
        assert!(self.config.batch_size > 0, "batch_size must be positive");
        let mut optims: Vec<(Optimizer, Optimizer)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    Optimizer::new(
                        self.config.optimizer,
                        self.config.lr,
                        self.config.weight_decay,
                        l.w.rows() * l.w.cols(),
                    ),
                    Optimizer::new(self.config.optimizer, self.config.lr, 0.0, l.b.len()),
                )
            })
            .collect();

        let mut order = Vec::with_capacity(data.len());
        let mut bx = Matrix::default();
        let mut by = Vec::new();
        let mut acts = vec![Matrix::default(); self.layers.len()];
        let (mut grad, mut grad_next) = (Matrix::default(), Matrix::default());
        let mut last_loss = f32::INFINITY;
        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0;
            let mut n_batches = 0;
            let batch_seed = self
                .config
                .seed
                .wrapping_add(epoch as u64)
                .wrapping_mul(0x9E37);
            data.shuffled_indices_into(batch_seed, &mut order);
            for chunk in order.chunks(self.config.batch_size) {
                data.gather_into(chunk, &mut bx, &mut by);
                for l in 0..self.layers.len() {
                    let (done, rest) = acts.split_at_mut(l);
                    let input = done.last().unwrap_or(&bx);
                    self.layers[l].forward_into(input, &mut rest[0]);
                }
                let probs = acts.last().expect("the output layer");
                grad.resize_for_overwrite(probs.rows(), 1);
                epoch_loss += bce_with_grad(probs, &by, self.config.pos_weight, &mut grad);
                n_batches += 1;
                for l in (0..self.layers.len()).rev() {
                    let input = if l == 0 { &bx } else { &acts[l - 1] };
                    let dx = (l > 0).then_some(&mut grad_next);
                    self.layers[l].backward(input, &acts[l], &mut grad, dx);
                    std::mem::swap(&mut grad, &mut grad_next);
                }
                for (layer, (ow, ob)) in self.layers.iter_mut().zip(optims.iter_mut()) {
                    ow.step(layer.w.as_mut_slice(), layer.grad_w.as_slice());
                    ob.step(&mut layer.b, &layer.grad_b);
                }
            }
            last_loss = epoch_loss / n_batches.max(1) as f32;
            self.loss_history.push(last_loss);
        }
        last_loss
    }

    /// Probability that `x` belongs to the positive class.
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.config.input_dim, "input dim mismatch");
        let xs = Matrix::from_vec(1, x.len(), x.to_vec());
        let mut scratch = MlpScratch::default();
        self.forward_scratch(&xs, &mut scratch);
        scratch.a.get(0, 0)
    }

    /// Batched probabilities.
    pub fn predict_proba_batch(&self, xs: &Matrix) -> Vec<f32> {
        let mut scratch = MlpScratch::default();
        let mut out = Vec::new();
        self.predict_proba_batch_into(xs, &mut scratch, &mut out);
        out
    }

    /// Batched probabilities with caller-owned scratch: after the first
    /// call no allocation happens on this path (buffers are reused even
    /// when the batch size changes), which is what the monitored-
    /// generation hot loop needs. Arithmetic is identical to
    /// [`Mlp::predict_proba`] row by row.
    pub fn predict_proba_batch_into(
        &self,
        xs: &Matrix,
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(xs.cols(), self.config.input_dim, "input dim mismatch");
        self.forward_scratch(xs, scratch);
        out.clear();
        out.extend((0..scratch.a.rows()).map(|r| scratch.a.get(r, 0)));
    }

    /// Inference forward pass leaving the output in `scratch.a`. Each
    /// layer writes into `b`, then the buffers swap (a pointer swap —
    /// no copy, no allocation).
    fn forward_scratch(&self, xs: &Matrix, scratch: &mut MlpScratch) {
        for (l, layer) in self.layers.iter().enumerate() {
            let input = if l == 0 { xs } else { &scratch.a };
            layer.forward_into(input, &mut scratch.b);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
    }

    /// Hard 0/1 prediction at threshold 0.5.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;

    fn linearly_separable(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x0 = rng.next_gaussian() as f32;
            let x1 = rng.next_gaussian() as f32;
            let y = if x0 + x1 > 0.0 { 1.0 } else { 0.0 };
            rows.push(vec![x0, x1]);
            ys.push(y);
        }
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn learns_linear_boundary() {
        let ds = linearly_separable(400, 3);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            hidden_dims: vec![8],
            epochs: 60,
            lr: 0.01,
            seed: 5,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        let test = linearly_separable(200, 99);
        let scores: Vec<f64> = (0..test.len())
            .map(|i| mlp.predict_proba(test.row(i)) as f64)
            .collect();
        let labels: Vec<bool> = test.targets().iter().map(|&t| t > 0.5).collect();
        let a = auc(&scores, &labels);
        assert!(a > 0.97, "AUC {a}");
    }

    #[test]
    fn learns_xor() {
        let xs = vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]];
        let ys = vec![0.0, 1.0, 1.0, 0.0];
        let ds = Dataset::from_rows(&xs, &ys);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            hidden_dims: vec![8],
            lr: 0.05,
            epochs: 800,
            batch_size: 4,
            seed: 7,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        assert!(mlp.predict(&[0., 1.]));
        assert!(mlp.predict(&[1., 0.]));
        assert!(!mlp.predict(&[0., 0.]));
        assert!(!mlp.predict(&[1., 1.]));
    }

    #[test]
    fn loss_decreases() {
        let ds = linearly_separable(300, 11);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            epochs: 40,
            lr: 0.01,
            seed: 1,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        let first = mlp.loss_history.first().copied().unwrap();
        let last = mlp.loss_history.last().copied().unwrap();
        assert!(
            last < first * 0.5,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let ds = linearly_separable(100, 2);
        let cfg = MlpConfig {
            input_dim: 2,
            epochs: 5,
            seed: 13,
            ..MlpConfig::default()
        };
        let mut a = Mlp::new(cfg.clone());
        let mut b = Mlp::new(cfg);
        a.fit(&ds);
        b.fit(&ds);
        assert_eq!(a.predict_proba(&[0.3, -0.2]), b.predict_proba(&[0.3, -0.2]));
    }

    #[test]
    fn batch_and_single_prediction_agree() {
        let ds = linearly_separable(50, 4);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            epochs: 3,
            seed: 21,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        let batch = mlp.predict_proba_batch(ds.features());
        for (i, &b) in batch.iter().enumerate() {
            assert!((b - mlp.predict_proba(ds.row(i))).abs() < 1e-6);
        }
    }

    #[test]
    fn scratch_forward_is_bit_identical_and_reusable() {
        let ds = linearly_separable(64, 8);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            hidden_dims: vec![16, 8],
            epochs: 4,
            seed: 2,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        let mut scratch = MlpScratch::default();
        let mut probs = Vec::new();
        // Reuse the same scratch across shrinking and growing batches.
        for take in [64usize, 5, 64, 1, 17] {
            let sub = ds.subset(&(0..take).collect::<Vec<_>>());
            mlp.predict_proba_batch_into(sub.features(), &mut scratch, &mut probs);
            assert_eq!(probs.len(), take);
            for (i, &p) in probs.iter().enumerate() {
                // Bit-identical to the per-row path.
                assert_eq!(p, mlp.predict_proba(sub.row(i)), "row {i} of batch {take}");
            }
        }
    }

    /// Golden pin of the training arithmetic: a probe-shaped 32→16→1
    /// MLP trained with Adam, a positive-class weight, weight decay and
    /// a short final batch (300 = 4·64 + 44 rows). Every weight, bias
    /// and per-epoch loss is hashed bit for bit, so any change to the
    /// order of floating-point operations on the training path fails
    /// here, long before it moves a committed result.
    #[test]
    fn training_is_bit_identical_to_golden() {
        let mut rng = SplitMix64::new(0x601D);
        let mut rows = Vec::with_capacity(300);
        let mut ys = Vec::with_capacity(300);
        for _ in 0..300 {
            let row: Vec<f32> = (0..32).map(|_| rng.next_gaussian() as f32).collect();
            let signal = row[0] + 0.5 * row[3] - 0.8 * row[17];
            ys.push(if signal > 0.9 { 1.0 } else { 0.0 });
            rows.push(row);
        }
        let ds = Dataset::from_rows(&rows, &ys);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 32,
            hidden_dims: vec![16],
            lr: 5e-3,
            epochs: 7,
            batch_size: 64,
            pos_weight: 3.5,
            weight_decay: 1e-4,
            seed: 0xBB90,
            ..MlpConfig::default()
        });
        mlp.fit(&ds);
        // FNV-1a over the bit patterns.
        let mut bits = Vec::new();
        let mut eat = |v: f32| bits.extend_from_slice(&v.to_bits().to_le_bytes());
        for layer in &mlp.layers {
            layer.w.as_slice().iter().for_each(|&v| eat(v));
            layer.b.iter().for_each(|&v| eat(v));
        }
        mlp.loss_history.iter().for_each(|&v| eat(v));
        let h = crate::rng::fnv1a(&bits);
        assert_eq!(
            h, 0x4fb1_973f_838d_7224,
            "training arithmetic changed: hash {h:#018x}"
        );
    }

    #[test]
    fn pos_weight_raises_recall_on_imbalanced_data() {
        // 5% positives with noisy boundary; weighted probe should catch
        // clearly more of them at threshold 0.5.
        let mut rng = SplitMix64::new(17);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..2000 {
            let pos = rng.next_bool(0.05);
            let centre = if pos { 0.8 } else { -0.2 };
            rows.push(vec![
                centre + 0.7 * rng.next_gaussian() as f32,
                centre + 0.7 * rng.next_gaussian() as f32,
            ]);
            ys.push(if pos { 1.0 } else { 0.0 });
        }
        let ds = Dataset::from_rows(&rows, &ys);
        let train = |w: f32| {
            let mut m = Mlp::new(MlpConfig {
                input_dim: 2,
                epochs: 25,
                lr: 0.005,
                pos_weight: w,
                seed: 3,
                ..MlpConfig::default()
            });
            m.fit(&ds);
            let mut tp = 0usize;
            let mut fn_ = 0usize;
            for i in 0..ds.len() {
                if ds.targets()[i] > 0.5 {
                    if m.predict(ds.row(i)) {
                        tp += 1;
                    } else {
                        fn_ += 1;
                    }
                }
            }
            tp as f64 / (tp + fn_) as f64
        };
        let recall_unweighted = train(1.0);
        let recall_weighted = train(10.0);
        assert!(
            recall_weighted > recall_unweighted + 0.1,
            "weighted {recall_weighted} vs unweighted {recall_unweighted}"
        );
    }
}
