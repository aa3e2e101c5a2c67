//! Dense layers and activations with manual backpropagation.

use crate::matrix::Matrix;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// 1 / (1 + e^{-x})
    Sigmoid,
    /// tanh(x)
    Tanh,
    /// x (no non-linearity — used for the output layer before the loss)
    Identity,
}

impl Activation {
    /// Apply the activation in place.
    pub fn forward(self, m: &mut Matrix) {
        match self {
            Activation::Relu => m.map_inplace(|x| if x > 0.0 { x } else { 0.0 }),
            Activation::Sigmoid => m.map_inplace(sigmoid),
            Activation::Tanh => m.map_inplace(|x| x.tanh()),
            Activation::Identity => {}
        }
    }

    /// Multiply `grad` by the activation derivative evaluated at the
    /// *post-activation* values `out` (all four activations here admit a
    /// derivative expressed in terms of their output).
    pub fn backward(self, grad: &mut Matrix, out: &Matrix) {
        match self {
            Activation::Relu => {
                // A select, not a branch: about half the lanes are dead
                // in no predictable pattern.
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(out.as_slice()) {
                    *g = if o <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Sigmoid => {
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(out.as_slice()) {
                    *g *= o * (1.0 - o);
                }
            }
            Activation::Tanh => {
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(out.as_slice()) {
                    *g *= 1.0 - o * o;
                }
            }
            Activation::Identity => {}
        }
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A fully connected layer `y = act(x W + b)`.
///
/// The layer holds no activations: [`Dense::forward_into`] writes into a
/// caller-owned buffer, and [`Dense::backward`] takes the forward pass's
/// input and output back, so one training scratch serves every step.
/// Weight gradients are written into `grad_w` / `grad_b` and consumed by
/// an optimiser.
#[derive(Debug, Clone)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f32>,
    pub act: Activation,
    pub grad_w: Matrix,
    pub grad_b: Vec<f32>,
}

impl Dense {
    /// New layer with Xavier-initialised weights and zero bias.
    pub fn new(input_dim: usize, output_dim: usize, act: Activation, rng: &mut SplitMix64) -> Self {
        Self {
            w: Matrix::xavier(input_dim, output_dim, rng),
            b: vec![0.0; output_dim],
            act,
            grad_w: Matrix::zeros(input_dim, output_dim),
            grad_b: vec![0.0; output_dim],
        }
    }

    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass for a batch (rows = samples) into `out` (resized,
    /// allocation reused).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
        self.act.forward(out);
    }

    /// Backward pass for the batch whose forward pass read `x` and wrote
    /// `y`. On entry `grad` holds ∂L/∂y; it is turned into ∂L/∂z in
    /// place. `grad_w` / `grad_b` are overwritten with this batch's
    /// gradients, and ∂L/∂x is written into `dx` when one is given —
    /// the input layer passes `None`, since nothing consumes it.
    pub fn backward(&mut self, x: &Matrix, y: &Matrix, grad: &mut Matrix, dx: Option<&mut Matrix>) {
        self.act.backward(grad, y);
        // dW = xᵀ (dL/dz); db = column sums of dL/dz; dx = (dL/dz) Wᵀ
        x.matmul_at_into(grad, &mut self.grad_w);
        grad.col_sums_into(&mut self.grad_b);
        if let Some(dx) = dx {
            grad.matmul_bt_into(&self.w, dx);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-5);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0) < 1e-6);
    }

    #[test]
    fn relu_forward_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        Activation::Relu.forward(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        Activation::Relu.backward(&mut g, &m);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    /// Finite-difference check of the dense-layer gradients: the
    /// analytic ∂L/∂W and ∂L/∂x from backprop must match
    /// (L(v+h) − L(v−h)) / 2h for a scalar loss L = Σ y².
    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut rng = SplitMix64::new(42);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let mut x = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.8, -0.4]);
        let loss = |layer: &Dense, x: &Matrix| {
            let mut y = Matrix::default();
            layer.forward_into(x, &mut y);
            y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };

        // Analytic gradient of L = sum(y^2): dL/dy = 2y.
        let mut y = Matrix::default();
        layer.forward_into(&x, &mut y);
        let mut grad = Matrix::from_fn(2, 2, |r, c| 2.0 * y.get(r, c));
        let mut dx = Matrix::default();
        layer.backward(&x, &y, &mut grad, Some(&mut dx));

        let h = 1e-3_f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + h);
                let lp = loss(&layer, &x);
                layer.w.set(r, c, orig - h);
                let lm = loss(&layer, &x);
                layer.w.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * h);
                let analytic = layer.grad_w.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "grad_w mismatch at ({r},{c}): numeric {numeric}, analytic {analytic}"
                );
            }
        }
        for r in 0..2 {
            for c in 0..3 {
                let orig = x.get(r, c);
                x.set(r, c, orig + h);
                let lp = loss(&layer, &x);
                x.set(r, c, orig - h);
                let lm = loss(&layer, &x);
                x.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * h);
                let analytic = dx.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "dx mismatch at ({r},{c}): numeric {numeric}, analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = SplitMix64::new(1);
        let layer = Dense::new(10, 5, Activation::Relu, &mut rng);
        assert_eq!(layer.param_count(), 55);
    }
}
