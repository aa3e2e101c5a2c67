//! Optimisers: SGD with momentum and Adam.
//!
//! Both operate on flat `(weights, grads)` slices so the same code path
//! serves matrices and bias vectors.

use serde::{Deserialize, Serialize};

/// Optimiser selection + hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum OptimKind {
    /// Stochastic gradient descent with momentum (0.0 = vanilla SGD).
    Sgd { momentum: f32 },
    /// Adam (Kingma & Ba 2015) with the usual β₁/β₂/ε defaults.
    Adam { beta1: f32, beta2: f32, eps: f32 },
}

impl Default for OptimKind {
    fn default() -> Self {
        OptimKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Per-parameter-tensor optimiser state.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimKind,
    lr: f32,
    weight_decay: f32,
    /// First-moment (momentum) buffer.
    m: Vec<f32>,
    /// Second-moment buffer (Adam only).
    v: Vec<f32>,
    /// Step counter for Adam bias correction.
    t: u64,
}

impl Optimizer {
    /// Create optimiser state for a parameter tensor of `len` scalars.
    pub fn new(kind: OptimKind, lr: f32, weight_decay: f32, len: usize) -> Self {
        let v_len = match kind {
            OptimKind::Sgd { .. } => 0,
            OptimKind::Adam { .. } => len,
        };
        Self {
            kind,
            lr,
            weight_decay,
            m: vec![0.0; len],
            v: vec![0.0; v_len],
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Apply one update step: `params -= update(grads)`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        assert_eq!(
            params.len(),
            self.m.len(),
            "optimizer state length mismatch"
        );
        self.t += 1;
        match self.kind {
            OptimKind::Sgd { momentum } => {
                for i in 0..params.len() {
                    let g = grads[i] + self.weight_decay * params[i];
                    self.m[i] = momentum * self.m[i] + g;
                    params[i] -= self.lr * self.m[i];
                }
            }
            OptimKind::Adam { beta1, beta2, eps } => {
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                for i in 0..params.len() {
                    let g = grads[i] + self.weight_decay * params[i];
                    self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
                    self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
                    let m_hat = self.m[i] / bc1;
                    let v_hat = self.v[i] / bc2;
                    params[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x-3)² with each optimiser; both must converge.
    fn run(kind: OptimKind, lr: f32, steps: usize) -> f32 {
        let mut x = vec![0.0_f32];
        let mut opt = Optimizer::new(kind, lr, 0.0, 1);
        for _ in 0..steps {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = run(OptimKind::Sgd { momentum: 0.0 }, 0.1, 200);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let x = run(OptimKind::Sgd { momentum: 0.9 }, 0.02, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run(OptimKind::default(), 0.1, 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn weight_decay_shrinks_toward_zero() {
        // Pure decay: zero task gradient, nonzero weight decay.
        let mut x = vec![5.0_f32];
        let mut opt = Optimizer::new(OptimKind::Sgd { momentum: 0.0 }, 0.1, 0.5, 1);
        for _ in 0..100 {
            opt.step(&mut x, &[0.0]);
        }
        assert!(x[0].abs() < 0.1, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Optimizer::new(OptimKind::default(), 0.1, 0.0, 2);
        let mut p = vec![0.0; 2];
        opt.step(&mut p, &[0.0]);
    }
}
