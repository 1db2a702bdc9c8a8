//! Stochastic gradient descent with momentum.

use serde::{Deserialize, Serialize};

/// Plain SGD with classical momentum over a flat parameter vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdOptimizer {
    learning_rate: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl SgdOptimizer {
    /// Creates an optimizer for `parameter_count` parameters.
    #[must_use]
    pub fn new(learning_rate: f32, momentum: f32, parameter_count: usize) -> Self {
        Self {
            learning_rate,
            momentum,
            velocity: vec![0.0; parameter_count],
        }
    }

    /// Applies one update step: `v = m*v + g; w -= lr * v`.
    ///
    /// # Panics
    ///
    /// Panics if `parameters` and `gradients` do not have the length the
    /// optimizer was created with.
    pub fn step(&mut self, parameters: &mut [f32], gradients: &[f32]) {
        assert_eq!(
            parameters.len(),
            self.velocity.len(),
            "parameter count mismatch"
        );
        assert_eq!(
            gradients.len(),
            self.velocity.len(),
            "gradient count mismatch"
        );
        for ((w, &g), v) in parameters
            .iter_mut()
            .zip(gradients)
            .zip(self.velocity.iter_mut())
        {
            *v = self.momentum * *v + g;
            *w -= self.learning_rate * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_parameters_against_the_gradient() {
        let mut opt = SgdOptimizer::new(0.1, 0.0, 2);
        let mut params = vec![1.0, -1.0];
        opt.step(&mut params, &[1.0, -1.0]);
        assert!(params[0] < 1.0);
        assert!(params[1] > -1.0);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut with_momentum = SgdOptimizer::new(0.1, 0.9, 1);
        let mut params_momentum = vec![0.0];
        let mut without = SgdOptimizer::new(0.1, 0.0, 1);
        let mut params_plain = vec![0.0];
        for _ in 0..5 {
            with_momentum.step(&mut params_momentum, &[1.0]);
            without.step(&mut params_plain, &[1.0]);
        }
        assert!(params_momentum[0] < params_plain[0]);
    }

    #[test]
    fn converges_on_a_quadratic() {
        // Minimize f(w) = (w - 3)^2 with gradient 2(w - 3).
        let mut opt = SgdOptimizer::new(0.1, 0.5, 1);
        let mut params = vec![0.0f32];
        for _ in 0..100 {
            let grad = 2.0 * (params[0] - 3.0);
            opt.step(&mut params, &[grad]);
        }
        assert!((params[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = SgdOptimizer::new(0.1, 0.0, 2);
        let mut params = vec![0.0];
        opt.step(&mut params, &[0.0]);
    }
}
