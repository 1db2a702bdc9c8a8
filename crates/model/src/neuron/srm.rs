//! Spike-response-model (SRM) baseline neuron.
//!
//! The paper trains its baseline networks with the default SLAYER spike
//! response model (Gerstner's SRM), whose membrane is the convolution of the
//! input spike train with an exponentially decaying kernel. This
//! implementation uses the standard first-order approximation: the membrane
//! decays by a multiplicative factor `exp(-1/τ)` per timestep instead of the
//! SNE's linear (subtractive) leak, and the synaptic current is low-pass
//! filtered with its own time constant. It is a floating-point model; it is
//! used only as the accuracy baseline, never on the accelerator.

use serde::{Deserialize, Serialize};

use super::Neuron;

/// Parameters of the SRM baseline neuron.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SrmParams {
    /// Membrane time constant in timesteps (`τ_mem`).
    pub tau_membrane: f32,
    /// Synaptic current time constant in timesteps (`τ_syn`).
    pub tau_synapse: f32,
    /// Firing threshold.
    pub threshold: f32,
    /// Refractory membrane drop applied after a spike (subtractive reset).
    pub refractory_drop: f32,
}

impl Default for SrmParams {
    fn default() -> Self {
        Self {
            tau_membrane: 10.0,
            tau_synapse: 5.0,
            threshold: 16.0,
            refractory_drop: 16.0,
        }
    }
}

impl SrmParams {
    /// Per-timestep membrane decay factor `exp(-1/τ_mem)`.
    #[must_use]
    pub fn membrane_decay(&self) -> f32 {
        (-1.0 / self.tau_membrane.max(f32::EPSILON)).exp()
    }

    /// Per-timestep synaptic decay factor `exp(-1/τ_syn)`.
    #[must_use]
    pub fn synapse_decay(&self) -> f32 {
        (-1.0 / self.tau_synapse.max(f32::EPSILON)).exp()
    }
}

/// An SRM neuron with exponential membrane and synaptic kernels.
///
/// # Example
///
/// ```
/// use sne_model::neuron::{Neuron, SrmNeuron, SrmParams};
///
/// let mut n = SrmNeuron::new(SrmParams { threshold: 5.0, ..SrmParams::default() });
/// n.integrate(10);
/// assert!(n.fire_and_reset());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SrmNeuron {
    params: SrmParams,
    membrane: f32,
    synaptic_current: f32,
}

impl SrmNeuron {
    /// Creates a neuron at rest.
    #[must_use]
    pub fn new(params: SrmParams) -> Self {
        Self {
            params,
            membrane: 0.0,
            synaptic_current: 0.0,
        }
    }

    /// The neuron's parameters.
    #[must_use]
    pub fn params(&self) -> SrmParams {
        self.params
    }
}

impl Neuron for SrmNeuron {
    fn integrate(&mut self, weight: i32) {
        self.synaptic_current += weight as f32;
    }

    fn fire_and_reset(&mut self) -> bool {
        // Exponential kernels: current feeds the membrane, both decay.
        self.membrane = self.membrane * self.params.membrane_decay() + self.synaptic_current;
        self.synaptic_current *= self.params.synapse_decay();
        if self.membrane >= self.params.threshold {
            self.membrane -= self.params.refractory_drop;
            true
        } else {
            false
        }
    }

    fn reset(&mut self) {
        self.membrane = 0.0;
        self.synaptic_current = 0.0;
    }

    fn membrane(&self) -> f32 {
        self.membrane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membrane_decays_exponentially() {
        let params = SrmParams {
            threshold: 1000.0,
            ..SrmParams::default()
        };
        let mut n = SrmNeuron::new(params);
        n.integrate(100);
        // Let the synaptic current fade, then the membrane must decay
        // monotonically toward rest.
        for _ in 0..30 {
            let _ = n.fire_and_reset();
        }
        let v1 = n.membrane();
        let _ = n.fire_and_reset();
        let v2 = n.membrane();
        assert!(v1 > 0.0);
        assert!(v2 < v1);
        for _ in 0..100 {
            let _ = n.fire_and_reset();
        }
        assert!(n.membrane() < 1.0);
    }

    #[test]
    fn fires_above_threshold_with_subtractive_reset() {
        let params = SrmParams {
            threshold: 5.0,
            refractory_drop: 5.0,
            ..SrmParams::default()
        };
        let mut n = SrmNeuron::new(params);
        n.integrate(20);
        assert!(n.fire_and_reset());
        // Subtractive reset keeps the remainder above zero.
        assert!(n.membrane() > 0.0);
    }

    #[test]
    fn reset_returns_to_rest() {
        let mut n = SrmNeuron::new(SrmParams::default());
        n.integrate(50);
        let _ = n.fire_and_reset();
        n.reset();
        assert_eq!(n.membrane(), 0.0);
        assert_eq!(n.synaptic_current, 0.0);
    }

    #[test]
    fn decay_factors_are_in_unit_interval() {
        let p = SrmParams::default();
        assert!(p.membrane_decay() > 0.0 && p.membrane_decay() < 1.0);
        assert!(p.synapse_decay() > 0.0 && p.synapse_decay() < 1.0);
        // Shorter time constant decays faster.
        assert!(p.synapse_decay() < p.membrane_decay());
    }

    #[test]
    fn no_input_means_no_spike() {
        let mut n = SrmNeuron::new(SrmParams::default());
        for _ in 0..100 {
            assert!(!n.fire_and_reset());
        }
    }
}
