//! Results of running an inference on the accelerator.

use serde::{Deserialize, Serialize};
use sne_energy::{EnergyModel, EnergyReport, PerformanceModel};
use sne_sim::{CycleStats, SneConfig};

/// Execution record of one accelerated layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerExecution {
    /// Layer description (e.g. `conv 2x32,3x3`).
    pub description: String,
    /// Cycle statistics of the layer run.
    pub stats: CycleStats,
    /// Input events consumed by the layer.
    pub input_events: u64,
    /// Output events produced by the layer.
    pub output_events: u64,
    /// Output activity of the layer (output events per neuron per timestep).
    pub output_activity: f64,
}

/// Result of one end-to-end inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// Class with the highest output spike count.
    pub predicted_class: usize,
    /// Output spike counts per class.
    pub output_spike_counts: Vec<u32>,
    /// Aggregated cycle statistics across all accelerated layers.
    pub stats: CycleStats,
    /// Per-layer execution records.
    pub layers: Vec<LayerExecution>,
    /// Energy report of the whole inference.
    pub energy: EnergyReport,
    /// Inference duration in milliseconds.
    pub inference_time_ms: f64,
    /// Sustainable inference rate in inferences per second.
    pub inference_rate: f64,
    /// Mean output activity across accelerated layers (the "network
    /// activity" the paper relates to the 1.2 %–4.9 % DVS-Gesture range).
    pub mean_activity: f64,
}

impl InferenceResult {
    /// Attaches the energy and performance models to a finished run's cycle
    /// statistics on an engine with configuration `config` — the single
    /// formula every entry point uses to build a result. The predicted class
    /// has the most output spikes (lowest class index on ties, matching the
    /// accelerator's priority encoder).
    pub(crate) fn from_run(
        config: &SneConfig,
        stats: CycleStats,
        output_spike_counts: Vec<u32>,
        layers: Vec<LayerExecution>,
        mean_activity: f64,
    ) -> Self {
        let predicted_class = output_spike_counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map_or(0, |(i, _)| i);
        let performance = PerformanceModel::new();
        Self {
            predicted_class,
            output_spike_counts,
            energy: EnergyModel::new().report(config, &stats),
            inference_time_ms: performance.inference_time_ms(config, &stats),
            inference_rate: performance.inference_rate(config, &stats),
            stats,
            layers,
            mean_activity,
        }
    }

    /// Total number of input events consumed by the first layer.
    #[must_use]
    pub fn input_events(&self) -> u64 {
        self.layers.first().map_or(0, |l| l.input_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_read_the_first_layer_and_energy() {
        let result = InferenceResult {
            predicted_class: 2,
            output_spike_counts: vec![0, 1, 5],
            stats: CycleStats::default(),
            layers: vec![LayerExecution {
                description: "conv".into(),
                stats: CycleStats::default(),
                input_events: 42,
                output_events: 7,
                output_activity: 0.01,
            }],
            energy: EnergyReport {
                energy_uj: 80.0,
                ..EnergyReport::default()
            },
            inference_time_ms: 7.1,
            inference_rate: 140.8,
            mean_activity: 0.02,
        };
        assert_eq!(result.input_events(), 42);
    }

    #[test]
    fn empty_result_has_zero_input_events() {
        let result = InferenceResult {
            predicted_class: 0,
            output_spike_counts: Vec::new(),
            stats: CycleStats::default(),
            layers: Vec::new(),
            energy: EnergyReport::default(),
            inference_time_ms: 0.0,
            inference_rate: 0.0,
            mean_activity: 0.0,
        };
        assert_eq!(result.input_events(), 0);
    }
}
