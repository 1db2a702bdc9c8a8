//! Engine configuration.

use serde::{Deserialize, Serialize};

use crate::SimError;

/// Architectural parameters of an SNE instance.
///
/// The defaults reproduce the configuration evaluated in the paper:
/// 8 slices × 16 clusters × 64 TDM neurons (8192 neurons, Table II), 4-bit
/// weights, 8-bit state, a 16-word streamer FIFO, 48 cycles to consume one
/// input event and a 400 MHz clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SneConfig {
    /// Number of slices (the paper sweeps 1, 2, 4 and 8).
    pub num_slices: usize,
    /// Clusters per slice (16 in the paper).
    pub clusters_per_slice: usize,
    /// Time-division-multiplexed neurons per cluster (64 in the paper).
    pub neurons_per_cluster: usize,
    /// Synaptic weight width in bits (4 in the paper).
    pub weight_bits: u8,
    /// Membrane state width in bits (8 in the paper).
    pub state_bits: u8,
    /// Capacity of the per-slice filter/weight buffer in weight sets (256).
    pub weight_buffer_sets: usize,
    /// Depth of the streamer (DMA) event FIFO in words (16).
    pub streamer_fifo_depth: usize,
    /// Depth of the per-cluster output event FIFO in events.
    pub cluster_fifo_depth: usize,
    /// Number of streamer (DMA) engines.
    pub num_streamers: usize,
    /// Clock cycles needed to consume one input event (48 in the paper).
    pub cycles_per_event: u32,
    /// Clock frequency in MHz (400 in the paper).
    pub clock_mhz: f64,
    /// Memory read latency in cycles seen by the streamers.
    pub memory_latency: u32,
    /// Enables the time-of-last-update (TLU) skip of idle timesteps.
    pub tlu_enabled: bool,
    /// Enables clock gating of clusters that are not addressed by an event.
    pub clock_gating: bool,
    /// Enables the broadcast mode of the crossbar (an op is delivered to
    /// every slice in one transfer instead of one per slice).
    pub broadcast: bool,
    /// Enables the double-buffered state memory (one state update per cycle;
    /// disabling it models a single-ported memory needing two cycles).
    pub double_buffered_state: bool,
}

impl Default for SneConfig {
    fn default() -> Self {
        Self {
            num_slices: 8,
            clusters_per_slice: 16,
            neurons_per_cluster: 64,
            weight_bits: 4,
            state_bits: 8,
            weight_buffer_sets: 256,
            streamer_fifo_depth: 16,
            cluster_fifo_depth: 8,
            num_streamers: 2,
            cycles_per_event: 48,
            clock_mhz: 400.0,
            memory_latency: 4,
            tlu_enabled: true,
            clock_gating: true,
            broadcast: true,
            double_buffered_state: true,
        }
    }
}

impl SneConfig {
    /// Configuration with a given number of slices and paper defaults for
    /// everything else (used by the Fig. 4/5 sweeps).
    #[must_use]
    pub fn with_slices(num_slices: usize) -> Self {
        Self {
            num_slices,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any parameter is zero or
    /// inconsistent (e.g. state narrower than a weight).
    pub fn validate(&self) -> Result<(), SimError> {
        fn require(cond: bool, name: &'static str, reason: &str) -> Result<(), SimError> {
            if cond {
                Ok(())
            } else {
                Err(SimError::InvalidConfig {
                    name,
                    reason: reason.to_owned(),
                })
            }
        }
        require(self.num_slices > 0, "num_slices", "must be non-zero")?;
        require(
            self.clusters_per_slice > 0,
            "clusters_per_slice",
            "must be non-zero",
        )?;
        require(
            self.neurons_per_cluster > 0,
            "neurons_per_cluster",
            "must be non-zero",
        )?;
        require(
            self.weight_bits > 0 && self.weight_bits <= 8,
            "weight_bits",
            "must be in 1..=8",
        )?;
        require(
            self.state_bits >= self.weight_bits && self.state_bits <= 32,
            "state_bits",
            "must be at least as wide as a weight and at most 32",
        )?;
        require(
            self.weight_buffer_sets > 0,
            "weight_buffer_sets",
            "must be non-zero",
        )?;
        require(
            self.streamer_fifo_depth > 0,
            "streamer_fifo_depth",
            "must be non-zero",
        )?;
        require(
            self.cluster_fifo_depth > 0,
            "cluster_fifo_depth",
            "must be non-zero",
        )?;
        require(self.num_streamers > 0, "num_streamers", "must be non-zero")?;
        require(
            self.cycles_per_event > 0,
            "cycles_per_event",
            "must be non-zero",
        )?;
        require(self.clock_mhz > 0.0, "clock_mhz", "must be positive")?;
        Ok(())
    }

    /// Neurons provided by one slice.
    #[must_use]
    pub fn neurons_per_slice(&self) -> usize {
        self.clusters_per_slice * self.neurons_per_cluster
    }

    /// Total neurons of the engine (8192 for the default 8-slice instance).
    #[must_use]
    pub fn total_neurons(&self) -> usize {
        self.num_slices * self.neurons_per_slice()
    }

    /// Clock period in nanoseconds.
    #[must_use]
    pub fn clock_period_ns(&self) -> f64 {
        1_000.0 / self.clock_mhz
    }

    /// Time to consume one input event in nanoseconds (120 ns at the paper's
    /// operating point: 48 cycles at 400 MHz).
    #[must_use]
    pub fn event_consumption_ns(&self) -> f64 {
        f64::from(self.cycles_per_event) * self.clock_period_ns()
    }

    /// Peak synaptic-operation throughput in GSOP/s: every cluster performs
    /// one state update per cycle (51.2 GSOP/s for the default instance).
    #[must_use]
    pub fn peak_gsops(&self) -> f64 {
        self.num_slices as f64 * self.clusters_per_slice as f64 * self.clock_mhz / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_instance() {
        let c = SneConfig::default();
        assert_eq!(c.num_slices, 8);
        assert_eq!(c.clusters_per_slice, 16);
        assert_eq!(c.neurons_per_cluster, 64);
        assert_eq!(c.total_neurons(), 8192);
        assert_eq!(c.weight_bits, 4);
        assert_eq!(c.state_bits, 8);
        assert_eq!(c.cycles_per_event, 48);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn peak_throughput_is_51_2_gsops() {
        let c = SneConfig::default();
        assert!((c.peak_gsops() - 51.2).abs() < 1e-9);
        assert!((SneConfig::with_slices(1).peak_gsops() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn event_consumption_is_120ns() {
        let c = SneConfig::default();
        assert!((c.event_consumption_ns() - 120.0).abs() < 1e-9);
        assert!((c.clock_period_ns() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SneConfig {
            num_slices: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            clusters_per_slice: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            neurons_per_cluster: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            weight_bits: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            weight_bits: 9,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            state_bits: 2,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            cycles_per_event: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            clock_mhz: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            num_streamers: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            weight_buffer_sets: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            streamer_fifo_depth: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SneConfig {
            cluster_fifo_depth: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn slice_sweep_configs_are_valid() {
        for slices in [1, 2, 4, 8] {
            assert!(SneConfig::with_slices(slices).validate().is_ok());
        }
    }
}
