//! Performance model (the GSOP/s series of Fig. 5b).

use serde::{Deserialize, Serialize};
use sne_sim::{CycleStats, SneConfig};

/// Peak and achieved throughput of an SNE instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerformanceModel;

impl PerformanceModel {
    /// Creates the performance model.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Peak throughput in GSOP/s: one state update per cluster per cycle
    /// (51.2 GSOP/s for the 8-slice instance at 400 MHz).
    #[must_use]
    pub fn peak_gsops(&self, config: &SneConfig) -> f64 {
        config.peak_gsops()
    }

    /// Throughput achieved by a measured run, in GSOP/s.
    #[must_use]
    pub fn achieved_gsops(&self, config: &SneConfig, stats: &CycleStats) -> f64 {
        stats.achieved_gsops(config.clock_mhz)
    }

    /// Time to consume one input event, in nanoseconds (120 ns at 400 MHz).
    #[must_use]
    pub fn event_latency_ns(&self, config: &SneConfig) -> f64 {
        config.event_consumption_ns()
    }

    /// Inference duration in milliseconds for a measured run.
    #[must_use]
    pub fn inference_time_ms(&self, config: &SneConfig, stats: &CycleStats) -> f64 {
        stats.duration_ms(config.clock_mhz)
    }

    /// Sustainable inference rate (inferences per second) for a measured run.
    #[must_use]
    pub fn inference_rate(&self, config: &SneConfig, stats: &CycleStats) -> f64 {
        let ms = self.inference_time_ms(config, stats);
        if ms <= 0.0 {
            0.0
        } else {
            1_000.0 / ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_fig5b_series() {
        let model = PerformanceModel::new();
        let expected = [(1usize, 6.4), (2, 12.8), (4, 25.6), (8, 51.2)];
        for (slices, gsops) in expected {
            assert!((model.peak_gsops(&SneConfig::with_slices(slices)) - gsops).abs() < 1e-9);
        }
    }

    #[test]
    fn event_latency_is_120ns() {
        let model = PerformanceModel::new();
        assert!((model.event_latency_ns(&SneConfig::default()) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn inference_rate_inverts_inference_time() {
        let model = PerformanceModel::new();
        let config = SneConfig::default();
        // 7.1 ms at 400 MHz = 2.84e6 cycles -> ~141 inf/s.
        let stats = CycleStats {
            total_cycles: 2_840_000,
            ..CycleStats::default()
        };
        let ms = model.inference_time_ms(&config, &stats);
        assert!((ms - 7.1).abs() < 0.01);
        assert!((model.inference_rate(&config, &stats) - 140.8).abs() < 1.0);
        let zero = CycleStats::default();
        assert_eq!(model.inference_rate(&config, &zero), 0.0);
    }
}
