//! Power model (Fig. 5a of the paper).
//!
//! The paper estimates power from post-synthesis switching activity at
//! 400 MHz, 0.8 V TT, for a benchmark layer in which input events cause a
//! neuron state update on every cluster of every slice while the layer emits
//! 5 % output activity. Dynamic power dominates. The model below is
//! calibrated on the published energy-per-SOP values of Fig. 5b (which,
//! multiplied by the peak SOP rate, give the Fig. 5a power): the dynamic
//! power scales with the fraction of active cluster-cycles, and the leakage
//! scales with the instance area.

use serde::{Deserialize, Serialize};
use sne_sim::{CycleStats, SneConfig};

use crate::area::AreaModel;
use crate::technology::TechnologyParams;

/// Published energy per synaptic operation (pJ/SOP) at full update activity
/// for 1, 2, 4 and 8 slices (Fig. 5b). The fixed streamer/controller power is
/// amortized over more parallel updates as slices are added, which is why the
/// energy per operation decreases slightly.
const ENERGY_PER_SOP_PJ: [(usize, f64); 4] = [(1, 0.232), (2, 0.228), (4, 0.225), (8, 0.221)];

/// Power decomposition in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Dynamic power of the cluster datapaths and state memories.
    pub dynamic_clusters: f64,
    /// Dynamic power of the shared infrastructure (streamers, crossbar,
    /// collector, configuration logic).
    pub dynamic_infrastructure: f64,
    /// Leakage power.
    pub leakage: f64,
}

impl PowerBreakdown {
    /// Total power in mW.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic_clusters + self.dynamic_infrastructure + self.leakage
    }

    /// Total dynamic power in mW.
    #[must_use]
    pub fn dynamic(&self) -> f64 {
        self.dynamic_clusters + self.dynamic_infrastructure
    }
}

/// The calibrated power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    technology: TechnologyParams,
    area: AreaModel,
    /// Fraction of the full-activity dynamic power drawn by the shared
    /// infrastructure (streamers, crossbar, sequencers) rather than the
    /// cluster datapaths.
    infrastructure_fraction: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            technology: TechnologyParams::default(),
            area: AreaModel::default(),
            infrastructure_fraction: 0.12,
        }
    }
}

impl PowerModel {
    /// Creates a power model with explicit technology parameters.
    #[must_use]
    pub fn new(technology: TechnologyParams) -> Self {
        Self {
            technology,
            area: AreaModel::new(technology),
            ..Self::default()
        }
    }

    /// Published (or interpolated) energy per SOP at full activity, in pJ.
    #[must_use]
    pub fn energy_per_sop_pj(&self, config: &SneConfig) -> f64 {
        if let Some(&(_, e)) = ENERGY_PER_SOP_PJ
            .iter()
            .find(|(s, _)| *s == config.num_slices)
        {
            return e;
        }
        // Fixed-plus-amortized model: E(s) = E_inf + K / s, fitted on the
        // 1- and 8-slice points.
        let (s1, e1) = (1.0, ENERGY_PER_SOP_PJ[0].1);
        let (s8, e8) = (8.0, ENERGY_PER_SOP_PJ[3].1);
        let k = (e1 - e8) / (1.0 / s1 - 1.0 / s8);
        let e_inf = e8 - k / s8;
        e_inf + k / config.num_slices as f64
    }

    /// Peak dynamic power in mW at full update activity (every cluster
    /// performing one state update per cycle).
    #[must_use]
    pub fn peak_dynamic_mw(&self, config: &SneConfig) -> f64 {
        // pJ/SOP × GSOP/s = mW.
        self.energy_per_sop_pj(config) * config.peak_gsops() - self.leakage_mw(config)
    }

    /// Leakage power in mW (scales with the synthesized area).
    #[must_use]
    pub fn leakage_mw(&self, config: &SneConfig) -> f64 {
        self.technology.leakage_mw(self.area.total_kge(config))
    }

    /// Total power at full update activity, in mW. For the 8-slice instance
    /// this is the 11.29 mW of Table II.
    #[must_use]
    pub fn peak_total_mw(&self, config: &SneConfig) -> f64 {
        self.energy_per_sop_pj(config) * config.peak_gsops()
    }

    /// Power breakdown at a given cluster activity (fraction of
    /// cluster-cycles that perform a state update, in `[0, 1]`).
    ///
    /// Clock-gated clusters draw no dynamic power; the shared infrastructure
    /// keeps toggling as long as the engine is processing events.
    #[must_use]
    pub fn breakdown_at_activity(&self, config: &SneConfig, activity: f64) -> PowerBreakdown {
        let activity = activity.clamp(0.0, 1.0);
        let dynamic_full = self.peak_dynamic_mw(config).max(0.0);
        let infrastructure = dynamic_full * self.infrastructure_fraction;
        let clusters_full = dynamic_full - infrastructure;
        PowerBreakdown {
            dynamic_clusters: clusters_full * activity,
            dynamic_infrastructure: infrastructure,
            leakage: self.leakage_mw(config),
        }
    }

    /// Power breakdown for a measured run: the cluster activity is taken from
    /// the simulator's activity counters.
    #[must_use]
    pub fn breakdown_for_run(&self, config: &SneConfig, stats: &CycleStats) -> PowerBreakdown {
        self.breakdown_at_activity(config, stats.cluster_utilization())
    }

    /// Average power of a run in mW.
    #[must_use]
    pub fn average_power_mw(&self, config: &SneConfig, stats: &CycleStats) -> f64 {
        self.breakdown_for_run(config, stats).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_slice_peak_power_matches_table_ii() {
        let model = PowerModel::default();
        let power = model.peak_total_mw(&SneConfig::with_slices(8));
        assert!(
            (power - 11.29).abs() < 0.05,
            "8-slice power {power} should be ~11.29 mW"
        );
    }

    #[test]
    fn power_scales_with_slices_like_fig5a() {
        let model = PowerModel::default();
        let powers: Vec<f64> = [1, 2, 4, 8]
            .iter()
            .map(|&s| model.peak_total_mw(&SneConfig::with_slices(s)))
            .collect();
        // Monotonically increasing, roughly ×2 per doubling.
        assert!(powers.windows(2).all(|w| w[1] > w[0]));
        assert!((powers[3] / powers[2] - 2.0).abs() < 0.2);
        assert!(powers[0] > 1.0 && powers[0] < 2.5);
    }

    #[test]
    fn dynamic_power_dominates_leakage() {
        let model = PowerModel::default();
        for slices in [1, 2, 4, 8] {
            let config = SneConfig::with_slices(slices);
            let breakdown = model.breakdown_at_activity(&config, 1.0);
            assert!(breakdown.dynamic() > 5.0 * breakdown.leakage);
        }
    }

    #[test]
    fn energy_per_sop_decreases_with_slices() {
        let model = PowerModel::default();
        let e1 = model.energy_per_sop_pj(&SneConfig::with_slices(1));
        let e8 = model.energy_per_sop_pj(&SneConfig::with_slices(8));
        assert!(e1 > e8);
        assert!((e8 - 0.221).abs() < 1e-9);
        // Interpolation stays between the calibration extremes.
        let e3 = model.energy_per_sop_pj(&SneConfig::with_slices(3));
        assert!(e3 < e1 && e3 > e8);
    }

    #[test]
    fn gated_clusters_save_power() {
        let model = PowerModel::default();
        let config = SneConfig::with_slices(8);
        let idle = model.breakdown_at_activity(&config, 0.1);
        let busy = model.breakdown_at_activity(&config, 1.0);
        assert!(idle.total() < busy.total());
        assert!(idle.total() > 0.0);
        // Out-of-range activity is clamped.
        let clamped = model.breakdown_at_activity(&config, 2.0);
        assert!((clamped.total() - busy.total()).abs() < 1e-12);
    }

    #[test]
    fn run_power_uses_measured_utilization() {
        let model = PowerModel::default();
        let config = SneConfig::with_slices(8);
        let stats = CycleStats {
            active_cluster_cycles: 50,
            gated_cluster_cycles: 50,
            ..CycleStats::default()
        };
        let expected = model.breakdown_at_activity(&config, 0.5).total();
        assert!((model.average_power_mw(&config, &stats) - expected).abs() < 1e-12);
    }
}
