//! Energy and efficiency model.
//!
//! Combines the power model with the cycle counts produced by the simulator
//! to obtain the quantities the paper reports: energy per synaptic operation
//! (0.221 pJ/SOP), energy efficiency (4.54 TSOP/s/W) and energy per inference
//! (80–261 µJ on DVS-Gesture, Table I).

use serde::{Deserialize, Serialize};
use sne_sim::{CycleStats, SneConfig};

use crate::performance::PerformanceModel;
use crate::power::PowerModel;

/// Energy figures of one measured run (or one operating point).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Average power during the run, in mW.
    pub average_power_mw: f64,
    /// Run duration, in ms.
    pub duration_ms: f64,
    /// Total energy, in µJ.
    pub energy_uj: f64,
    /// Energy per synaptic operation, in pJ.
    pub energy_per_sop_pj: f64,
    /// Achieved efficiency, in TSOP/s/W.
    pub efficiency_tsops_w: f64,
    /// Synaptic operations performed.
    pub synaptic_ops: u64,
}

/// The energy model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyModel {
    power: PowerModel,
    performance: PerformanceModel,
}

impl EnergyModel {
    /// Creates the energy model with default technology parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Nominal energy per SOP at full update activity, in pJ (the Fig. 5b /
    /// Table II headline: 0.221 pJ for 8 slices).
    #[must_use]
    pub fn nominal_energy_per_sop_pj(&self, config: &SneConfig) -> f64 {
        self.power.energy_per_sop_pj(config)
    }

    /// Nominal efficiency at full update activity, in TSOP/s/W
    /// (4.54 TSOP/s/W for 8 slices).
    #[must_use]
    pub fn nominal_efficiency_tsops_w(&self, config: &SneConfig) -> f64 {
        1.0 / self.nominal_energy_per_sop_pj(config)
    }

    /// Energy report for a measured run.
    #[must_use]
    pub fn report(&self, config: &SneConfig, stats: &CycleStats) -> EnergyReport {
        let average_power_mw = self.power.average_power_mw(config, stats);
        let duration_ms = stats.duration_ms(config.clock_mhz);
        // mW × ms = µJ.
        let energy_uj = average_power_mw * duration_ms;
        let energy_per_sop_pj = if stats.synaptic_ops == 0 {
            0.0
        } else {
            energy_uj * 1e6 / stats.synaptic_ops as f64
        };
        let efficiency_tsops_w = if energy_per_sop_pj > 0.0 {
            1.0 / energy_per_sop_pj
        } else {
            0.0
        };
        EnergyReport {
            average_power_mw,
            duration_ms,
            energy_uj,
            energy_per_sop_pj,
            efficiency_tsops_w,
            synaptic_ops: stats.synaptic_ops,
        }
    }

    /// Energy of an inference whose duration and activity are known, assuming
    /// the engine runs at the paper's benchmark activity (every cluster
    /// updating): this is the simple `power × time` estimate the paper uses
    /// for Table I.
    #[must_use]
    pub fn inference_energy_uj(&self, config: &SneConfig, inference_time_ms: f64) -> f64 {
        self.power.peak_total_mw(config) * inference_time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_headline_numbers_match_the_paper() {
        let model = EnergyModel::new();
        let config = SneConfig::with_slices(8);
        assert!((model.nominal_energy_per_sop_pj(&config) - 0.221).abs() < 1e-9);
        let eff = model.nominal_efficiency_tsops_w(&config);
        assert!(
            (eff - 4.52).abs() < 0.05,
            "efficiency {eff} should be ~4.5 TSOP/s/W"
        );
    }

    #[test]
    fn fully_active_run_reproduces_the_nominal_energy_per_sop() {
        let model = EnergyModel::new();
        let config = SneConfig::with_slices(8);
        // Fully active: 128 clusters × 1 SOP per cycle for 1M cycles.
        let stats = CycleStats {
            total_cycles: 1_000_000,
            synaptic_ops: 128_000_000,
            active_cluster_cycles: 128_000_000,
            gated_cluster_cycles: 0,
            ..CycleStats::default()
        };
        let report = model.report(&config, &stats);
        assert!((report.energy_per_sop_pj - 0.221).abs() < 0.01);
        assert!((report.average_power_mw - 11.29).abs() < 0.1);
    }

    #[test]
    fn sparse_runs_spend_less_total_energy() {
        let model = EnergyModel::new();
        let config = SneConfig::with_slices(8);
        let busy = CycleStats {
            total_cycles: 1_000_000,
            synaptic_ops: 128_000_000,
            active_cluster_cycles: 128_000_000,
            ..CycleStats::default()
        };
        let sparse = CycleStats {
            total_cycles: 1_000_000,
            synaptic_ops: 12_800_000,
            active_cluster_cycles: 12_800_000,
            gated_cluster_cycles: 115_200_000,
            ..CycleStats::default()
        };
        let busy_report = model.report(&config, &busy);
        let sparse_report = model.report(&config, &sparse);
        assert!(sparse_report.energy_uj < busy_report.energy_uj);
        // Per-operation energy rises when the fixed infrastructure is
        // amortized over fewer operations.
        assert!(sparse_report.energy_per_sop_pj > busy_report.energy_per_sop_pj);
    }

    #[test]
    fn table1_energy_range_is_reproduced() {
        let model = EnergyModel::new();
        let config = SneConfig::with_slices(8);
        // Paper: 7.1 ms best case -> 80 µJ, 23.12 ms worst case -> 261 µJ.
        let best = model.inference_energy_uj(&config, 7.1);
        let worst = model.inference_energy_uj(&config, 23.12);
        assert!(
            (best - 80.0).abs() < 2.0,
            "best-case energy {best} should be ~80 uJ"
        );
        assert!(
            (worst - 261.0).abs() < 4.0,
            "worst-case energy {worst} should be ~261 uJ"
        );
    }

    #[test]
    fn empty_run_reports_zero_sop_energy() {
        let model = EnergyModel::new();
        let report = model.report(&SneConfig::default(), &CycleStats::default());
        assert_eq!(report.energy_per_sop_pj, 0.0);
        assert_eq!(report.efficiency_tsops_w, 0.0);
        assert_eq!(report.energy_uj, 0.0);
    }
}
