//! Area model (Fig. 4 of the paper).
//!
//! Fig. 4 reports a post-synthesis gate-equivalent breakdown for 1, 2, 4 and
//! 8 slices. The model below embeds those calibration points and decomposes
//! each component into a fixed part (shared infrastructure such as the two
//! streamers) and a per-slice part, so that arbitrary slice counts and
//! scaled cluster/neuron geometries can be explored. At the published
//! configurations the model reproduces the published numbers exactly.

use serde::{Deserialize, Serialize};
use sne_sim::SneConfig;

use crate::technology::TechnologyParams;

/// Area of every SNE component, in kGE.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Latch-based neuron state memories (the dominant component).
    pub memory: f64,
    /// Cluster LIF datapaths.
    pub clusters: f64,
    /// Streamer (DMA) engines.
    pub streamers: f64,
    /// C-XBAR interconnect.
    pub interconnect: f64,
    /// Configuration and pipeline registers.
    pub registers: f64,
    /// Control logic (sequencers, decoders, collectors).
    pub control: f64,
    /// Event FIFOs.
    pub fifos: f64,
    /// Address filters and shifters.
    pub filters: f64,
}

impl AreaBreakdown {
    /// Total area in kGE.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.memory
            + self.clusters
            + self.streamers
            + self.interconnect
            + self.registers
            + self.control
            + self.fifos
            + self.filters
    }

    /// Component labels in the order used by Fig. 4.
    pub const COMPONENTS: [&'static str; 8] = [
        "Memory",
        "Clusters",
        "Streamers",
        "Interconnect",
        "Registers",
        "Control",
        "Fifos",
        "Filters",
    ];

    /// Component values in the same order as [`AreaBreakdown::COMPONENTS`].
    #[must_use]
    pub fn values(&self) -> [f64; 8] {
        [
            self.memory,
            self.clusters,
            self.streamers,
            self.interconnect,
            self.registers,
            self.control,
            self.fifos,
            self.filters,
        ]
    }
}

/// Calibration point: the Fig. 4 breakdown for one slice count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CalibrationPoint {
    slices: usize,
    breakdown: AreaBreakdown,
}

/// The published Fig. 4 data (kGE).
fn calibration_table() -> [CalibrationPoint; 4] {
    [
        CalibrationPoint {
            slices: 1,
            breakdown: AreaBreakdown {
                memory: 91.2,
                clusters: 12.5,
                streamers: 30.0,
                interconnect: 0.8,
                registers: 51.4,
                control: 7.1,
                fifos: 27.8,
                filters: 28.9,
            },
        },
        CalibrationPoint {
            slices: 2,
            breakdown: AreaBreakdown {
                memory: 182.4,
                clusters: 24.9,
                streamers: 30.0,
                interconnect: 1.4,
                registers: 88.5,
                control: 13.4,
                fifos: 56.3,
                filters: 57.8,
            },
        },
        CalibrationPoint {
            slices: 4,
            breakdown: AreaBreakdown {
                memory: 364.9,
                clusters: 50.0,
                streamers: 30.0,
                interconnect: 2.8,
                registers: 161.9,
                control: 31.3,
                fifos: 106.0,
                filters: 115.6,
            },
        },
        CalibrationPoint {
            slices: 8,
            breakdown: AreaBreakdown {
                memory: 729.8,
                clusters: 99.9,
                streamers: 30.0,
                interconnect: 6.2,
                registers: 306.2,
                control: 65.0,
                fifos: 212.3,
                filters: 231.3,
            },
        },
    ]
}

/// The area model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    technology: TechnologyParams,
}

impl AreaModel {
    /// Creates an area model with explicit technology parameters.
    #[must_use]
    pub fn new(technology: TechnologyParams) -> Self {
        Self { technology }
    }

    /// Area breakdown for a configuration.
    ///
    /// For the published slice counts (1, 2, 4, 8) with the default cluster
    /// geometry the published Fig. 4 numbers are returned exactly; other
    /// slice counts use a fixed + per-slice decomposition derived from the
    /// 1- and 8-slice calibration points, and non-default cluster/neuron
    /// geometries scale the memory, cluster, FIFO and filter components
    /// proportionally to their capacity.
    #[must_use]
    pub fn breakdown(&self, config: &SneConfig) -> AreaBreakdown {
        let table = calibration_table();
        let baseline = SneConfig::default();
        // Scaling of per-slice datapath/memory components with the cluster
        // geometry relative to the paper's 16 clusters × 64 neurons.
        let neuron_scale = (config.clusters_per_slice * config.neurons_per_cluster) as f64
            / (baseline.clusters_per_slice * baseline.neurons_per_cluster) as f64;
        let cluster_scale = config.clusters_per_slice as f64 / baseline.clusters_per_slice as f64;

        let exact = table
            .iter()
            .find(|p| p.slices == config.num_slices)
            .map(|p| p.breakdown);
        let mut breakdown = exact.unwrap_or_else(|| self.interpolate(config.num_slices));
        // Streamer area scales with the number of streamers (2 in the paper).
        breakdown.streamers *= config.num_streamers as f64 / baseline.num_streamers as f64;
        breakdown.memory *= neuron_scale;
        breakdown.clusters *= cluster_scale;
        breakdown.fifos *= cluster_scale;
        breakdown.filters *= cluster_scale;
        breakdown
    }

    /// Fixed + per-slice decomposition derived from the 1- and 8-slice points.
    fn interpolate(&self, slices: usize) -> AreaBreakdown {
        let table = calibration_table();
        let one = table[0].breakdown;
        let eight = table[3].breakdown;
        let per_slice = |a: f64, b: f64| (b - a) / 7.0;
        let fixed = |a: f64, b: f64| a - per_slice(a, b);
        let s = slices as f64;
        let component = |a: f64, b: f64| fixed(a, b) + per_slice(a, b) * s;
        AreaBreakdown {
            memory: component(one.memory, eight.memory),
            clusters: component(one.clusters, eight.clusters),
            streamers: one.streamers,
            interconnect: component(one.interconnect, eight.interconnect),
            registers: component(one.registers, eight.registers),
            control: component(one.control, eight.control),
            fifos: component(one.fifos, eight.fifos),
            filters: component(one.filters, eight.filters),
        }
    }

    /// Total area in kGE for a configuration.
    #[must_use]
    pub fn total_kge(&self, config: &SneConfig) -> f64 {
        self.breakdown(config).total()
    }

    /// Total area in mm² for a configuration.
    #[must_use]
    pub fn total_mm2(&self, config: &SneConfig) -> f64 {
        self.technology.kge_to_mm2(self.total_kge(config))
    }

    /// Area per neuron in µm² (Table II reports 19.9 µm² for the 8-slice
    /// instance, counting the neuron state memory and the cluster datapaths).
    #[must_use]
    pub fn neuron_area_um2(&self, config: &SneConfig) -> f64 {
        let breakdown = self.breakdown(config);
        let neuron_kge = breakdown.memory + breakdown.clusters;
        self.technology.kge_to_um2(neuron_kge) / config.total_neurons() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_points_are_reproduced_exactly() {
        let model = AreaModel::default();
        let expected_totals = [(1usize, 249.7), (2, 454.7), (4, 862.5), (8, 1680.7)];
        for (slices, total) in expected_totals {
            let b = model.breakdown(&SneConfig::with_slices(slices));
            assert!(
                (b.total() - total).abs() < 0.11,
                "total for {slices} slices: {} vs {total}",
                b.total()
            );
        }
        let eight = model.breakdown(&SneConfig::with_slices(8));
        assert!((eight.memory - 729.8).abs() < 1e-9);
        assert!((eight.filters - 231.3).abs() < 1e-9);
    }

    #[test]
    fn memory_dominates_every_configuration() {
        let model = AreaModel::default();
        for slices in [1, 2, 4, 8] {
            let b = model.breakdown(&SneConfig::with_slices(slices));
            for (label, value) in AreaBreakdown::COMPONENTS.iter().zip(b.values()) {
                if *label != "Memory" {
                    assert!(b.memory > value, "memory should dominate {label}");
                }
            }
        }
    }

    #[test]
    fn streamer_area_is_fixed_across_slices() {
        let model = AreaModel::default();
        let one = model.breakdown(&SneConfig::with_slices(1));
        let eight = model.breakdown(&SneConfig::with_slices(8));
        assert_eq!(one.streamers, eight.streamers);
    }

    #[test]
    fn interpolation_is_monotonic_in_slices() {
        let model = AreaModel::default();
        let mut last = 0.0;
        for slices in 1..=16 {
            let total = model.total_kge(&SneConfig::with_slices(slices));
            assert!(total > last, "area must grow with slices");
            last = total;
        }
    }

    #[test]
    fn neuron_area_matches_table_ii() {
        let model = AreaModel::default();
        let area = model.neuron_area_um2(&SneConfig::with_slices(8));
        assert!(
            (area - 19.9).abs() < 0.5,
            "neuron area {area} should be close to 19.9 um2"
        );
    }

    #[test]
    fn doubling_neurons_scales_memory() {
        let model = AreaModel::default();
        let base = model.breakdown(&SneConfig::with_slices(8));
        let big = model.breakdown(&SneConfig {
            neurons_per_cluster: 128,
            ..SneConfig::with_slices(8)
        });
        assert!((big.memory / base.memory - 2.0).abs() < 1e-9);
        assert_eq!(big.clusters, base.clusters);
    }

    #[test]
    fn total_mm2_is_consistent_with_kge() {
        let model = AreaModel::default();
        let config = SneConfig::with_slices(8);
        let mm2 = model.total_mm2(&config);
        let kge = model.total_kge(&config);
        assert!((mm2 - model.technology.kge_to_mm2(kge)).abs() < 1e-12);
        assert!(
            mm2 > 0.1 && mm2 < 1.0,
            "8-slice SNE should be a fraction of a mm2, got {mm2}"
        );
    }
}
