//! State-of-the-art comparison (Table II of the paper).
//!
//! Table II compares the SNE against published neuromorphic platforms. The
//! rows for the other platforms are literature values reproduced verbatim;
//! the SNE row is generated from this crate's own models so that it tracks
//! whatever configuration is being evaluated.

use serde::{Deserialize, Serialize};
use sne_sim::SneConfig;

use crate::area::AreaModel;
use crate::energy::EnergyModel;
use crate::power::PowerModel;

/// One row of the comparison table. Fields that a publication does not
/// report are `None` and printed as "-".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformRecord {
    /// Platform name.
    pub name: String,
    /// Implementation style ("Digital", "Analog", …).
    pub implementation: String,
    /// Technology node label (e.g. "22nm").
    pub technology: String,
    /// Neuron model.
    pub neuron_model: String,
    /// Learning support.
    pub learning: String,
    /// Network type accelerated.
    pub network_type: String,
    /// Number of neurons.
    pub neurons: Option<u64>,
    /// Area per neuron in µm².
    pub neuron_area_um2: Option<f64>,
    /// Peak performance in GOP/s (synaptic operations).
    pub performance_gops: Option<f64>,
    /// Energy efficiency in TOP/s/W.
    pub efficiency_tops_w: Option<f64>,
    /// Energy per synaptic operation in pJ.
    pub energy_per_sop_pj: Option<f64>,
    /// Clock frequency in MHz (`None` for asynchronous designs).
    pub frequency_mhz: Option<f64>,
    /// Power in mW.
    pub power_mw: Option<f64>,
    /// Weight precision in bits (as reported).
    pub bits: Option<String>,
    /// Supply voltage in volts.
    pub voltage: Option<f64>,
}

/// Literature rows of Table II (everything except the SNE row).
#[must_use]
pub fn literature_records() -> Vec<PlatformRecord> {
    vec![
        PlatformRecord {
            name: "Tianjic".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "28nm".to_owned(),
            neuron_model: "-".to_owned(),
            learning: "-".to_owned(),
            network_type: "Hybrid".to_owned(),
            neurons: Some(40_000),
            neuron_area_um2: Some(361.0),
            performance_gops: Some(649.0),
            efficiency_tops_w: Some(1.28),
            energy_per_sop_pj: Some(6.18),
            frequency_mhz: Some(300.0),
            power_mw: Some(950.0),
            bits: Some("8".to_owned()),
            voltage: Some(0.9),
        },
        PlatformRecord {
            name: "Dynapsel".to_owned(),
            implementation: "Analog".to_owned(),
            technology: "28nm".to_owned(),
            neuron_model: "-".to_owned(),
            learning: "online STDP".to_owned(),
            network_type: "-".to_owned(),
            neurons: Some(256),
            neuron_area_um2: Some(150_390.0),
            performance_gops: None,
            efficiency_tops_w: Some(0.6),
            energy_per_sop_pj: Some(2.0),
            frequency_mhz: None,
            power_mw: None,
            bits: Some("4".to_owned()),
            voltage: Some(1.0),
        },
        PlatformRecord {
            name: "ODIN".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "28nm".to_owned(),
            neuron_model: "Bio Plaus.".to_owned(),
            learning: "-".to_owned(),
            network_type: "-".to_owned(),
            neurons: Some(256),
            neuron_area_um2: Some(335.9),
            performance_gops: Some(0.038),
            efficiency_tops_w: Some(0.079),
            energy_per_sop_pj: Some(12.7),
            frequency_mhz: Some(75.0),
            power_mw: Some(0.477),
            bits: None,
            voltage: Some(0.55),
        },
        PlatformRecord {
            name: "TrueNorth".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "28nm".to_owned(),
            neuron_model: "EXP LIF".to_owned(),
            learning: "online".to_owned(),
            network_type: "SNN".to_owned(),
            neurons: Some(1_000_000),
            neuron_area_um2: Some(389.0),
            performance_gops: Some(58.0),
            efficiency_tops_w: Some(0.046),
            energy_per_sop_pj: Some(27.0),
            frequency_mhz: None,
            power_mw: Some(65.0),
            bits: Some("1".to_owned()),
            voltage: Some(0.75),
        },
        PlatformRecord {
            name: "SPOON".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "28nm".to_owned(),
            neuron_model: "-".to_owned(),
            learning: "DRTP".to_owned(),
            network_type: "Conv SNN".to_owned(),
            neurons: None,
            neuron_area_um2: None,
            performance_gops: None,
            efficiency_tops_w: None,
            energy_per_sop_pj: Some(6.8),
            frequency_mhz: Some(150.0),
            power_mw: None,
            bits: Some("8".to_owned()),
            voltage: Some(0.6),
        },
        PlatformRecord {
            name: "Loihi".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "14nm".to_owned(),
            neuron_model: "LIF+".to_owned(),
            learning: "online STDP".to_owned(),
            network_type: "SNN".to_owned(),
            neurons: Some(131_072),
            neuron_area_um2: Some(396.7),
            performance_gops: None,
            efficiency_tops_w: None,
            energy_per_sop_pj: Some(23.0),
            frequency_mhz: None,
            power_mw: None,
            bits: Some("1-64".to_owned()),
            voltage: None,
        },
        PlatformRecord {
            name: "SpiNNaker 2".to_owned(),
            implementation: "Digital".to_owned(),
            technology: "22nm".to_owned(),
            neuron_model: "Prog.".to_owned(),
            learning: "-".to_owned(),
            network_type: "DNN/SNN".to_owned(),
            neurons: None,
            neuron_area_um2: None,
            performance_gops: None,
            efficiency_tops_w: Some(3.26),
            energy_per_sop_pj: Some(1_700.0),
            frequency_mhz: Some(200.0),
            power_mw: None,
            bits: Some("var.".to_owned()),
            voltage: Some(0.5),
        },
    ]
}

/// Builds the SNE row of Table II from the calibrated models.
#[must_use]
pub fn sne_record(config: &SneConfig) -> PlatformRecord {
    let area = AreaModel::default();
    let power = PowerModel::default();
    let energy = EnergyModel::new();
    PlatformRecord {
        name: format!("SNE ({} slices)", config.num_slices),
        implementation: "Digital".to_owned(),
        technology: "22nm".to_owned(),
        neuron_model: "LIF".to_owned(),
        learning: "offline".to_owned(),
        network_type: "Conv SNN".to_owned(),
        neurons: Some(config.total_neurons() as u64),
        neuron_area_um2: Some(area.neuron_area_um2(config)),
        performance_gops: Some(config.peak_gsops()),
        efficiency_tops_w: Some(energy.nominal_efficiency_tsops_w(config)),
        energy_per_sop_pj: Some(energy.nominal_energy_per_sop_pj(config)),
        frequency_mhz: Some(config.clock_mhz),
        power_mw: Some(power.peak_total_mw(config)),
        bits: Some(format!("{}", config.weight_bits)),
        voltage: Some(0.8),
    }
}

/// The full Table II: the SNE row followed by the literature rows.
#[must_use]
pub fn comparison_table(config: &SneConfig) -> Vec<PlatformRecord> {
    let mut rows = vec![sne_record(config)];
    rows.extend(literature_records());
    rows
}

/// Improvement factor of the SNE's efficiency over a named platform of the
/// table. The paper quotes 3.55× over Tianjic (Pei et al.), the hybrid
/// digital platform it compares against in §IV-C.
#[must_use]
pub fn efficiency_improvement_over(config: &SneConfig, platform: &str) -> Option<f64> {
    let sne = sne_record(config).efficiency_tops_w?;
    literature_records()
        .iter()
        .find(|r| r.name == platform)
        .and_then(|r| r.efficiency_tops_w)
        .map(|other| sne / other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_sne_plus_seven_platforms() {
        let table = comparison_table(&SneConfig::with_slices(8));
        assert_eq!(table.len(), 8);
        assert!(table[0].name.starts_with("SNE"));
        assert!(!table[1].name.starts_with("SNE"));
    }

    #[test]
    fn sne_row_matches_the_paper_headline() {
        let row = sne_record(&SneConfig::with_slices(8));
        assert_eq!(row.neurons, Some(8192));
        assert!((row.performance_gops.unwrap() - 51.2).abs() < 1e-9);
        assert!((row.energy_per_sop_pj.unwrap() - 0.221).abs() < 1e-9);
        assert!((row.power_mw.unwrap() - 11.29).abs() < 0.05);
        assert!((row.neuron_area_um2.unwrap() - 19.9).abs() < 0.5);
    }

    #[test]
    fn sne_has_the_lowest_energy_per_sop() {
        let table = comparison_table(&SneConfig::with_slices(8));
        let sne = table[0].energy_per_sop_pj.unwrap();
        for row in &table[1..] {
            if let Some(e) = row.energy_per_sop_pj {
                assert!(sne < e, "SNE ({sne} pJ) should beat {} ({e} pJ)", row.name);
            }
        }
    }

    #[test]
    fn efficiency_improvement_is_about_3_55x() {
        let improvement =
            efficiency_improvement_over(&SneConfig::with_slices(8), "Tianjic").unwrap();
        assert!(
            (improvement - 3.55).abs() < 0.05,
            "improvement over Tianjic should be ~3.55x, got {improvement}"
        );
        assert!(efficiency_improvement_over(&SneConfig::with_slices(8), "Unknown").is_none());
    }

    #[test]
    fn literature_records_have_plausible_values() {
        for row in literature_records() {
            if let Some(e) = row.energy_per_sop_pj {
                assert!(e > 0.0);
            }
            if let Some(n) = row.neurons {
                assert!(n > 0);
            }
        }
    }
}
