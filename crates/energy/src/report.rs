//! Text rendering of the reproduced figures and tables.
//!
//! The benchmark binaries in `sne-bench` print the same rows/series the
//! paper reports; the formatting helpers live here so that examples and
//! integration tests can reuse them.

use crate::area::AreaBreakdown;
use crate::comparison::PlatformRecord;
use crate::power::PowerBreakdown;

/// Formats one Fig. 4 row: the area breakdown of a slice configuration.
#[must_use]
pub fn format_area_row(slices: usize, breakdown: &AreaBreakdown) -> String {
    let values = breakdown.values();
    let mut row = format!("{slices:>2} slices |");
    for (label, value) in AreaBreakdown::COMPONENTS.iter().zip(values) {
        row.push_str(&format!(" {label}: {value:7.1} kGE |"));
    }
    row.push_str(&format!(" total: {:8.1} kGE", breakdown.total()));
    row
}

/// Formats one Fig. 5a row: the power breakdown of a slice configuration.
#[must_use]
pub fn format_power_row(slices: usize, breakdown: &PowerBreakdown) -> String {
    format!(
        "{slices:>2} slices | dynamic: {:6.2} mW | leakage: {:5.3} mW | total: {:6.2} mW",
        breakdown.dynamic(),
        breakdown.leakage,
        breakdown.total()
    )
}

/// Formats one Fig. 5b row: performance and energy per operation.
#[must_use]
pub fn format_perf_row(slices: usize, gsops: f64, energy_per_sop_pj: f64) -> String {
    format!(
        "{slices:>2} slices | performance: {gsops:5.1} GSOP/s | energy: {energy_per_sop_pj:.3} pJ/SOP"
    )
}

/// Formats one Table I row.
#[must_use]
pub fn format_table1_row(
    dataset: &str,
    baseline_accuracy: f64,
    quantized_accuracy: f64,
    energy_range_uj: (f64, f64),
    rate_range_inf_s: (f64, f64),
) -> String {
    format!(
        "{dataset:<16} | SRM: {:5.2}% | SNE-LIF-4b: {:5.2}% | energy: {:6.1}-{:6.1} uJ/inf | rate: {:6.1}-{:6.1} inf/s",
        baseline_accuracy * 100.0,
        quantized_accuracy * 100.0,
        energy_range_uj.0,
        energy_range_uj.1,
        rate_range_inf_s.0,
        rate_range_inf_s.1
    )
}

/// Formats one Table II row.
#[must_use]
pub fn format_platform_row(record: &PlatformRecord) -> String {
    fn opt_f(v: Option<f64>, width: usize, precision: usize) -> String {
        v.map_or_else(
            || format!("{:>width$}", "-"),
            |x| format!("{x:>width$.precision$}"),
        )
    }
    fn opt_u(v: Option<u64>, width: usize) -> String {
        v.map_or_else(|| format!("{:>width$}", "-"), |x| format!("{x:>width$}"))
    }
    format!(
        "{:<16} {:<8} {:<5} {:<9} {:<12} {:<9} {} {} {} {} {} {} {} {:<5} {}",
        record.name,
        record.implementation,
        record.technology,
        record.neuron_model,
        record.learning,
        record.network_type,
        opt_u(record.neurons, 8),
        opt_f(record.neuron_area_um2, 9, 1),
        opt_f(record.performance_gops, 7, 1),
        opt_f(record.efficiency_tops_w, 7, 2),
        opt_f(record.energy_per_sop_pj, 8, 3),
        opt_f(record.frequency_mhz, 7, 0),
        opt_f(record.power_mw, 8, 2),
        record.bits.as_deref().unwrap_or("-"),
        opt_f(record.voltage, 5, 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaModel;
    use crate::comparison::sne_record;
    use crate::power::PowerModel;
    use sne_sim::SneConfig;

    #[test]
    fn area_row_mentions_every_component() {
        let breakdown = AreaModel::default().breakdown(&SneConfig::with_slices(8));
        let row = format_area_row(8, &breakdown);
        for component in AreaBreakdown::COMPONENTS {
            assert!(row.contains(component), "row should mention {component}");
        }
        assert!(row.contains("total"));
    }

    #[test]
    fn power_row_contains_dynamic_and_leakage() {
        let breakdown =
            PowerModel::default().breakdown_at_activity(&SneConfig::with_slices(4), 1.0);
        let row = format_power_row(4, &breakdown);
        assert!(row.contains("dynamic"));
        assert!(row.contains("leakage"));
    }

    #[test]
    fn perf_row_formats_values() {
        let row = format_perf_row(8, 51.2, 0.221);
        assert!(row.contains("51.2"));
        assert!(row.contains("0.221"));
    }

    #[test]
    fn table1_row_contains_both_accuracies() {
        let row = format_table1_row("IBM DVS Gest.", 0.9242, 0.928, (80.0, 261.0), (141.0, 43.0));
        assert!(row.contains("92.42"));
        assert!(row.contains("92.80"));
        assert!(row.contains("261.0"));
    }

    #[test]
    fn platform_row_handles_missing_fields() {
        let record = sne_record(&SneConfig::with_slices(8));
        let row = format_platform_row(&record);
        assert!(row.contains("SNE"));
        let mut missing = record;
        missing.power_mw = None;
        missing.neurons = None;
        let row = format_platform_row(&missing);
        assert!(row.contains('-'));
    }
}
