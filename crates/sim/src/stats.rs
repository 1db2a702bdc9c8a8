//! Cycle and activity accounting.
//!
//! The counters collected here are the simulator's stand-in for the VCD
//! switching activity the paper feeds to PrimePower: every quantity the
//! analytic power model needs (active cluster-cycles, gated cluster-cycles,
//! synaptic operations, stream transfers, memory traffic) is accumulated
//! during the run.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Activity and timing counters of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CycleStats {
    /// Total clock cycles the engine was busy.
    pub total_cycles: u64,
    /// Cycles spent consuming `UPDATE_OP` events.
    pub update_cycles: u64,
    /// Cycles spent processing `FIRE_OP` scans.
    pub fire_cycles: u64,
    /// Cycles spent processing `RST_OP` operations.
    pub reset_cycles: u64,
    /// Cycles the engine stalled waiting for the streamers/memory.
    pub stall_cycles: u64,
    /// Synaptic operations (membrane accumulations) performed.
    pub synaptic_ops: u64,
    /// Neuron membrane updates skipped thanks to the TLU mechanism.
    pub tlu_skipped_updates: u64,
    /// Cluster-cycles in which the cluster datapath was active.
    pub active_cluster_cycles: u64,
    /// Cluster-cycles in which the cluster was clock-gated.
    pub gated_cluster_cycles: u64,
    /// Input events consumed (UPDATE operations).
    pub input_events: u64,
    /// Output events produced (spikes emitted by neurons).
    pub output_events: u64,
    /// Words moved from memory to the engine by the input streamer.
    pub streamer_reads: u64,
    /// Words moved from the engine to memory by the output streamer.
    pub streamer_writes: u64,
    /// Transfers routed by the crossbar.
    pub xbar_transfers: u64,
    /// Events arbitrated by the collector.
    pub collector_events: u64,
    /// Number of mapping passes executed (output-channel groups).
    pub passes: u64,
}

impl CycleStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock duration of the run in nanoseconds at `clock_mhz`.
    #[must_use]
    pub fn duration_ns(&self, clock_mhz: f64) -> f64 {
        self.total_cycles as f64 * 1_000.0 / clock_mhz
    }

    /// Wall-clock duration of the run in milliseconds at `clock_mhz`.
    #[must_use]
    pub fn duration_ms(&self, clock_mhz: f64) -> f64 {
        self.duration_ns(clock_mhz) / 1e6
    }

    /// Achieved synaptic-operation throughput in GSOP/s.
    #[must_use]
    pub fn achieved_gsops(&self, clock_mhz: f64) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.synaptic_ops as f64 / self.duration_ns(clock_mhz)
        }
    }

    /// Fraction of cluster-cycles that were active (not gated), in `[0, 1]`.
    #[must_use]
    pub fn cluster_utilization(&self) -> f64 {
        let total = self.active_cluster_cycles + self.gated_cluster_cycles;
        if total == 0 {
            0.0
        } else {
            self.active_cluster_cycles as f64 / total as f64
        }
    }

    /// Merges another set of counters into this one.
    ///
    /// Every field is a plain sum, so `merge` is **associative and
    /// commutative**: merging per-slice (or per-lane) partial stats in any
    /// order or grouping produces the same totals. This is the reduction the
    /// parallel executor relies on for bit-exact results.
    pub fn merge(&mut self, rhs: &Self) {
        self.total_cycles += rhs.total_cycles;
        self.update_cycles += rhs.update_cycles;
        self.fire_cycles += rhs.fire_cycles;
        self.reset_cycles += rhs.reset_cycles;
        self.stall_cycles += rhs.stall_cycles;
        self.synaptic_ops += rhs.synaptic_ops;
        self.tlu_skipped_updates += rhs.tlu_skipped_updates;
        self.active_cluster_cycles += rhs.active_cluster_cycles;
        self.gated_cluster_cycles += rhs.gated_cluster_cycles;
        self.input_events += rhs.input_events;
        self.output_events += rhs.output_events;
        self.streamer_reads += rhs.streamer_reads;
        self.streamer_writes += rhs.streamer_writes;
        self.xbar_transfers += rhs.xbar_transfers;
        self.collector_events += rhs.collector_events;
        self.passes += rhs.passes;
    }
}

impl AddAssign for CycleStats {
    fn add_assign(&mut self, rhs: Self) {
        self.merge(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_have_zero_rates() {
        let s = CycleStats::new();
        assert_eq!(s.achieved_gsops(400.0), 0.0);
        assert_eq!(s.cluster_utilization(), 0.0);
        assert_eq!(s.duration_ns(400.0), 0.0);
    }

    #[test]
    fn duration_follows_clock() {
        let s = CycleStats {
            total_cycles: 400_000,
            ..Default::default()
        };
        assert!((s.duration_ns(400.0) - 1_000_000.0).abs() < 1e-6);
        assert!((s.duration_ms(400.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_gsops_counts_sops_per_nanosecond() {
        // 128 SOPs per cycle at 400 MHz = 51.2 GSOP/s.
        let s = CycleStats {
            total_cycles: 1_000,
            synaptic_ops: 128_000,
            ..Default::default()
        };
        assert!((s.achieved_gsops(400.0) - 51.2).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_active_over_total() {
        let s = CycleStats {
            active_cluster_cycles: 30,
            gated_cluster_cycles: 70,
            ..Default::default()
        };
        assert!((s.cluster_utilization() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut a = CycleStats {
            total_cycles: 1,
            update_cycles: 2,
            fire_cycles: 3,
            reset_cycles: 4,
            stall_cycles: 5,
            synaptic_ops: 6,
            tlu_skipped_updates: 7,
            active_cluster_cycles: 8,
            gated_cluster_cycles: 9,
            input_events: 10,
            output_events: 11,
            streamer_reads: 12,
            streamer_writes: 13,
            xbar_transfers: 14,
            collector_events: 15,
            passes: 16,
        };
        a += a;
        assert_eq!(a.total_cycles, 2);
        assert_eq!(a.passes, 32);
        assert_eq!(a.collector_events, 30);
        assert_eq!(a.synaptic_ops, 12);
    }
}
