//! The per-slice span walk of the engine.
//!
//! A mapping pass runs each slice in turn, on the engine's thread, through
//! [`run_slice_pass`]: the [`crate::slice::Slice`] itself, its share of the
//! persistent [`crate::state::LayerState`] and a [`SliceRecord`] capturing
//! what the slice produced — fired events, scan decisions and mergeable
//! activity counters. Each event's synaptic ops are added into the engine's
//! per-pass vector of per-event totals instead. The engine afterwards merges
//! the records in slice order, which reproduces the hardware's
//! crossbar/collector arbitration bit-exactly.
//!
//! The record doubles as the reusable buffer pool of the hot path: all its
//! vectors are cleared, never dropped, so steady-state streaming performs no
//! per-timestep (or even per-run) allocation.
//!
//! Planned convolutions on the blocked kernel skip this walk: the engine's
//! pass arena (DESIGN.md §12) walks all of a pass's slices at once and fills
//! the same records.

use sne_event::{Event, EventOp};

use crate::cluster::ClusterState;
use crate::mapping::{Contribution, LayerMapping, LifHardwareParams};
use crate::plan::EventRow;
use crate::slice::{Slice, WindowScratch};
use crate::stats::CycleStats;

/// Read-only context shared by every slice of a layer run.
#[derive(Debug, Clone, Copy)]
pub struct WorkerContext<'a> {
    /// The layer mapping (address filter + weights).
    pub mapping: &'a LayerMapping,
    /// The event rows of every `UPDATE_OP` in [`WorkerContext::ops`], in op
    /// order, resolved once per run against the compiled layer plan — if the
    /// caller built one (`None` runs the naive reference datapath).
    /// Bit-exact either way.
    pub rows: Option<&'a [EventRow<'a>]>,
    /// The full operation sequence of the run.
    pub ops: &'a [Event],
    /// LIF parameters programmed for the layer.
    pub params: LifHardwareParams,
    /// Whether idle clusters are clock-gated.
    pub clock_gating: bool,
    /// Whether the TLU scan-skip mechanism is enabled.
    pub tlu_enabled: bool,
    /// TDM neurons per cluster (for the skipped-update accounting).
    pub neurons_per_cluster: u64,
    /// Whether the run resumes from previously saved neuron state.
    pub resume: bool,
}

/// Everything one slice produced during one mapping pass, in a form the
/// engine merges deterministically (slice order) once every slice ran.
///
/// All buffers keep their capacity across [`SliceRecord::clear`], so a
/// long-lived engine re-uses them across timesteps, passes and runs.
#[derive(Debug, Clone, Default)]
pub struct SliceRecord {
    /// Whether the slice had neurons assigned this pass (inactive slices
    /// contribute nothing, matching the hardware's address filter).
    pub active: bool,
    /// Output events fired by this slice, flat, in `FIRE_OP` order.
    pub fired: Vec<Event>,
    /// Number of [`SliceRecord::fired`] entries per `FIRE_OP`.
    pub fire_counts: Vec<u32>,
    /// Whether this slice executed the TDM scan, per `FIRE_OP`.
    pub scanned: Vec<bool>,
    /// Total synaptic operations of the pass.
    pub synaptic_ops: u64,
    /// Event windows in which a cluster of this slice was active.
    pub active_cluster_windows: u64,
    /// Event windows in which a cluster of this slice was clock-gated.
    pub gated_cluster_windows: u64,
    /// Neuron updates skipped thanks to the TLU mechanism.
    pub tlu_skipped_updates: u64,
    /// Scratch: contributions of the current event (reused, never returned).
    contributions: Vec<Contribution>,
    /// Scratch: fired neuron indices of the current scan (reused).
    fired_neurons: Vec<usize>,
    /// Scratch: the compiled datapath's per-block cluster windows (reused;
    /// self-invalidating via its block mark, so `clear` leaves it alone).
    windows: WindowScratch,
}

impl SliceRecord {
    /// Clears the record for a new pass, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.active = false;
        self.fired.clear();
        self.fire_counts.clear();
        self.scanned.clear();
        self.synaptic_ops = 0;
        self.active_cluster_windows = 0;
        self.gated_cluster_windows = 0;
        self.tlu_skipped_updates = 0;
        self.contributions.clear();
        self.fired_neurons.clear();
    }

    /// Merges this record's activity counters into `stats`. Merging is a sum
    /// per counter, so it is associative and independent of the slice order.
    pub fn merge_into(&self, stats: &mut CycleStats, cycles_per_event: u64) {
        stats.synaptic_ops += self.synaptic_ops;
        stats.active_cluster_cycles += self.active_cluster_windows * cycles_per_event;
        stats.gated_cluster_cycles += self.gated_cluster_windows * cycles_per_event;
        stats.tlu_skipped_updates += self.tlu_skipped_updates;
    }
}

/// Runs one slice through one mapping pass: configure, (optionally) restore
/// persistent state, consume the full operation sequence, export state.
///
/// The slice implements the layer's output neurons `neurons` this pass. Its
/// synaptic ops of the `i`-th `UPDATE_OP` are added into `event_ops[i]`,
/// the engine's per-pass totals. The engine's crossbar, collector, trace
/// and cycle accounting are *not* touched here; they belong to the
/// deterministic reduction that follows.
pub fn run_slice_pass(
    slice: &mut Slice,
    record: &mut SliceRecord,
    state: Option<&mut [ClusterState]>,
    neurons: std::ops::Range<usize>,
    ctx: &WorkerContext<'_>,
    event_ops: &mut [u64],
) {
    let count = neurons.len();
    // A resuming stateful run restores every cluster's membranes and TLU
    // bookkeeping wholesale, so the configure-time reset walk would be dead
    // work — skip it (per-pass counters flow through the record, not the
    // cluster counters, so the outcome is identical).
    match (ctx.resume, state.as_deref()) {
        (true, Some(state)) => {
            slice.configure_pass_for_resume(neurons.start, count);
            slice.import_state(state);
        }
        _ => slice.configure_pass(neurons.start, count),
    }
    record.clear();
    record.active = count > 0;
    if record.active {
        // First index of the all-fire tail: every op at or after it is a
        // `FIRE_OP` (== `ops.len()` when the sequence does not end in one).
        // Once the walk reaches it with every cluster clean, the remaining
        // scans are TLU skips for every cluster — and skips keep clusters
        // clean, so the whole tail collapses into one batched bookkeeping
        // step below instead of a per-op, per-cluster walk. This is what
        // holds the host-time floor of a sparse run: passes whose op stream
        // carries no events (every layer past the first, when nothing
        // spikes) fast-forward in O(ops) record pushes.
        let mut tail_fires = ctx.ops.len();
        while tail_fires > 0 && ctx.ops[tail_fires - 1].op == EventOp::Fire {
            tail_fires -= 1;
        }
        let mut update_index = 0usize;
        let mut op_index = 0usize;
        while op_index < ctx.ops.len() {
            if ctx.tlu_enabled && op_index >= tail_fires && slice.all_clusters_clean() {
                let fires = (ctx.ops.len() - op_index) as u32;
                slice.note_skipped_fires(fires);
                let skipped = slice.num_clusters() as u64;
                record.tlu_skipped_updates += u64::from(fires) * skipped * ctx.neurons_per_cluster;
                for _ in 0..fires {
                    record.scanned.push(false);
                    record.fire_counts.push(0);
                }
                break;
            }
            let op = &ctx.ops[op_index];
            match op.op {
                EventOp::Reset => slice.reset(),
                EventOp::Update => {
                    // Compiled datapath: the whole run of consecutive
                    // `UPDATE_OP`s (up to the next `FIRE_OP` barrier) goes
                    // through one block-fused span walk over the run-level
                    // resolved rows. Naive datapath (the reference oracle):
                    // materialize each event's contributions, then dispatch
                    // them. Outputs, counters and states are bit-identical.
                    match ctx.rows {
                        Some(rows) => {
                            let mut block_end = op_index + 1;
                            while block_end < ctx.ops.len()
                                && ctx.ops[block_end].op == EventOp::Update
                            {
                                block_end += 1;
                            }
                            let events = update_index..update_index + (block_end - op_index);
                            let outcome = slice.process_update_block_planned(
                                &rows[events.clone()],
                                ctx.params,
                                ctx.clock_gating,
                                &mut event_ops[events.clone()],
                                &mut record.windows,
                            );
                            update_index = events.end;
                            op_index = block_end - 1;
                            record.synaptic_ops += outcome.synaptic_ops;
                            record.active_cluster_windows += outcome.active_clusters;
                            record.gated_cluster_windows += outcome.gated_clusters;
                        }
                        None => {
                            record.contributions.clear();
                            ctx.mapping.contributions_in_range_into(
                                op,
                                slice.assigned_range(),
                                &mut record.contributions,
                            );
                            let outcome = slice.process_update(
                                &record.contributions,
                                ctx.params,
                                ctx.clock_gating,
                            );
                            event_ops[update_index] += outcome.synaptic_ops;
                            update_index += 1;
                            record.synaptic_ops += outcome.synaptic_ops;
                            record.active_cluster_windows += outcome.active_clusters;
                            record.gated_cluster_windows += outcome.gated_clusters;
                        }
                    }
                }
                EventOp::Fire => {
                    record.fired_neurons.clear();
                    let summary = slice.process_fire_into(
                        ctx.params,
                        ctx.tlu_enabled,
                        &mut record.fired_neurons,
                    );
                    record.scanned.push(summary.scanned_clusters > 0);
                    record.tlu_skipped_updates +=
                        summary.skipped_clusters * ctx.neurons_per_cluster;
                    let before = record.fired.len();
                    for &neuron in &record.fired_neurons {
                        let (c, y, x) = ctx.mapping.output_position(neuron);
                        record.fired.push(Event::update(op.t, c, x, y));
                    }
                    record
                        .fire_counts
                        .push((record.fired.len() - before) as u32);
                }
            }
            op_index += 1;
        }
    }
    // Persist the state this pass leaves behind (also for inactive slices,
    // whose configure_pass reset them).
    if let Some(state) = state {
        slice.export_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SneConfig;
    use crate::mapping::MapShape;

    fn small_config() -> SneConfig {
        SneConfig {
            num_slices: 2,
            clusters_per_slice: 4,
            neurons_per_cluster: 8,
            ..SneConfig::default()
        }
    }

    fn mapping() -> LayerMapping {
        LayerMapping::conv(
            MapShape::new(1, 4, 4),
            2,
            3,
            vec![1i8; 18],
            LifHardwareParams {
                leak: 0,
                threshold: 1,
            },
        )
        .unwrap()
    }

    fn op_sequence() -> Vec<Event> {
        let mut stream = sne_event::EventStream::new(4, 4, 1, 2);
        stream.push(Event::update(0, 0, 2, 2)).unwrap();
        stream.to_op_sequence()
    }

    #[test]
    fn worker_fills_a_record_per_op() {
        let config = small_config();
        let mapping = mapping();
        let ops = op_sequence();
        let ctx = WorkerContext {
            mapping: &mapping,
            rows: None,
            ops: &ops,
            params: mapping.params(),
            clock_gating: true,
            tlu_enabled: true,
            neurons_per_cluster: 8,
            resume: false,
        };
        let mut slice = Slice::new(&config);
        let mut record = SliceRecord::default();
        // One UPDATE op, two FIRE ops (2 timesteps).
        let mut event_ops = [0u64; 1];
        run_slice_pass(&mut slice, &mut record, None, 0..32, &ctx, &mut event_ops);
        assert!(record.active);
        assert_eq!(event_ops, [18]);
        assert_eq!(record.fire_counts.len(), 2);
        assert_eq!(record.scanned.len(), 2);
        // The centre spike fires the full receptive field of both channels,
        // but this slice only implements neurons 0..32 (the full layer here).
        assert_eq!(record.fired.len(), 18);
        assert_eq!(record.fire_counts[0], 18);
        assert_eq!(record.fire_counts[1], 0);
        assert_eq!(record.synaptic_ops, 18);
    }

    #[test]
    fn inactive_slices_record_nothing() {
        let config = small_config();
        let mapping = mapping();
        let ops = op_sequence();
        let ctx = WorkerContext {
            mapping: &mapping,
            rows: None,
            ops: &ops,
            params: mapping.params(),
            clock_gating: true,
            tlu_enabled: true,
            neurons_per_cluster: 8,
            resume: false,
        };
        let mut slice = Slice::new(&config);
        let mut record = SliceRecord::default();
        let mut event_ops = [0u64; 1];
        run_slice_pass(&mut slice, &mut record, None, 32..32, &ctx, &mut event_ops);
        assert!(!record.active);
        assert!(record.fired.is_empty());
        assert_eq!(event_ops, [0]);
    }

    #[test]
    fn record_merge_is_a_per_counter_sum() {
        let record = SliceRecord {
            active: true,
            synaptic_ops: 5,
            active_cluster_windows: 3,
            gated_cluster_windows: 7,
            tlu_skipped_updates: 11,
            ..SliceRecord::default()
        };
        let mut a = CycleStats::new();
        record.merge_into(&mut a, 48);
        record.merge_into(&mut a, 48);
        let mut b = CycleStats::new();
        record.merge_into(&mut b, 48);
        let mut b2 = CycleStats::new();
        record.merge_into(&mut b2, 48);
        b.merge(&b2);
        assert_eq!(a, b);
        assert_eq!(a.synaptic_ops, 10);
        assert_eq!(a.active_cluster_cycles, 2 * 3 * 48);
    }

    #[test]
    fn clearing_keeps_capacity() {
        let mut record = SliceRecord::default();
        record.fired.reserve(64);
        record.fired.push(Event::update(0, 0, 0, 0));
        let cap = record.fired.capacity();
        record.clear();
        assert!(record.fired.is_empty());
        assert_eq!(record.fired.capacity(), cap);
    }
}
