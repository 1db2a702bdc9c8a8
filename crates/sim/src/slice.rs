//! The Slice: 16 clusters stepped in lockstep over TDM neuron addresses.
//!
//! A slice receives the input event stream (all clusters see the same event,
//! paper §III-D.4), filters it against the addresses of the neurons it
//! implements, shifts the addresses relative to each cluster's base and
//! dispatches the state updates to the clusters. Output spikes are pushed
//! into per-cluster FIFOs and drained by the slice collector.
//!
//! # Structure-of-arrays membrane arena
//!
//! Since DESIGN.md §12 the membrane states of **all** clusters live in one
//! contiguous per-slice `Vec<i16>` (the *arena*), indexed by
//! `cluster_index * neurons_per_cluster + neuron_index` — i.e. by the
//! slice-local neuron address itself. A contiguous neuron span therefore is
//! a single contiguous `i16` stride regardless of how many cluster
//! boundaries it crosses, which is the shape the blocked
//! [`Kernel`] needs. The per-cluster TLU bookkeeping
//! (pending leaks, dirty flag, membrane bound, counters) stays in
//! [`Cluster`]; every state-touching cluster call receives its arena
//! segment explicitly. The arena carries [`BLOCK_LANES`] lanes of zeroed
//! padding behind the last cluster so the blocked kernel's full-vector tail
//! step is always in bounds.
//!
//! Planned convolutions on the blocked kernel keep their membranes in the
//! engine's channel-interleaved pass arena instead (DESIGN.md §12). The
//! slice then holds only its clusters' bookkeeping, which the arena drives
//! through the crate-private bookkeeping halves of the methods below: the
//! reset, import and export halves, the per-cluster update-run open and
//! close, and the fire-scan decisions of `fire_with`.

use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, ClusterState};
use crate::config::SneConfig;
use crate::mapping::{Contribution, LifHardwareParams};
use crate::plan::EventRow;
use crate::simd::{Kernel, BLOCK_LANES, LANE_FLOOR};

/// Statistics of one `UPDATE_OP` processed by a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateOutcome {
    /// Synaptic operations performed by this slice for the event.
    pub synaptic_ops: u64,
    /// Clusters that were active during the event window.
    pub active_clusters: u64,
    /// Clusters that were clock-gated during the event window.
    pub gated_clusters: u64,
}

/// Statistics of one `FIRE_OP` processed by a slice (test-only companion of
/// the allocation-free [`Slice::process_fire_into`]).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FireOutcome {
    /// Global output-neuron indices that fired, in cluster/TDM order.
    pub fired: Vec<usize>,
    /// Clusters that executed the scan.
    pub scanned_clusters: u64,
    /// Clusters that skipped the scan thanks to the TLU.
    pub skipped_clusters: u64,
}

/// Scan/skip accounting of one `FIRE_OP` (the fired neurons are appended to
/// a caller-provided buffer by [`Slice::process_fire_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FireScanSummary {
    /// Clusters that executed the scan.
    pub scanned_clusters: u64,
    /// Clusters that skipped the scan thanks to the TLU.
    pub skipped_clusters: u64,
}

/// Reusable per-block cluster-window scratch of the fused compiled datapath
/// ([`Slice::process_update_block_planned`]): one slot per cluster holding
/// the window's per-lane running maximum and tap count, validity-tagged by a
/// monotonically increasing block mark so no per-block clearing walk is
/// needed. Pure scratch — its contents between calls carry no meaning, so it
/// lives with the slice record's reusable buffers, not in the slice's
/// persisted state.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    /// Mark of the block currently (or last) using each slot.
    mark: Vec<u32>,
    /// Per-lane running membrane maxima of each cluster's open window.
    lanes: Vec<[i16; BLOCK_LANES]>,
    /// Synaptic taps accumulated into each cluster's open window.
    taps: Vec<u64>,
    /// Indices of the clusters the current block opened a window on, so
    /// the block-end close loop visits exactly those (at sparse activity a
    /// block touches one or two clusters, not the whole slice).
    touched: Vec<u32>,
    /// Mark of the current block (wraps; wrap resets every slot's mark).
    block: u32,
}

/// One slice of the engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    clusters: Vec<Cluster>,
    /// The membrane arena: every cluster's states back to back, indexed by
    /// slice-local neuron address, plus [`BLOCK_LANES`] lanes of padding
    /// (always zero) so the blocked kernel's tail step has room.
    membranes: Vec<i16>,
    /// Which membrane kernel runs the span/scan hot paths. Host-time choice
    /// only: every kernel is bit-exact (the scalar one is the oracle).
    kernel: Kernel,
    neurons_per_cluster: usize,
    /// `log2(neurons_per_cluster)` when it is a power of two (the paper's 64
    /// and every test geometry): the hot path then maps neuron → cluster
    /// with a shift instead of an integer division.
    cluster_shift: Option<u32>,
    /// Global output-neuron index of the first neuron mapped on this slice.
    base: usize,
    /// Number of output neurons mapped on this slice in the current pass.
    assigned: usize,
    /// Per-cluster epoch of the last event window that touched it, against
    /// [`Slice::epoch`]: the per-event cluster activity bookkeeping without
    /// any per-event clearing (and without per-event allocation).
    touch_epoch: Vec<u32>,
    /// Epoch of the current event window.
    epoch: u32,
    /// Number of dirty clusters (updated since their last executed fire
    /// scan), maintained at every dirty-flag transition so
    /// [`Slice::all_clusters_clean`] and the all-skip `FIRE_OP` fast path
    /// are one compare instead of a strided walk over every cluster.
    #[serde(default)]
    dirty_count: u32,
    /// Number of TLU-armed `FIRE_OP`s this slice processed. A clean
    /// cluster's skip at such a fire is **not posted** to the cluster —
    /// the cluster is simply left behind this epoch, and the skips it owes
    /// ([`Cluster::sync_skips`]) materialize right before its next
    /// per-cluster observation (update integration, executed scan, state
    /// export). A skipped fire therefore costs one increment here plus a
    /// read-only dirty check per cluster — no read-modify-write traffic
    /// across the cluster array — while every observable state stays
    /// bit-identical to eager per-cluster bookkeeping.
    #[serde(default)]
    fire_epoch: u64,
}

impl Slice {
    /// Creates a slice with the cluster geometry of `config`, running the
    /// host-default membrane kernel (see [`Kernel::auto`]).
    #[must_use]
    pub fn new(config: &SneConfig) -> Self {
        let clusters: Vec<Cluster> = (0..config.clusters_per_slice)
            .map(|_| Cluster::new(config.neurons_per_cluster))
            .collect();
        let capacity = config.clusters_per_slice * config.neurons_per_cluster;
        Self {
            clusters,
            membranes: vec![0; capacity + BLOCK_LANES],
            kernel: Kernel::auto(),
            neurons_per_cluster: config.neurons_per_cluster,
            cluster_shift: config
                .neurons_per_cluster
                .is_power_of_two()
                .then(|| config.neurons_per_cluster.trailing_zeros()),
            base: 0,
            assigned: 0,
            touch_epoch: vec![0; config.clusters_per_slice],
            epoch: 0,
            dirty_count: 0,
            fire_epoch: 0,
        }
    }

    /// The membrane kernel this slice runs.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the membrane kernel (bit-exact either way; host time only).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// Starts a new event window and returns its epoch (every cluster's
    /// touch mark is older by construction).
    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped after 2^32 event windows: restart the epoch space.
            self.touch_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Maximum number of neurons the slice can implement.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.clusters.len() * self.neurons_per_cluster
    }

    /// Global output-neuron range currently mapped on this slice.
    #[must_use]
    pub fn assigned_range(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.assigned
    }

    /// Configures the slice for a mapping pass: neurons
    /// `[base, base + count)` of the layer are implemented here. All neuron
    /// state is reset.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the slice capacity.
    pub fn configure_pass(&mut self, base: usize, count: usize) {
        self.configure_pass_for_resume(base, count);
        self.reset();
    }

    /// Configures the slice for a mapping pass **without** resetting neuron
    /// state: the caller is about to [`Slice::import_state`] a full snapshot
    /// (every cluster's membranes and TLU bookkeeping), which overwrites the
    /// state wholesale — the reset walk in between would be pure overhead.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the slice capacity.
    pub fn configure_pass_for_resume(&mut self, base: usize, count: usize) {
        assert!(
            count <= self.capacity(),
            "pass assignment exceeds slice capacity"
        );
        self.base = base;
        self.assigned = count;
    }

    /// Resets all neuron state (`RST_OP`): one pass over the arena plus the
    /// per-cluster bookkeeping.
    pub fn reset(&mut self) {
        self.membranes.fill(0);
        self.reset_bookkeeping();
    }

    /// The bookkeeping half of [`Slice::reset`], for a pass whose membranes
    /// live in the engine's pass arena.
    pub(crate) fn reset_bookkeeping(&mut self) {
        for cluster in &mut self.clusters {
            cluster.reset_bookkeeping();
        }
        self.dirty_count = 0;
        self.fire_epoch = 0;
    }

    /// Snapshots the architectural state of every cluster into `out`
    /// (one [`ClusterState`] per cluster, in cluster order).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly one slot per cluster.
    pub fn export_state(&self, out: &mut [ClusterState]) {
        self.export_bookkeeping(out);
        let npc = self.neurons_per_cluster;
        for (i, slot) in out.iter_mut().enumerate() {
            slot.states
                .copy_from_slice(&self.membranes[i * npc..(i + 1) * npc]);
        }
    }

    /// The bookkeeping half of [`Slice::export_state`]: every field of the
    /// snapshots but the membranes, which the caller fills.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly one slot per cluster or a slot
    /// has the wrong neuron count.
    pub(crate) fn export_bookkeeping(&self, out: &mut [ClusterState]) {
        assert_eq!(out.len(), self.clusters.len(), "cluster slot mismatch");
        for (cluster, slot) in self.clusters.iter().zip(out.iter_mut()) {
            cluster.snapshot_bookkeeping_into(slot);
            // Fold the not-yet-posted fire-scan skips into the snapshot:
            // the exported state is the synced (eager-bookkeeping) state.
            slot.pending_leak_steps += cluster.owed_skips(self.fire_epoch);
        }
    }

    /// Restores the architectural state of every cluster from `states`.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not hold exactly one snapshot per cluster or
    /// a snapshot has the wrong neuron count.
    pub fn import_state(&mut self, states: &[ClusterState]) {
        self.import_bookkeeping(states);
        let npc = self.neurons_per_cluster;
        for (i, state) in states.iter().enumerate() {
            self.membranes[i * npc..(i + 1) * npc].copy_from_slice(&state.states);
        }
    }

    /// The bookkeeping half of [`Slice::import_state`]: everything but the
    /// membranes, which the caller places.
    ///
    /// # Panics
    ///
    /// As [`Slice::import_state`].
    pub(crate) fn import_bookkeeping(&mut self, states: &[ClusterState]) {
        assert_eq!(states.len(), self.clusters.len(), "cluster slot mismatch");
        for (cluster, state) in self.clusters.iter_mut().zip(states) {
            cluster.restore_bookkeeping(state);
            // The imported snapshot is a synced state (export folds the
            // owed skips in), so nothing is owed anymore.
            cluster.mark_scanned(0);
        }
        self.fire_epoch = 0;
        self.dirty_count = states.iter().filter(|s| s.dirty).count() as u32;
    }

    /// Opens cluster `index` for an update run whose membranes live in the
    /// engine's pass arena: posts its owed skips, counts it dirty and
    /// returns the owed leak total the caller subtracts from its membranes
    /// (see [`Cluster::take_owed_leak`]). The arena's half of the span
    /// walk's `open_window`.
    #[inline]
    pub(crate) fn open_in_arena(&mut self, index: usize, params: LifHardwareParams) -> i32 {
        let cluster = &mut self.clusters[index];
        cluster.sync_skips(self.fire_epoch);
        self.dirty_count += u32::from(!cluster.is_dirty());
        cluster.take_owed_leak(params)
    }

    /// Closes cluster `index` after an update run in the pass arena (see
    /// [`Cluster::close_window`]).
    #[inline]
    pub(crate) fn close_in_arena(&mut self, index: usize, window_max: i16, taps: u64) {
        self.clusters[index].close_window(window_max, taps);
    }

    /// Ends the swept scan of cluster `index` (see
    /// [`Cluster::end_swept_scan`]).
    #[inline]
    pub(crate) fn end_swept_scan(&mut self, index: usize, max: i16, spikes: u64) {
        self.clusters[index].end_swept_scan(max, spikes);
    }

    /// Processes one `UPDATE_OP`: the contributions (already filtered to this
    /// slice's range by the address filter) are dispatched to the clusters,
    /// one [`Cluster::integrate`] call per synapse.
    ///
    /// This is the **naive reference datapath** — the per-synapse dispatch
    /// the compiled plan's batched window form
    /// ([`Slice::process_update_block_planned`]) is measured against and must
    /// reproduce bit-exactly. It is always scalar (the kernel choice only
    /// affects the planned spans and the fire scans).
    pub fn process_update(
        &mut self,
        contributions: &[Contribution],
        params: LifHardwareParams,
        clock_gating: bool,
    ) -> UpdateOutcome {
        let epoch = self.next_epoch();
        let range = self.assigned_range();
        let base = self.base;
        let npc = self.neurons_per_cluster;
        let shift = self.cluster_shift;
        let fire_epoch = self.fire_epoch;
        let clusters = &mut self.clusters[..];
        let membranes = &mut self.membranes[..];
        let touch_epoch = &mut self.touch_epoch[..];
        let mut dirty_count = self.dirty_count;
        let mut active = 0u64;
        for c in contributions {
            debug_assert!(range.contains(&c.neuron));
            let local = c.neuron - base;
            let cluster_index = match shift {
                Some(shift) => local >> shift,
                None => local / npc,
            };
            let cluster_start = cluster_index * npc;
            let cluster = &mut clusters[cluster_index];
            cluster.sync_skips(fire_epoch);
            dirty_count += u32::from(!cluster.is_dirty());
            cluster.integrate(
                &mut membranes[cluster_start..cluster_start + npc],
                local - cluster_start,
                c.weight,
                params,
            );
            if touch_epoch[cluster_index] != epoch {
                touch_epoch[cluster_index] = epoch;
                active += 1;
            }
        }
        self.dirty_count = dirty_count;
        let gated = if clock_gating {
            self.clusters.len() as u64 - active
        } else {
            // Without clock gating every cluster toggles during the event window.
            0
        };
        let active = if clock_gating {
            active
        } else {
            self.clusters.len() as u64
        };
        UpdateOutcome {
            synaptic_ops: contributions.len() as u64,
            active_clusters: active,
            gated_clusters: gated,
        }
    }

    /// The fused compiled datapath, block form: applies a run of consecutive
    /// `UPDATE_OP` event rows (resolved once per run by the engine against
    /// the compiled [`crate::plan::LayerPlan`]) and integrates their
    /// contributions **in place**, without materializing contribution lists.
    /// The borrow splitting and geometry setup happen once per block, not
    /// once per event — the op streams between `FIRE_OP` barriers are
    /// exactly such runs.
    ///
    /// Exploits the table structure the naive path does not have: weights
    /// are pre-resolved, each (output channel, kernel row) is one contiguous
    /// neuron span — a contiguous arena stride accumulated by the slice's
    /// [`Kernel`] — and every cluster's open/close (catch-up, dirty,
    /// counters) window round trip runs **once per block**, not once per
    /// event. That is exact because between the events of a block no
    /// observation point intervenes: the cluster's catch-up is idempotent
    /// while no `FIRE_OP` accrues pending leak, the dirty flag is only read
    /// at the fire barrier that ends the block, and the committed membrane
    /// bound is a running maximum — the maximum over the block's per-event
    /// maxima is bit-identical to chaining one close per event (which is in
    /// turn the naive oracle's running maximum over every written state).
    /// The bound stays **exact**, never an overestimate: it decides
    /// fire-scan walk elision, which the persisted TLU state can observe.
    ///
    /// Adds each event's synaptic ops into its entry of `event_ops` (one
    /// per row) and returns the **aggregated** outcome of the block.
    /// Bit-identical to resolving every event through
    /// [`LayerPlan::contributions_in_range_into`][crate::plan::LayerPlan::contributions_in_range_into]
    /// and dispatching via [`Slice::process_update`]: same states, same
    /// counters, same totals (within one event window each neuron receives
    /// at most one contribution, so apply order cannot matter).
    pub fn process_update_block_planned(
        &mut self,
        rows: &[EventRow<'_>],
        params: LifHardwareParams,
        clock_gating: bool,
        event_ops: &mut [u64],
        scratch: &mut WindowScratch,
    ) -> UpdateOutcome {
        let range = self.assigned_range();
        // Split the borrows and copy the geometry into locals once per
        // block: the cluster calls below take `&mut` into `clusters`, and
        // without the split the compiler must re-load every `self` field per
        // iteration (it cannot prove the calls leave them untouched).
        let base = self.base;
        let npc = self.neurons_per_cluster;
        let shift = self.cluster_shift;
        let kernel = self.kernel;
        let num_clusters = self.clusters.len() as u64;
        let mut epoch = self.epoch;
        let cluster_of = |local: usize| match shift {
            Some(shift) => local >> shift,
            None => local / npc,
        };
        // The output-channel window of the slice range is a per-layer
        // constant (every row of a block belongs to the same layer), so the
        // two divisions behind it run once per block, not once per event.
        // `(first output channel, last output channel, clamped range end)`,
        // with `first > last` encoding an empty intersection.
        let mut conv_channels: Option<(usize, usize, usize)> = None;
        let nclusters = self.clusters.len();
        if scratch.mark.len() != nclusters {
            scratch.mark.clear();
            scratch.mark.resize(nclusters, 0);
            scratch.lanes.resize(nclusters, LANE_FLOOR);
            scratch.taps.resize(nclusters, 0);
            scratch.block = 0;
        }
        scratch.block = scratch.block.wrapping_add(1);
        if scratch.block == 0 {
            // Wrapped after 2^32 blocks: restart the block-mark space.
            scratch.mark.iter_mut().for_each(|m| *m = 0);
            scratch.block = 1;
        }
        scratch.touched.clear();
        // Pin every per-cluster array to exactly `nclusters` entries and
        // clamp the computed cluster index below: together they let the
        // compiler drop the bounds check from the per-segment indexings of
        // the hot walk (the clamp is dead — a span can only land inside the
        // arena — but it is one `min` the optimizer can see).
        let clusters = &mut self.clusters[..nclusters];
        let touch_epoch = &mut self.touch_epoch[..nclusters];
        let membranes = &mut self.membranes[..];
        let mark = &mut scratch.mark[..nclusters];
        let lanes = &mut scratch.lanes[..nclusters];
        let taps = &mut scratch.taps[..nclusters];
        let touched = &mut scratch.touched;
        let block = scratch.block;
        let fire_epoch = self.fire_epoch;
        let mut dirty_count = self.dirty_count;
        // Opens a cluster's window unless this block already did: resets
        // its lane maximum and tap count, records it for the block-end
        // close, and settles the cluster (owed skips, dirty count, owed
        // leak) before anything accumulates into it.
        macro_rules! open_window {
            ($cluster_index:expr) => {
                let cluster_index = $cluster_index;
                if mark[cluster_index] != block {
                    mark[cluster_index] = block;
                    lanes[cluster_index] = LANE_FLOOR;
                    taps[cluster_index] = 0;
                    touched.push(cluster_index as u32);
                    let cluster = &mut clusters[cluster_index];
                    cluster.sync_skips(fire_epoch);
                    dirty_count += u32::from(!cluster.is_dirty());
                    let start = cluster_index * npc;
                    cluster.open_window(&mut membranes[start..start + npc], params, kernel);
                }
            };
        }
        let cluster_clamp = nclusters - 1;
        let mut aggregate = UpdateOutcome::default();
        for (row, event_total) in rows.iter().zip(event_ops) {
            epoch = epoch.wrapping_add(1);
            if epoch == 0 {
                // Wrapped after 2^32 event windows: restart the epoch space.
                touch_epoch.iter_mut().for_each(|e| *e = 0);
                epoch = 1;
            }
            let mut active = 0u64;
            let mut ops = 0u64;
            match *row {
                EventRow::Conv {
                    row_offsets,
                    weight_starts,
                    weights: pool,
                    rows_per_oc,
                    taps_per_row,
                    event_base,
                    plane,
                    total_neurons,
                } => {
                    // Only the output channels whose planes intersect the
                    // range can contribute (the address filter).
                    let (first_oc, last_oc, end) = *conv_channels.get_or_insert_with(|| {
                        let end = range.end.min(total_neurons);
                        if range.start < end {
                            (range.start / plane, (end - 1) / plane, end)
                        } else {
                            (1, 0, end)
                        }
                    });
                    if first_oc <= last_oc {
                        let first_span = first_oc * rows_per_oc;
                        let last_span = (last_oc + 1) * rows_per_oc;
                        let offsets = &row_offsets[first_span..last_span];
                        let starts = &weight_starts[first_span..last_span];
                        for (&offset, &start) in offsets.iter().zip(starts) {
                            let lowest = (event_base + i64::from(offset)) as usize;
                            // Clip the contiguous span to the slice range
                            // (a no-op for fully covered planes).
                            let lo = lowest.max(range.start);
                            let hi = (lowest + taps_per_row).min(end);
                            if lo >= hi {
                                continue;
                            }
                            // Open-ended weight slice (to the pool's padded
                            // end): the kernel's masked vector step can then
                            // always load a full weight vector.
                            let weights = &pool[start as usize + (lo - lowest)..];
                            let mut span_len = hi - lo;
                            let mut woff = 0usize;
                            let mut local = lo - base;
                            loop {
                                let cluster_index = cluster_of(local).min(cluster_clamp);
                                let cluster_start = cluster_index * npc;
                                let take = span_len.min(cluster_start + npc - local);
                                open_window!(cluster_index);
                                if touch_epoch[cluster_index] != epoch {
                                    touch_epoch[cluster_index] = epoch;
                                    active += 1;
                                }
                                kernel.accumulate_span_max(
                                    membranes,
                                    local,
                                    &weights[woff..],
                                    take,
                                    &mut lanes[cluster_index],
                                );
                                taps[cluster_index] += take as u64;
                                ops += take as u64;
                                span_len -= take;
                                if span_len == 0 {
                                    break;
                                }
                                local += take;
                                woff += take;
                            }
                        }
                    }
                }
                EventRow::Dense { weights, outputs } => {
                    // Dense outputs are contiguous: walk whole clusters.
                    let end = range.end.min(outputs);
                    let mut o = range.start.min(end);
                    while o < end {
                        let local = o - base;
                        let cluster_index = cluster_of(local).min(cluster_clamp);
                        let cluster_start = cluster_index * npc;
                        let run_end = end.min(base + cluster_start + npc);
                        open_window!(cluster_index);
                        if touch_epoch[cluster_index] != epoch {
                            touch_epoch[cluster_index] = epoch;
                            active += 1;
                        }
                        kernel.accumulate_span_max(
                            membranes,
                            local,
                            &weights[o..],
                            run_end - o,
                            &mut lanes[cluster_index],
                        );
                        taps[cluster_index] += (run_end - o) as u64;
                        ops += (run_end - o) as u64;
                        o = run_end;
                    }
                }
            }
            *event_total += ops;
            aggregate.synaptic_ops += ops;
            if clock_gating {
                aggregate.active_clusters += active;
                aggregate.gated_clusters += num_clusters - active;
            } else {
                // Without clock gating every cluster toggles per window.
                aggregate.active_clusters += num_clusters;
            }
        }
        // One close per cluster the block touched: commits the exact
        // block-wide membrane maximum (the horizontal lane reduction runs
        // once per cluster per block, never per span or per event), the
        // dirty flag and the tap counter in a single window round trip.
        // The touched list holds each opened cluster exactly once (guarded
        // by the block mark), so the close loop never walks the slice.
        for &cluster_index in touched.iter() {
            let cluster_index = cluster_index as usize;
            debug_assert_eq!(mark[cluster_index], block);
            clusters[cluster_index].close_window(
                kernel.reduce_lane_max(&lanes[cluster_index]),
                taps[cluster_index],
            );
        }
        self.epoch = epoch;
        self.dirty_count = dirty_count;
        aggregate
    }

    /// Single-event form of [`Slice::process_update_block_planned`] (the
    /// engine's span walk uses the block form; this one backs the unit
    /// tests).
    #[cfg(test)]
    fn process_update_planned(
        &mut self,
        row: EventRow<'_>,
        params: LifHardwareParams,
        clock_gating: bool,
    ) -> UpdateOutcome {
        self.process_update_block_planned(
            std::slice::from_ref(&row),
            params,
            clock_gating,
            &mut [0],
            &mut WindowScratch::default(),
        )
    }

    /// Processes one `FIRE_OP`: every cluster scans its TDM neurons and emits
    /// spikes for those above threshold. Returns global neuron indices.
    ///
    /// Test-only convenience: it allocates per call, so the public API is
    /// the allocation-free [`Slice::process_fire_into`], which the engine's
    /// hot path uses exclusively.
    #[cfg(test)]
    fn process_fire(&mut self, params: LifHardwareParams, tlu_enabled: bool) -> FireOutcome {
        let mut fired = Vec::new();
        let summary = self.process_fire_into(params, tlu_enabled, &mut fired);
        FireOutcome {
            fired,
            scanned_clusters: summary.scanned_clusters,
            skipped_clusters: summary.skipped_clusters,
        }
    }

    /// Processes one `FIRE_OP`: every cluster scans its TDM neurons and the
    /// global indices of firing neurons are appended to `out` (not cleared
    /// first), so the engine's span walk reuses one buffer per slice across
    /// the run.
    pub fn process_fire_into(
        &mut self,
        params: LifHardwareParams,
        tlu_enabled: bool,
        out: &mut Vec<usize>,
    ) -> FireScanSummary {
        let npc = self.neurons_per_cluster;
        let kernel = self.kernel;
        let (base, end) = (self.base, self.base + self.assigned);
        self.fire_with(params, tlu_enabled, |cluster_index, cluster, membranes| {
            let cluster_start = cluster_index * npc;
            let local_start = out.len();
            cluster.scan_walk(
                &mut membranes[cluster_start..cluster_start + npc],
                params,
                kernel,
                out,
            );
            // Shift the appended local indices to global addresses,
            // dropping neurons beyond the assigned range: they are
            // architectural padding (the last cluster of a pass may be
            // partially used) and can never have received a contribution,
            // so they never fire, but guard anyway.
            let mut write = local_start;
            for read in local_start..out.len() {
                let global = base + cluster_start + out[read];
                if global < end {
                    out[write] = global;
                    write += 1;
                }
            }
            out.truncate(write);
        })
    }

    /// The TLU and bound decisions of one `FIRE_OP`, in cluster order:
    /// skips and elided scans are settled here, and every cluster whose
    /// scan must walk its neurons is handed to `walk` (with its index and
    /// the slice's membranes) after its owed skips are posted. `walk` must
    /// perform exactly one executed scan of the cluster:
    /// [`Cluster::scan_walk`] over the slice's membranes, or the pass
    /// arena's swept scan.
    pub(crate) fn fire_with(
        &mut self,
        params: LifHardwareParams,
        tlu_enabled: bool,
        mut walk: impl FnMut(usize, &mut Cluster, &mut [i16]),
    ) -> FireScanSummary {
        // This op's post-fire epoch: skips are deferred by *not* advancing
        // a clean cluster to it (the owed skips materialize at the
        // cluster's next per-cluster observation, see `Slice::fire_epoch`),
        // executed scans advance their cluster past it explicitly.
        let next_epoch = self.fire_epoch + u64::from(tlu_enabled);
        // The all-clean fast path: when no cluster was updated since its
        // last scan, this `FIRE_OP` is a TLU skip for every one of them —
        // one compare and one increment, no cluster is touched at all. In
        // the steady state of sparse workloads most slices take this path
        // on most timesteps — it is what keeps the host-time floor of a
        // run event-bound instead of timestep-bound.
        if tlu_enabled && self.dirty_count == 0 {
            self.fire_epoch = next_epoch;
            return FireScanSummary {
                scanned_clusters: 0,
                skipped_clusters: self.clusters.len() as u64,
            };
        }
        let fire_epoch = self.fire_epoch;
        let membranes = &mut self.membranes[..];
        let mut dirty_count = self.dirty_count;
        let mut summary = FireScanSummary::default();
        for (cluster_index, cluster) in self.clusters.iter_mut().enumerate() {
            // The TLU skip decision hoisted out of [`Cluster::fire_scan_into`]:
            // a clean cluster's skip is deferred entirely — this branch is a
            // read-only load of the dirty flag, so the skip costs no
            // read-modify-write traffic and no arena machinery.
            let was_dirty = cluster.is_dirty();
            if tlu_enabled && !was_dirty {
                summary.skipped_clusters += 1;
                continue;
            }
            // An executing scan observes the cluster: settle any owed skips
            // first (a dirty cluster synced when the update arrived, so
            // this is one compare), then mark the scan as executed.
            cluster.sync_skips(fire_epoch);
            // Bound elision resolved before the walk machinery: a dirty
            // cluster whose membrane bound proves no spike is possible costs
            // one compare and three counter bumps, no arena segmentation.
            if !cluster.scan_elides(params) {
                walk(cluster_index, cluster, membranes);
            }
            cluster.mark_scanned(next_epoch);
            dirty_count -= u32::from(was_dirty);
            summary.scanned_clusters += 1;
        }
        self.dirty_count = dirty_count;
        self.fire_epoch = next_epoch;
        summary
    }

    /// Whether every cluster is clean (no update since its last executed
    /// fire scan), i.e. the next `FIRE_OP` would TLU-skip all of them. One
    /// compare against the maintained dirty-cluster count — the worker's
    /// all-fire-tail fast-forward gates on this per remaining op.
    #[must_use]
    pub fn all_clusters_clean(&self) -> bool {
        debug_assert_eq!(
            self.dirty_count as usize,
            self.clusters.iter().filter(|c| c.is_dirty()).count(),
            "slice dirty-cluster count out of sync"
        );
        self.dirty_count == 0
    }

    /// Applies the TLU skip bookkeeping of `n` consecutive `FIRE_OP`s to
    /// every cluster at once — bit-identical to `n` calls of
    /// [`Slice::process_fire_into`] on a slice whose clusters are all clean
    /// (each such call is a skip for every cluster and fires nothing). Only
    /// valid while [`Slice::all_clusters_clean`] holds; skips keep every
    /// cluster clean, so one check covers all `n` — and the skips are
    /// deferred via the fire epoch, making the whole batch O(1).
    pub fn note_skipped_fires(&mut self, n: u32) {
        debug_assert!(self.all_clusters_clean());
        self.fire_epoch += u64::from(n);
    }

    /// Total synaptic operations performed by this slice's clusters.
    #[must_use]
    pub fn synaptic_ops(&self) -> u64 {
        self.clusters
            .iter()
            .map(|c| c.counters().synaptic_ops)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Contribution;

    fn small_config() -> SneConfig {
        SneConfig {
            clusters_per_slice: 4,
            neurons_per_cluster: 8,
            ..SneConfig::default()
        }
    }

    const PARAMS: LifHardwareParams = LifHardwareParams {
        leak: 0,
        threshold: 5,
    };

    #[test]
    fn capacity_is_clusters_times_neurons() {
        let slice = Slice::new(&small_config());
        assert_eq!(slice.num_clusters(), 4);
        assert_eq!(slice.capacity(), 32);
    }

    #[test]
    fn configure_pass_sets_range_and_resets() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(64, 20);
        assert_eq!(slice.assigned_range(), 64..84);
    }

    #[test]
    #[should_panic(expected = "exceeds slice capacity")]
    fn oversized_pass_panics() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(0, 33);
    }

    #[test]
    fn update_routes_contributions_to_the_right_cluster() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(0, 32);
        let contributions = [
            Contribution {
                neuron: 0,
                weight: 3,
            },
            Contribution {
                neuron: 9,
                weight: 4,
            }, // cluster 1, neuron 1
            Contribution {
                neuron: 31,
                weight: -2,
            }, // cluster 3, neuron 7
        ];
        let outcome = slice.process_update(&contributions, PARAMS, true);
        assert_eq!(outcome.synaptic_ops, 3);
        assert_eq!(outcome.active_clusters, 3);
        assert_eq!(outcome.gated_clusters, 1);
        assert_eq!(slice.synaptic_ops(), 3);
    }

    #[test]
    fn update_respects_base_offset() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(100, 32);
        let contributions = [Contribution {
            neuron: 100,
            weight: 7,
        }];
        let outcome = slice.process_update(&contributions, PARAMS, true);
        assert_eq!(outcome.synaptic_ops, 1);
        // Neuron 100 maps to cluster 0, local neuron 0; it should fire.
        let fire = slice.process_fire(PARAMS, true);
        assert_eq!(fire.fired, vec![100]);
    }

    #[test]
    fn clock_gating_off_activates_every_cluster() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(0, 32);
        let contributions = [Contribution {
            neuron: 0,
            weight: 1,
        }];
        let outcome = slice.process_update(&contributions, PARAMS, false);
        assert_eq!(outcome.active_clusters, 4);
        assert_eq!(outcome.gated_clusters, 0);
    }

    #[test]
    fn exported_state_resumes_on_a_fresh_slice() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(0, 32);
        let _ = slice.process_update(
            &[Contribution {
                neuron: 9,
                weight: 4,
            }],
            PARAMS,
            true,
        );
        let mut saved = vec![ClusterState::resting(8); 4];
        slice.export_state(&mut saved);

        let mut resumed = Slice::new(&small_config());
        // The resume form skips the reset: import_state overwrites
        // everything anyway.
        resumed.configure_pass_for_resume(0, 32);
        resumed.import_state(&saved);
        // One more contribution pushes neuron 9 over the threshold on both.
        for s in [&mut slice, &mut resumed] {
            let _ = s.process_update(
                &[Contribution {
                    neuron: 9,
                    weight: 2,
                }],
                PARAMS,
                true,
            );
        }
        assert_eq!(
            slice.process_fire(PARAMS, true).fired,
            resumed.process_fire(PARAMS, true).fired
        );
    }

    #[test]
    fn fire_reports_scanned_and_skipped_clusters() {
        let mut slice = Slice::new(&small_config());
        slice.configure_pass(0, 32);
        // Only cluster 0 receives an update.
        let _ = slice.process_update(
            &[Contribution {
                neuron: 0,
                weight: 7,
            }],
            PARAMS,
            true,
        );
        let fire = slice.process_fire(PARAMS, true);
        assert_eq!(fire.fired, vec![0]);
        assert_eq!(fire.scanned_clusters, 1);
        assert_eq!(fire.skipped_clusters, 3);
        // Without TLU every cluster scans.
        let fire = slice.process_fire(PARAMS, false);
        assert_eq!(fire.scanned_clusters, 4);
    }

    #[test]
    fn scalar_and_blocked_slices_agree_on_planned_updates() {
        // A dense row that crosses every cluster boundary of the slice,
        // applied via the planned path under both kernels, must leave
        // bit-identical state and fire the same neurons.
        let weights: Vec<i8> = (0..32).map(|i| (i as i8) - 16).collect();
        let mut outcomes = Vec::new();
        let mut states = Vec::new();
        let mut fired = Vec::new();
        for kernel in [Kernel::Scalar, Kernel::Blocked] {
            let mut slice = Slice::new(&small_config());
            slice.set_kernel(kernel);
            assert_eq!(slice.kernel(), kernel);
            slice.configure_pass(0, 32);
            for _ in 0..12 {
                outcomes.push(slice.process_update_planned(
                    EventRow::Dense {
                        weights: &weights,
                        outputs: weights.len(),
                    },
                    PARAMS,
                    true,
                ));
            }
            let mut saved = vec![ClusterState::resting(8); 4];
            slice.export_state(&mut saved);
            states.push(saved);
            fired.push(slice.process_fire(PARAMS, true).fired);
        }
        assert_eq!(outcomes[..12], outcomes[12..]);
        assert_eq!(states[0], states[1]);
        assert_eq!(fired[0], fired[1]);
    }
}
