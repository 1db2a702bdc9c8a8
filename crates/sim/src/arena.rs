//! The pass arena: convolution passes on a channel-interleaved membrane
//! arena, walked once for all of a pass's slices.
//!
//! The hardware broadcasts each input event to every slice at once (paper
//! §III-D.4), so one event costs one receptive-field window across every
//! output channel of the pass. The per-slice span walk
//! ([`crate::slice::Slice::process_update_block_planned`]) instead visits
//! each (slice, output channel, kernel row) separately. Where every cluster
//! lies inside one output-channel plane (`plane % neurons_per_cluster == 0`)
//! and every pass holds whole planes (`neurons_per_pass % plane == 0`), the
//! engine runs a planned convolution on [`crate::Kernel::Blocked`] here
//! instead, after the interlaced membrane memory of Sommer et al. (arXiv
//! 2203.12437):
//!
//! * **Layout.** One `i16` arena per pass, `[in-plane position][lane]`,
//!   where lane `l` is the pass's `l`-th output channel, padded to a whole
//!   number of [`BLOCK_LANES`] vectors (the *stride*). An event's k×k window
//!   is then k² contiguous rows, one per tap, each updating every channel of
//!   the pass in whole vectors with one row of the plan's
//!   `[in_channel][ky][kx][out_channel]` tap table.
//! * **Clusters.** Cluster `c` of the pass (slice `c / clusters_per_slice`)
//!   is (lane `c / blocks`, block `c % blocks`): its lane at the in-plane
//!   positions `block·npc .. (block+1)·npc`. The bookkeeping (pending leak,
//!   dirty flag, bound, fire epoch) stays in the slices. Clusters of an
//!   active slice past the pass's channels (the unused tail of the last
//!   slice) get lanes past the channel lanes: no event updates them, but
//!   their state is swept, imported and exported like any other's.
//! * **Update runs** (the `UPDATE_OP`s between two `FIRE_OP`s) open each
//!   touched block once: every lane's cluster posts its owed skips, joins
//!   the dirty count and has its owed leak applied as one per-lane vector
//!   over the block's rows. Each tap accumulates `clamp(state + w)` into its
//!   row and a per-block, per-lane running maximum; at the run's end lane
//!   `l`'s maximum closes cluster (l, block), so the bound stays exact. A
//!   block's taps are the same for every lane.
//! * **Counts.** Each active slice gets its synaptic ops and its active and
//!   gated clusters per update run from per-(block, slice) lane counts:
//!   exactly the span walk's per-slice figures. An event's synaptic ops,
//!   its taps times the pass's channels, go once into the engine's per-event
//!   totals.
//! * **`FIRE_OP`s** take the slices' own TLU and bound decisions
//!   ([`Slice::fire_with`]), in slice and cluster order; the clusters left
//!   to walk are swept together per block, one vector pass over the
//!   block's rows per group of lanes holding one, with the owed leak and
//!   the scan's leak step fused per lane (both carry the leak's sign, so one
//!   clamp equals two). Lanes not walking get total 0 and an unreachable
//!   threshold and keep their state. Spikes leave in cluster order,
//!   ascending neuron, from per-lane bit masks, so clusters hold at most 64
//!   neurons.
//! * **State.** A resumed pass scatters the slices' [`ClusterState`]s into
//!   the arena and a stateful pass gathers them back, a block at a time
//!   through a `[lane][position]` staging transpose; a block nothing wrote
//!   since the arena was zeroed exports zeros. Nothing else crosses between
//!   the arena and the slices' own membranes.
//!
//! Every count, state, trace and output is bit-identical to the span walk,
//! which remains the oracle (`tests/kernel_equivalence.rs`).

use sne_event::{Event, EventOp};

use crate::cluster::ClusterState;
use crate::config::SneConfig;
use crate::mapping::LifHardwareParams;
use crate::plan::ConvTaps;
use crate::simd::{accumulate_lanes, leak_lanes, sweep_lanes, transpose_lanes, BLOCK_LANES};
use crate::slice::Slice;
use crate::state::LayerState;
use crate::worker::{SliceRecord, WorkerContext};

/// A threshold no membrane reaches: a lane swept with it and a zero leak
/// total keeps its state.
const UNREACHABLE: i16 = i16::MAX;

/// The widest cluster the sweep's per-lane spike masks hold.
const MAX_CLUSTER_NEURONS: usize = 64;

/// Whether the arena can run `conv` on an engine configured as `config`.
pub(crate) fn fits(conv: &ConvTaps<'_>, config: &SneConfig) -> bool {
    let plane = conv.width * conv.height;
    let npc = config.neurons_per_cluster;
    let per_pass = config.num_slices * config.neurons_per_slice();
    npc <= MAX_CLUSTER_NEURONS && plane % npc == 0 && per_pass % plane == 0
}

/// Where one pass's clusters sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Feature-map width.
    width: usize,
    /// Feature-map height.
    height: usize,
    /// Kernel size.
    kernel: usize,
    /// The layer's output channels (the tap table's row length).
    out_channels: usize,
    /// Neurons per cluster.
    npc: usize,
    /// `log2(npc)` when it is a power of two (the paper's 64): block lookups
    /// then shift instead of dividing.
    npc_shift: Option<u32>,
    /// Clusters per slice.
    cps: usize,
    /// Blocks (clusters) per plane.
    blocks: usize,
    /// The pass's first output channel.
    first_channel: usize,
    /// The pass's output channels: the lanes events update.
    channels: usize,
    /// Slices holding neurons of the pass (a prefix of the slices).
    active: usize,
    /// Lanes per in-plane position, a whole number of vectors.
    stride: usize,
}

impl Layout {
    /// Lane and block of cluster `cluster` of slice `slice`.
    fn lane_block(&self, slice: usize, cluster: usize) -> (usize, usize) {
        let c = slice * self.cps + cluster;
        (c / self.blocks, c % self.blocks)
    }

    /// The pass's cluster (its slot in [`LayerState::pass_state`]) at
    /// (lane, block), if an active slice holds it.
    fn cluster_at(&self, lane: usize, block: usize) -> Option<usize> {
        let cluster = lane * self.blocks + block;
        (cluster < self.active * self.cps).then_some(cluster)
    }

    /// (slice, cluster) of every channel lane's cluster in `block`, in lane
    /// order. Lane `l`'s cluster is `l·blocks + block`; stepping by
    /// `blocks` needs no division per lane.
    fn lane_clusters(&self, block: usize) -> impl Iterator<Item = (usize, usize)> {
        let (cps, step_slices, step_clusters) =
            (self.cps, self.blocks / self.cps, self.blocks % self.cps);
        let (mut slice, mut cluster) = (block / cps, block % cps);
        (0..self.channels).map(move |_| {
            let at = (slice, cluster);
            slice += step_slices;
            cluster += step_clusters;
            if cluster >= cps {
                cluster -= cps;
                slice += 1;
            }
            at
        })
    }

    /// The block holding in-plane position `position`.
    #[inline]
    fn block_of(&self, position: usize) -> usize {
        match self.npc_shift {
            Some(shift) => position >> shift,
            None => position / self.npc,
        }
    }

    /// The arena rows (in-plane positions) of `block`.
    fn block_rows(&self, block: usize) -> std::ops::Range<usize> {
        block * self.npc * self.stride..(block + 1) * self.npc * self.stride
    }
}

/// A cluster whose `FIRE_OP` scan walks its neurons.
#[derive(Debug, Clone, Copy)]
struct Walker {
    slice: usize,
    cluster: usize,
    lane: usize,
    block: usize,
}

/// The engine's reusable pass arena and its scratch (capacity kept across
/// passes and runs; allocated on first use).
#[derive(Debug, Default)]
pub(crate) struct PassArena {
    /// Membranes, `[in-plane position][lane]`, `stride` lanes per position.
    membranes: Vec<i16>,
    /// Length of the prefix of `membranes` known to be all zero: a
    /// `RST_OP` right after a pass starts at rest skips its fill.
    zeroed: usize,
    /// Per-(block, lane) running maximum of the open update run; after a
    /// sweep, the swept lanes' maximum.
    block_max: Vec<i16>,
    /// Per-block taps of the open update run.
    block_taps: Vec<u64>,
    /// Per-block events of the open update run that touched the block.
    block_events: Vec<u64>,
    /// Per-block mark: equals `mark` when the block is open in the current
    /// update run or registered for the current sweep.
    block_mark: Vec<u32>,
    /// Per-block flag: the block may hold a non-zero membrane (it was
    /// written since the arena was last zeroed). Export fills the clusters
    /// of other blocks with zeros instead of transposing them.
    block_live: Vec<bool>,
    mark: u32,
    /// The blocks the current run opened or the current sweep registered.
    touched: Vec<usize>,
    /// `lane_counts[block * active + slice]`: channel lanes whose cluster in
    /// `block` sits in `slice`.
    lane_counts: Vec<u32>,
    /// Per-(block, lane) leak totals: block opens use the first row.
    totals: Vec<i16>,
    /// Per-(block, lane) sweep thresholds.
    thresholds: Vec<i16>,
    /// Per-block lowest and highest walking lane of the current sweep.
    sweep_spans: Vec<(usize, usize)>,
    /// Per-(block, lane) fired-position masks of the current sweep.
    fired: Vec<u64>,
    /// The current `FIRE_OP`'s walking clusters, in slice and cluster
    /// order.
    walkers: Vec<Walker>,
    /// The current event's touched blocks and their taps, in tap order.
    event_blocks: Vec<(usize, u64)>,
    /// One block's membranes transposed to `[lane][position]`, the layout
    /// of a cluster's snapshot: state import and export stage here.
    staging: Vec<i16>,
}

impl PassArena {
    /// Runs mapping pass `pass` of the convolution `conv` over every slice
    /// of the engine: fills each slice's record and adds each event's
    /// synaptic ops into `event_ops` exactly as
    /// [`crate::worker::run_slice_pass`] would, and with `state` persists
    /// the pass's share of it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_pass(
        &mut self,
        conv: &ConvTaps<'_>,
        config: &SneConfig,
        pass: usize,
        slices: &mut [Slice],
        records: &mut [SliceRecord],
        state: Option<&mut LayerState>,
        ctx: &WorkerContext<'_>,
        event_ops: &mut [u64],
    ) {
        let plane = conv.width * conv.height;
        let nps = config.neurons_per_slice();
        let per_pass = config.num_slices * nps;
        let total = conv.out_channels * plane;
        let first = pass * per_pass;
        let pass_neurons = per_pass.min(total - first);
        let active = pass_neurons.div_ceil(nps);
        let blocks = plane / config.neurons_per_cluster;
        let layout = Layout {
            width: conv.width,
            height: conv.height,
            kernel: conv.kernel,
            out_channels: conv.out_channels,
            npc: config.neurons_per_cluster,
            npc_shift: config
                .neurons_per_cluster
                .is_power_of_two()
                .then(|| config.neurons_per_cluster.trailing_zeros()),
            cps: config.clusters_per_slice,
            blocks,
            first_channel: first / plane,
            channels: pass_neurons / plane,
            active,
            stride: (active * config.clusters_per_slice)
                .div_ceil(blocks)
                .next_multiple_of(BLOCK_LANES),
        };
        self.prepare(&layout);

        for (s, record) in records.iter_mut().enumerate() {
            record.clear();
            record.active = s < active;
        }
        match (ctx.resume, state.as_deref()) {
            (true, Some(st)) => {
                for (s, slice) in slices[..active].iter_mut().enumerate() {
                    slice.import_bookkeeping(st.slice_state(pass, s));
                }
                self.scatter(&layout, st, pass);
            }
            _ => {
                for slice in &mut slices[..active] {
                    slice.reset_bookkeeping();
                }
                self.zero(&layout);
            }
        }

        self.walk_ops(&layout, conv.weights, slices, records, ctx, event_ops);

        if let Some(st) = state {
            for (s, slice) in slices[..active].iter().enumerate() {
                slice.export_bookkeeping(st.slice_state_mut(pass, s));
            }
            self.gather(&layout, st, pass);
            // Idle slices hand back what they were given: the imported
            // state on resume, rest otherwise.
            if !ctx.resume {
                for s in active..slices.len() {
                    st.slice_state_mut(pass, s)
                        .iter_mut()
                        .for_each(ClusterState::reset);
                }
            }
        }
    }

    /// Sizes the arena and the per-block scratch for `layout` and counts
    /// its lanes per (block, slice).
    fn prepare(&mut self, layout: &Layout) {
        let cells = layout.blocks * layout.stride;
        let positions = layout.blocks * layout.npc * layout.stride;
        if self.membranes.len() < positions {
            self.membranes.resize(positions, 0);
        }
        for scratch in [&mut self.block_max, &mut self.totals, &mut self.thresholds] {
            if scratch.len() < cells {
                scratch.resize(cells, 0);
            }
        }
        if self.fired.len() < cells {
            self.fired.resize(cells, 0);
        }
        if self.staging.len() < layout.stride * layout.npc {
            self.staging.resize(layout.stride * layout.npc, 0);
        }
        if self.block_mark.len() < layout.blocks {
            self.block_mark.resize(layout.blocks, 0);
            self.block_live.resize(layout.blocks, true);
            self.block_taps.resize(layout.blocks, 0);
            self.block_events.resize(layout.blocks, 0);
            self.sweep_spans.resize(layout.blocks, (0, 0));
        }
        self.lane_counts.clear();
        self.lane_counts.resize(layout.blocks * layout.active, 0);
        for block in 0..layout.blocks {
            for (slice, _) in layout.lane_clusters(block) {
                self.lane_counts[block * layout.active + slice] += 1;
            }
        }
    }

    /// Zeroes the pass's arena (a `RST_OP`, or a pass starting at rest).
    fn zero(&mut self, layout: &Layout) {
        let positions = layout.blocks * layout.npc * layout.stride;
        if self.zeroed < positions {
            self.membranes[..positions].fill(0);
            self.zeroed = positions;
        }
        self.block_live.fill(false);
    }

    /// Places the pass's imported membranes into the arena, a block at a
    /// time through the staging transpose (lanes without a cluster get 0).
    fn scatter(&mut self, layout: &Layout, state: &LayerState, pass: usize) {
        let (npc, stride) = (layout.npc, layout.stride);
        let slots = state.pass_state(pass);
        for block in 0..layout.blocks {
            for lane in 0..stride {
                let row = &mut self.staging[lane * npc..(lane + 1) * npc];
                match layout.cluster_at(lane, block) {
                    Some(cluster) => row.copy_from_slice(&slots[cluster].states),
                    None => row.fill(0),
                }
            }
            let rows = &mut self.membranes[layout.block_rows(block)];
            transpose_lanes(&self.staging, npc, rows, stride, stride, npc);
        }
        self.zeroed = 0;
        self.block_live.fill(true);
    }

    /// Copies the pass's membranes out of the arena into its cluster
    /// slots, a block at a time through the staging transpose.
    fn gather(&mut self, layout: &Layout, state: &mut LayerState, pass: usize) {
        let (npc, stride) = (layout.npc, layout.stride);
        let slots = state.pass_state_mut(pass);
        for block in 0..layout.blocks {
            let live = self.block_live[block];
            if live {
                let rows = &self.membranes[layout.block_rows(block)];
                transpose_lanes(rows, stride, &mut self.staging, npc, npc, stride);
            }
            for lane in 0..stride {
                if let Some(cluster) = layout.cluster_at(lane, block) {
                    let states = &mut slots[cluster].states;
                    if live {
                        states.copy_from_slice(&self.staging[lane * npc..(lane + 1) * npc]);
                    } else {
                        states.fill(0);
                    }
                }
            }
        }
    }

    /// Starts a new update run or sweep: every block's mark is older.
    fn next_mark(&mut self) -> u32 {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            // Wrapped after 2^32 marks: restart the mark space.
            self.block_mark.fill(0);
            self.mark = 1;
        }
        self.touched.clear();
        self.mark
    }

    /// Consumes the run's op sequence for every active slice of the pass.
    fn walk_ops(
        &mut self,
        layout: &Layout,
        weights: &[i8],
        slices: &mut [Slice],
        records: &mut [SliceRecord],
        ctx: &WorkerContext<'_>,
        event_ops: &mut [u64],
    ) {
        let ops = ctx.ops;
        let slices = &mut slices[..layout.active];
        let records = &mut records[..layout.active];
        // The all-fire tail, as in `run_slice_pass`: once every cluster of
        // every slice is clean there, the remaining `FIRE_OP`s are TLU
        // skips for all of them.
        let mut tail_fires = ops.len();
        while tail_fires > 0 && ops[tail_fires - 1].op == EventOp::Fire {
            tail_fires -= 1;
        }
        let (mut index, mut update_index) = (0, 0);
        while index < ops.len() {
            if ctx.tlu_enabled
                && index >= tail_fires
                && slices.iter().all(Slice::all_clusters_clean)
            {
                let fires = ops.len() - index;
                let skipped = (layout.cps * layout.npc * fires) as u64;
                for (slice, record) in slices.iter_mut().zip(records.iter_mut()) {
                    slice.note_skipped_fires(fires as u32);
                    record.tlu_skipped_updates += skipped;
                    record.scanned.resize(record.scanned.len() + fires, false);
                    record
                        .fire_counts
                        .resize(record.fire_counts.len() + fires, 0);
                }
                break;
            }
            match ops[index].op {
                EventOp::Reset => {
                    self.zero(layout);
                    slices.iter_mut().for_each(Slice::reset_bookkeeping);
                }
                EventOp::Update => {
                    let mut end = index + 1;
                    while end < ops.len() && ops[end].op == EventOp::Update {
                        end += 1;
                    }
                    let totals = &mut event_ops[update_index..update_index + (end - index)];
                    self.update_run(
                        &ops[index..end],
                        layout,
                        weights,
                        slices,
                        records,
                        ctx,
                        totals,
                    );
                    update_index += end - index;
                    index = end - 1;
                }
                EventOp::Fire => self.fire(ops[index].t, layout, slices, records, ctx),
            }
            index += 1;
        }
    }

    /// One update run: the `UPDATE_OP`s between two `FIRE_OP`s, with one
    /// per-event synaptic-ops total each.
    #[allow(clippy::too_many_arguments)]
    fn update_run(
        &mut self,
        events: &[Event],
        layout: &Layout,
        weights: &[i8],
        slices: &mut [Slice],
        records: &mut [SliceRecord],
        ctx: &WorkerContext<'_>,
        event_ops: &mut [u64],
    ) {
        let mark = self.next_mark();
        self.zeroed = 0;
        let (width, kernel, stride) = (layout.width, layout.kernel, layout.stride);
        let half = kernel / 2;
        for (event, total) in events.iter().zip(event_ops) {
            let (ch, x, y) = (
                usize::from(event.ch),
                usize::from(event.x),
                usize::from(event.y),
            );
            // The taps whose output (y + half - ky, x + half - kx) lies in
            // the map: per kernel row, output columns `x_lo..=x_hi`, whose
            // reversed-kx weight rows ascend with them. Rows are visited in
            // descending output position, and each row's block segments
            // too, so a block's taps are consecutive.
            let ky_lo = (y + half).saturating_sub(layout.height - 1);
            let ky_hi = (y + half).min(kernel - 1);
            let x_lo = x.saturating_sub(half);
            let x_hi = (x + half).min(width - 1);
            self.event_blocks.clear();
            for ky in ky_lo..=ky_hi {
                let row = (y + half - ky) * width;
                // Weight row of output column `x_lo`: reversed kx
                // `x_lo + half - x`.
                let taps = ((ch * kernel + ky) * kernel + x_lo + half - x) * layout.out_channels
                    + layout.first_channel;
                let (lo, mut top) = (row + x_lo, row + x_hi);
                loop {
                    let block = layout.block_of(top);
                    let bottom = lo.max(block * layout.npc);
                    let count = top - bottom + 1;
                    match self.event_blocks.last_mut() {
                        Some((last, counted)) if *last == block => *counted += count as u64,
                        _ => {
                            if self.block_mark[block] != mark {
                                self.open_block(block, mark, layout, slices, ctx.params);
                            }
                            self.event_blocks.push((block, count as u64));
                        }
                    }
                    accumulate_lanes(
                        &mut self.membranes[bottom * stride..],
                        stride,
                        &weights[taps + (bottom - lo) * layout.out_channels..],
                        layout.out_channels,
                        count,
                        layout.channels,
                        &mut self.block_max[block * stride..(block + 1) * stride],
                    );
                    if bottom == lo {
                        break;
                    }
                    top = bottom - 1;
                }
            }
            let mut taps = 0;
            for &(block, block_taps) in &self.event_blocks {
                self.block_taps[block] += block_taps;
                self.block_events[block] += 1;
                taps += block_taps;
            }
            // Every tap updates every channel lane of the pass.
            *total += taps * layout.channels as u64;
        }
        // The run's totals per slice: every event window counts each
        // slice's touched clusters active and the rest gated.
        let windows = events.len() as u64 * layout.cps as u64;
        for (s, record) in records.iter_mut().enumerate() {
            let mut active = 0;
            for &block in &self.touched {
                let lanes = u64::from(self.lane_counts[block * layout.active + s]);
                record.synaptic_ops += lanes * self.block_taps[block];
                active += lanes * self.block_events[block];
            }
            if ctx.clock_gating {
                record.active_cluster_windows += active;
                record.gated_cluster_windows += windows - active;
            } else {
                // Without clock gating every cluster toggles per window.
                record.active_cluster_windows += windows;
            }
        }
        for &block in &self.touched {
            let max = &self.block_max[block * stride..];
            for (lane, (s, cluster)) in layout.lane_clusters(block).enumerate() {
                slices[s].close_in_arena(cluster, max[lane], self.block_taps[block]);
            }
        }
    }

    /// Opens `block` for the current update run: settles every lane's
    /// cluster and applies their owed leak in one per-lane pass.
    fn open_block(
        &mut self,
        block: usize,
        mark: u32,
        layout: &Layout,
        slices: &mut [Slice],
        params: LifHardwareParams,
    ) {
        let stride = layout.stride;
        self.block_mark[block] = mark;
        self.block_live[block] = true;
        self.touched.push(block);
        self.block_taps[block] = 0;
        self.block_events[block] = 0;
        self.block_max[block * stride..(block + 1) * stride].fill(i16::from(i8::MIN));
        let totals = &mut self.totals[..stride];
        totals.fill(0);
        let mut owed = false;
        for (lane, (s, cluster)) in layout.lane_clusters(block).enumerate() {
            let total = slices[s].open_in_arena(cluster, params);
            totals[lane] = total.clamp(-256, 256) as i16;
            owed |= total != 0;
        }
        if owed {
            let rows = &mut self.membranes[layout.block_rows(block)];
            for (group, lanes) in totals.chunks_exact(BLOCK_LANES).enumerate() {
                if lanes.iter().any(|&t| t != 0) {
                    let lanes = lanes.try_into().expect("one vector of lanes");
                    leak_lanes(&mut rows[group * BLOCK_LANES..], stride, layout.npc, lanes);
                }
            }
        }
    }

    /// One `FIRE_OP` for every active slice.
    fn fire(
        &mut self,
        time: u32,
        layout: &Layout,
        slices: &mut [Slice],
        records: &mut [SliceRecord],
        ctx: &WorkerContext<'_>,
    ) {
        let mark = self.next_mark();
        self.walkers.clear();
        let (stride, npc, params) = (layout.stride, layout.npc, ctx.params);
        let Self {
            block_mark,
            touched,
            totals,
            thresholds,
            sweep_spans: spans,
            walkers,
            ..
        } = self;
        // Decide in slice and cluster order; walking clusters only register.
        for (s, (slice, record)) in slices.iter_mut().zip(records.iter_mut()).enumerate() {
            let summary = slice.fire_with(params, ctx.tlu_enabled, |cluster, state, _| {
                let total = state.begin_swept_scan(params);
                let (lane, block) = layout.lane_block(s, cluster);
                let row = block * stride;
                if block_mark[block] != mark {
                    block_mark[block] = mark;
                    touched.push(block);
                    totals[row..row + stride].fill(0);
                    thresholds[row..row + stride].fill(UNREACHABLE);
                    spans[block] = (lane, lane);
                }
                totals[row + lane] = total;
                thresholds[row + lane] = params.threshold;
                let span = &mut spans[block];
                *span = (span.0.min(lane), span.1.max(lane));
                walkers.push(Walker {
                    slice: s,
                    cluster,
                    lane,
                    block,
                });
            });
            record.scanned.push(summary.scanned_clusters > 0);
            record.tlu_skipped_updates += summary.skipped_clusters * npc as u64;
        }
        if self.walkers.is_empty() {
            records.iter_mut().for_each(|r| r.fire_counts.push(0));
            return;
        }
        self.zeroed = 0;
        // Sweep each block once per group of lanes holding a walker.
        for &block in &self.touched {
            self.block_live[block] = true;
            let (lo, hi) = self.sweep_spans[block];
            let rows = layout.block_rows(block).start;
            for group in lo / BLOCK_LANES..=hi / BLOCK_LANES {
                let lane = group * BLOCK_LANES;
                let cell = block * stride + lane..block * stride + lane + BLOCK_LANES;
                let max = sweep_lanes(
                    &mut self.membranes[rows + lane..],
                    stride,
                    npc,
                    self.totals[cell.clone()].try_into().expect("one vector"),
                    self.thresholds[cell.clone()]
                        .try_into()
                        .expect("one vector"),
                    (&mut self.fired[cell.clone()])
                        .try_into()
                        .expect("one vector"),
                );
                self.block_max[cell].copy_from_slice(&max);
            }
        }
        // Commit and emit in slice and cluster order.
        let mut walkers = self.walkers.iter().peekable();
        for (s, (slice, record)) in slices.iter_mut().zip(records.iter_mut()).enumerate() {
            let before = record.fired.len();
            while let Some(walker) = walkers.next_if(|w| w.slice == s) {
                let cell = walker.block * stride + walker.lane;
                let mut spikes = self.fired[cell];
                slice.end_swept_scan(
                    walker.cluster,
                    self.block_max[cell],
                    u64::from(spikes.count_ones()),
                );
                // Lanes past the pass's channels hold no neuron of the
                // layer: the span walk drops their spikes too.
                if walker.lane >= layout.channels {
                    continue;
                }
                let channel = (layout.first_channel + walker.lane) as u16;
                // (y, x) of the block's first neuron, then stepped to each
                // spike: no division per spike.
                let first = walker.block * npc;
                let (mut y, mut x, mut at) = (first / layout.width, first % layout.width, 0);
                while spikes != 0 {
                    let neuron = spikes.trailing_zeros() as usize;
                    spikes &= spikes - 1;
                    x += neuron - at;
                    at = neuron;
                    while x >= layout.width {
                        x -= layout.width;
                        y += 1;
                    }
                    record
                        .fired
                        .push(Event::update(time, channel, x as u16, y as u16));
                }
            }
            record
                .fire_counts
                .push((record.fired.len() - before) as u32);
        }
    }
}
