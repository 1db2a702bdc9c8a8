//! The Cluster: a time-division-multiplexed LIF datapath.
//!
//! Each Cluster implements 64 TDM neurons with a single combinational LIF
//! datapath (paper §III-D.4): neuron states live in a latch-based,
//! double-buffered memory that sustains one state update per cycle; a
//! time-of-last-update (TLU) register allows the cluster to skip membrane
//! updates across timesteps without input activity; units that are not
//! addressed by the current event are clock-gated.
//!
//! Since the structure-of-arrays refactor (DESIGN.md §12) the membrane
//! memory itself lives in the owning [`crate::slice::Slice`]'s contiguous
//! arena: a `Cluster` carries only the TLU bookkeeping, the host-side
//! membrane bound and the activity counters, and every state-touching
//! method takes its membrane span as an explicit `mem` slice — the
//! cluster's segment of the arena (possibly extended to the arena's end;
//! only the first `neurons` lanes are this cluster's).

use serde::{Deserialize, Serialize};

use crate::mapping::LifHardwareParams;
use crate::simd::Kernel;

/// Per-cluster activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterCounters {
    /// Synaptic operations (membrane accumulations) performed.
    pub synaptic_ops: u64,
    /// Fire scans executed.
    pub fire_scans: u64,
    /// Fire scans skipped thanks to the TLU mechanism.
    pub skipped_scans: u64,
    /// Output spikes emitted.
    pub spikes: u64,
}

/// Snapshot of the architectural state of one cluster: the membrane memory
/// and the TLU bookkeeping, without the activity counters.
///
/// Snapshots are what [`crate::state::LayerState`] stores between engine
/// invocations so neuron state can persist across chunks of a continuous
/// event stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterState {
    /// Membrane states of the TDM neurons.
    pub states: Vec<i16>,
    /// Leak steps deferred by skipped fire scans.
    pub pending_leak_steps: u32,
    /// `true` if an update arrived since the last executed fire scan.
    pub dirty: bool,
}

impl ClusterState {
    /// A resting snapshot for `neurons` TDM neurons (all membranes at zero).
    #[must_use]
    pub fn resting(neurons: usize) -> Self {
        Self {
            states: vec![0; neurons],
            pending_leak_steps: 0,
            dirty: false,
        }
    }

    /// Resets the snapshot to the resting state in place.
    pub fn reset(&mut self) {
        self.states.iter_mut().for_each(|s| *s = 0);
        self.pending_leak_steps = 0;
        self.dirty = false;
    }

    /// Returns `true` if the snapshot equals the resting state.
    #[must_use]
    pub fn is_resting(&self) -> bool {
        self.states.iter().all(|&s| s == 0) && self.pending_leak_steps == 0 && !self.dirty
    }
}

/// One SNE cluster: `neurons` TDM LIF neurons sharing a datapath. The
/// membrane states live in the owning slice's arena (see the module docs);
/// the struct itself is pure bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Number of TDM neurons (the length of this cluster's membrane span).
    neurons: usize,
    /// Leak steps accumulated while scans were skipped (TLU lazy catch-up).
    pending_leak_steps: u32,
    /// `true` once an update arrived since the last executed fire scan.
    dirty: bool,
    /// Host-side upper bound on the maximum *stored* membrane state (an
    /// overestimate is fine, an underestimate never happens). Lets a fire
    /// scan prove "no neuron can reach threshold" in O(1) and defer its leak
    /// exactly like a TLU-skipped scan — same outputs, same counters, same
    /// modelled cycles, just no O(neurons) walk. Not architectural state:
    /// it is recomputed on [`Cluster::restore`] and never snapshotted.
    max_bound: i16,
    /// The owning slice's fire epoch (count of TLU-armed `FIRE_OP`s) as of
    /// this cluster's last sync: the difference to the slice's current
    /// epoch is the number of scans this cluster skipped but has not yet
    /// posted to `pending_leak_steps`/`skipped_scans`. Clean clusters are
    /// thereby not touched at all on a skipped fire — the owed skips
    /// materialize via [`Cluster::sync_skips`] right before the next
    /// per-cluster observation, bit-identical to eager posting.
    #[serde(default)]
    fires_seen: u64,
    counters: ClusterCounters,
}

impl Cluster {
    /// Creates the bookkeeping for a cluster of `neurons` TDM neurons, all
    /// at rest (the caller's membrane span must start zeroed to match).
    #[must_use]
    pub fn new(neurons: usize) -> Self {
        Self {
            neurons,
            pending_leak_steps: 0,
            dirty: false,
            max_bound: 0,
            fires_seen: 0,
            counters: ClusterCounters::default(),
        }
    }

    /// Posts the fire-scan skips owed since the last sync (see
    /// [`Cluster::fires_seen`]): bit-identical to having called
    /// [`Cluster::note_skipped_scan`] at each of those fires. The owning
    /// slice calls this with its current fire epoch before anything
    /// observes or mutates this cluster's per-cluster state.
    #[inline]
    pub(crate) fn sync_skips(&mut self, fire_epoch: u64) {
        let owed = fire_epoch - self.fires_seen;
        if owed > 0 {
            self.fires_seen = fire_epoch;
            self.pending_leak_steps += owed as u32;
            self.counters.skipped_scans += owed;
        }
    }

    /// Marks this cluster's scan as executed at the given (post-op) fire
    /// epoch, so the just-handled `FIRE_OP` is not later counted as a skip.
    #[inline]
    pub(crate) fn mark_scanned(&mut self, fire_epoch: u64) {
        self.fires_seen = fire_epoch;
    }

    /// Fire-scan skips owed but not yet posted (see [`Cluster::sync_skips`]);
    /// folded into snapshots so exported state is always the eager state.
    #[inline]
    #[must_use]
    pub(crate) fn owed_skips(&self, fire_epoch: u64) -> u32 {
        (fire_epoch - self.fires_seen) as u32
    }

    /// Activity counters.
    #[must_use]
    pub fn counters(&self) -> ClusterCounters {
        self.counters
    }

    /// Whether the cluster received an update since its last executed fire
    /// scan (the TLU skip condition reads this).
    #[inline]
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The TLU skip bookkeeping of one `FIRE_OP` — exactly what
    /// [`Cluster::fire_scan_into`]'s skip branch does. The slice's
    /// all-resting fast path applies it directly, without the per-cluster
    /// call and arena-segmentation machinery of the general scan loop.
    #[inline]
    pub fn note_skipped_scan(&mut self) {
        self.pending_leak_steps += 1;
        self.counters.skipped_scans += 1;
    }

    /// This cluster's own membrane span of a (possibly extended) `mem`
    /// slice.
    #[inline]
    fn span<'m>(&self, mem: &'m mut [i16]) -> &'m mut [i16] {
        &mut mem[..self.neurons]
    }

    /// Resets the membranes and the TLU bookkeeping (`RST_OP`).
    pub fn reset(&mut self, mem: &mut [i16]) {
        self.span(mem).fill(0);
        self.reset_bookkeeping();
    }

    /// Resets only the bookkeeping half — the owning slice zeroes the whole
    /// membrane arena in one pass and then calls this per cluster.
    pub(crate) fn reset_bookkeeping(&mut self) {
        self.pending_leak_steps = 0;
        self.dirty = false;
        self.max_bound = 0;
        self.fires_seen = 0;
    }

    /// Captures the architectural state (membranes + TLU bookkeeping) so it
    /// can be restored later; counters are not part of the snapshot.
    #[must_use]
    pub fn snapshot(&self, mem: &[i16]) -> ClusterState {
        ClusterState {
            states: mem[..self.neurons].to_vec(),
            pending_leak_steps: self.pending_leak_steps,
            dirty: self.dirty,
        }
    }

    /// Copies the architectural state into an existing snapshot without
    /// allocating (the streaming hot path).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was sized for a different neuron count.
    pub fn snapshot_into(&self, mem: &[i16], out: &mut ClusterState) {
        self.snapshot_bookkeeping_into(out);
        out.states.copy_from_slice(&mem[..self.neurons]);
    }

    /// The bookkeeping half of [`Cluster::snapshot_into`]: everything but
    /// the membranes, which the caller copies.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was sized for a different neuron count.
    pub(crate) fn snapshot_bookkeeping_into(&self, out: &mut ClusterState) {
        assert_eq!(
            out.states.len(),
            self.neurons,
            "cluster snapshot neuron count mismatch"
        );
        out.pending_leak_steps = self.pending_leak_steps;
        out.dirty = self.dirty;
    }

    /// Restores a previously captured architectural state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a cluster with a different
    /// neuron count.
    pub fn restore(&mut self, mem: &mut [i16], state: &ClusterState) {
        self.restore_bookkeeping(state);
        mem[..self.neurons].copy_from_slice(&state.states);
    }

    /// The bookkeeping half of [`Cluster::restore`]: everything but the
    /// membranes, which the caller places.
    ///
    /// # Panics
    ///
    /// As [`Cluster::restore`].
    pub(crate) fn restore_bookkeeping(&mut self, state: &ClusterState) {
        assert_eq!(
            state.states.len(),
            self.neurons,
            "cluster snapshot neuron count mismatch"
        );
        self.pending_leak_steps = state.pending_leak_steps;
        self.dirty = state.dirty;
        self.max_bound = state.states.iter().copied().max().unwrap_or(0);
    }

    /// Applies any leak owed from skipped fire scans. Called before the
    /// cluster state is observed or modified.
    #[inline]
    fn catch_up(&mut self, mem: &mut [i16], params: LifHardwareParams, kernel: Kernel) {
        if self.pending_leak_steps == 0 {
            return;
        }
        self.catch_up_cold(mem, params, kernel);
    }

    /// The cold half of [`Cluster::catch_up`]: materializes the owed leak.
    fn catch_up_cold(&mut self, mem: &mut [i16], params: LifHardwareParams, kernel: Kernel) {
        let total = self.take_owed_leak(params);
        if total != 0 {
            kernel.apply_leak(self.span(mem), total);
        }
    }

    /// The bookkeeping half of the leak catch-up: settles the owed leak
    /// steps and returns their leak total, which the caller subtracts
    /// (saturating) from this cluster's membranes — 0 when nothing is owed.
    #[inline]
    pub(crate) fn take_owed_leak(&mut self, params: LifHardwareParams) -> i32 {
        if self.pending_leak_steps == 0 || params.leak == 0 {
            self.pending_leak_steps = 0;
            return 0;
        }
        let total = i32::from(params.leak) * self.pending_leak_steps as i32;
        // Clamping is monotone, so the shifted bound still dominates.
        self.max_bound = clamp_state(i32::from(self.max_bound) - total);
        self.pending_leak_steps = 0;
        total
    }

    /// Upper bound on the maximum membrane after the owed leak plus
    /// `extra_steps` further leak steps were applied (clamping included).
    #[inline]
    fn bound_after_leak(&self, params: LifHardwareParams, extra_steps: u32) -> i16 {
        let steps = i64::from(self.pending_leak_steps) + i64::from(extra_steps);
        let total = i64::from(params.leak) * steps;
        (i64::from(self.max_bound) - total).clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i16
    }

    /// Accumulates a synaptic weight into the local neuron `index`
    /// (one state update, one cycle on the datapath). This is the naive
    /// reference datapath's per-synapse form; it is always scalar.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the cluster's neurons.
    pub fn integrate(
        &mut self,
        mem: &mut [i16],
        index: usize,
        weight: i8,
        params: LifHardwareParams,
    ) {
        assert!(index < self.neurons, "neuron index out of range");
        self.catch_up(mem, params, Kernel::Scalar);
        let state = clamp_state(i32::from(mem[index]) + i32::from(weight));
        mem[index] = state;
        self.max_bound = self.max_bound.max(state);
        self.dirty = true;
        self.counters.synaptic_ops += 1;
    }

    /// Opens an event window on this cluster for the fused datapath:
    /// materializes any owed leak exactly like the first
    /// [`Cluster::integrate`] of the window would. Idempotent within a
    /// window.
    #[inline]
    pub(crate) fn open_window(
        &mut self,
        mem: &mut [i16],
        params: LifHardwareParams,
        kernel: Kernel,
    ) {
        self.catch_up(mem, params, kernel);
    }

    /// Closes an event window: commits the **exact** maximum membrane value
    /// the window's span accumulations observed *within this cluster* and
    /// the dirty/ops bookkeeping [`Cluster::integrate`] would have performed
    /// per tap. (Exactness of the bound matters: it decides the fire-scan
    /// walk elision, and an overestimate could materialize a leak the scalar
    /// path defers — visible in the persisted `pending_leak_steps`.)
    #[inline]
    pub(crate) fn close_window(&mut self, window_max: i16, taps: u64) {
        self.max_bound = self.max_bound.max(window_max);
        self.dirty = true;
        self.counters.synaptic_ops += taps;
    }

    /// Executes (or skips) the fire scan that closes a timestep.
    ///
    /// When `tlu_enabled` is set and no update arrived since the last scan,
    /// the scan is skipped: the leak is deferred (it can only lower the
    /// membrane, so no spike can be missed) and no cycles are spent. The
    /// returned vector holds the local indices of the neurons that fired.
    ///
    /// Test-only convenience: it allocates per call, so the public API is
    /// the allocation-free [`Cluster::fire_scan_into`], which the engine's
    /// hot path uses exclusively.
    #[cfg(test)]
    fn fire_scan(
        &mut self,
        mem: &mut [i16],
        params: LifHardwareParams,
        tlu_enabled: bool,
    ) -> Vec<usize> {
        let mut fired = Vec::new();
        let _ = self.fire_scan_into(mem, params, tlu_enabled, Kernel::Scalar, &mut fired);
        fired
    }

    /// Executes (or skips) the fire scan that closes a timestep, appending
    /// the local indices of firing neurons to `out` (not cleared first);
    /// returns `true` if the scan executed (`false` if the TLU skipped it:
    /// no update arrived since the last scan, so the leak is deferred — it
    /// can only lower the membrane, no spike can be missed — and no cycles
    /// are spent).
    pub fn fire_scan_into(
        &mut self,
        mem: &mut [i16],
        params: LifHardwareParams,
        tlu_enabled: bool,
        kernel: Kernel,
        out: &mut Vec<usize>,
    ) -> bool {
        if tlu_enabled && !self.dirty {
            self.note_skipped_scan();
            return false;
        }
        if !self.scan_elides(params) {
            self.scan_walk(mem, params, kernel, out);
        }
        true
    }

    /// The O(1) half of an executing fire scan: when the membrane bound
    /// proves no neuron can reach threshold after this leak step, the
    /// per-neuron walk is elided and the leak deferred — the identical
    /// lazy-leak argument as the TLU skip, so the architectural state at the
    /// next observation point is bit-identical. Returns `true` (scan done,
    /// counters updated) on elision; on `false` the caller must run
    /// [`Cluster::scan_walk`]. Public so the slice's fire loop can take this
    /// branch without the arena segmentation the walk needs — at sparse
    /// activity nearly every *dirty* cluster's scan resolves right here.
    #[inline]
    pub fn scan_elides(&mut self, params: LifHardwareParams) -> bool {
        // The scan executes (cycle cost and counters are those of an
        // executed scan) whether or not the walk is elided.
        if self.bound_after_leak(params, 1) < params.threshold {
            self.counters.fire_scans += 1;
            self.dirty = false;
            self.pending_leak_steps += 1;
            true
        } else {
            false
        }
    }

    /// The bookkeeping half of a [`Cluster::scan_walk`] whose neuron walk
    /// runs in the pass arena's fused sweep: settles the owed leak and
    /// returns the leak total of the owed steps plus this scan's step,
    /// capped to `±256` (enough to pin any membrane to a rail). One clamp of
    /// the fused total equals the walk's two (catch-up, then leak step):
    /// both totals carry the leak's sign. Only valid after
    /// [`Cluster::scan_elides`] returned `false`; the sweep's result comes
    /// back through [`Cluster::end_swept_scan`].
    #[inline]
    pub(crate) fn begin_swept_scan(&mut self, params: LifHardwareParams) -> i16 {
        self.counters.fire_scans += 1;
        self.dirty = false;
        let steps = i64::from(self.pending_leak_steps) + 1;
        self.pending_leak_steps = 0;
        (i64::from(params.leak) * steps).clamp(-256, 256) as i16
    }

    /// Commits a swept scan's result: the exact maximum membrane after the
    /// sweep (it visited every neuron) and the spikes it emitted.
    #[inline]
    pub(crate) fn end_swept_scan(&mut self, max: i16, spikes: u64) {
        self.max_bound = max;
        self.counters.spikes += spikes;
    }

    /// The per-neuron half of an executing fire scan: materializes the owed
    /// leak, walks every TDM neuron and appends the local indices of firing
    /// neurons to `out`. Only valid after [`Cluster::scan_elides`] returned
    /// `false` (the pair is exactly one executed scan).
    pub fn scan_walk(
        &mut self,
        mem: &mut [i16],
        params: LifHardwareParams,
        kernel: Kernel,
        out: &mut Vec<usize>,
    ) {
        self.counters.fire_scans += 1;
        self.dirty = false;
        self.catch_up(mem, params, kernel);
        let before = out.len();
        // The full walk visits every neuron, so the bound is exact again.
        self.max_bound = kernel.fire_walk(self.span(mem), params.leak, params.threshold, out);
        self.counters.spikes += (out.len() - before) as u64;
    }
}

/// Saturates a value to the 8-bit membrane range of the hardware.
fn clamp_state(value: i32) -> i16 {
    value.clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: LifHardwareParams = LifHardwareParams {
        leak: 1,
        threshold: 10,
    };

    /// A cluster together with its own little membrane arena — the
    /// standalone harness the slice normally provides.
    struct Bench {
        cluster: Cluster,
        mem: Vec<i16>,
    }

    impl Bench {
        fn new(neurons: usize) -> Self {
            Self {
                cluster: Cluster::new(neurons),
                mem: vec![0; neurons],
            }
        }

        fn integrate(&mut self, index: usize, weight: i8, params: LifHardwareParams) {
            self.cluster.integrate(&mut self.mem, index, weight, params);
        }

        fn fire_scan(&mut self, params: LifHardwareParams, tlu: bool) -> Vec<usize> {
            self.cluster.fire_scan(&mut self.mem, params, tlu)
        }

        fn fire_scan_into(
            &mut self,
            params: LifHardwareParams,
            tlu: bool,
            out: &mut Vec<usize>,
        ) -> bool {
            self.cluster
                .fire_scan_into(&mut self.mem, params, tlu, Kernel::Scalar, out)
        }

        fn state(&self, index: usize) -> i16 {
            self.mem[index]
        }

        fn counters(&self) -> ClusterCounters {
            self.cluster.counters()
        }

        fn snapshot(&self) -> ClusterState {
            self.cluster.snapshot(&self.mem)
        }
    }

    #[test]
    fn integrate_accumulates_and_saturates() {
        let mut c = Bench::new(4);
        let params = LifHardwareParams {
            leak: 0,
            threshold: 127,
        };
        for _ in 0..40 {
            c.integrate(0, 7, params);
        }
        assert_eq!(c.state(0), 127);
        for _ in 0..80 {
            c.integrate(1, -8, params);
        }
        assert_eq!(c.state(1), -128);
        assert_eq!(c.counters().synaptic_ops, 120);
    }

    #[test]
    fn fire_scan_applies_leak_and_threshold() {
        let mut c = Bench::new(2);
        c.integrate(0, 7, PARAMS);
        c.integrate(0, 6, PARAMS); // state 13
        let fired = c.fire_scan(PARAMS, true);
        // 13 - 1 = 12 >= 10: fires and resets.
        assert_eq!(fired, vec![0]);
        assert_eq!(c.state(0), 0);
        assert_eq!(c.counters().spikes, 1);
    }

    #[test]
    fn tlu_skips_scans_without_updates_and_catches_up_leak() {
        let mut reference = Bench::new(1);
        let mut lazy = Bench::new(1);
        let params = LifHardwareParams {
            leak: 2,
            threshold: 100,
        };
        reference.integrate(0, 50, params);
        lazy.integrate(0, 50, params);
        // Reference executes every scan; lazy skips idle ones.
        for _ in 0..5 {
            let _ = reference.fire_scan(params, false);
            let _ = lazy.fire_scan(params, true);
        }
        // One scan executed + 4 skipped on the lazy cluster.
        assert_eq!(lazy.counters().skipped_scans, 4);
        // A new update forces the catch-up; states must agree.
        reference.integrate(0, 3, params);
        lazy.integrate(0, 3, params);
        assert_eq!(reference.state(0), lazy.state(0));
    }

    #[test]
    fn tlu_never_misses_a_spike() {
        // A neuron left exactly below threshold cannot fire during idle
        // timesteps, so skipping scans is functionally safe.
        let mut c = Bench::new(1);
        let params = LifHardwareParams {
            leak: 0,
            threshold: 10,
        };
        c.integrate(0, 9, params);
        let _ = c.fire_scan(params, true);
        for _ in 0..10 {
            assert!(c.fire_scan(params, true).is_empty());
        }
        c.integrate(0, 1, params);
        assert_eq!(c.fire_scan(params, true), vec![0]);
    }

    #[test]
    fn disabled_tlu_scans_every_timestep() {
        let mut c = Bench::new(1);
        for _ in 0..5 {
            let _ = c.fire_scan(PARAMS, false);
        }
        assert_eq!(c.counters().fire_scans, 5);
        assert_eq!(c.counters().skipped_scans, 0);
    }

    #[test]
    fn reset_clears_state_and_bookkeeping() {
        let mut c = Bench::new(2);
        c.integrate(0, 5, PARAMS);
        let _ = c.fire_scan(PARAMS, true);
        let _ = c.fire_scan(PARAMS, true); // skipped, pending leak
        c.cluster.reset(&mut c.mem);
        assert_eq!(c.state(0), 0);
        assert_eq!(c.state(1), 0);
        // After reset a scan without updates is skipped again (not dirty).
        assert!(c.fire_scan(PARAMS, true).is_empty());
    }

    #[test]
    fn snapshot_and_restore_round_trip_the_architectural_state() {
        let mut c = Bench::new(3);
        c.integrate(1, 7, PARAMS);
        let _ = c.fire_scan(PARAMS, true);
        let _ = c.fire_scan(PARAMS, true); // skipped: pending leak + not dirty
        let snap = c.snapshot();
        assert!(!snap.is_resting());

        let mut fresh = Bench::new(3);
        fresh.cluster.restore(&mut fresh.mem, &snap);
        // Continuing from the restored state is indistinguishable from
        // continuing on the original cluster.
        c.integrate(1, 5, PARAMS);
        fresh.integrate(1, 5, PARAMS);
        assert_eq!(c.state(1), fresh.state(1));
        assert_eq!(c.fire_scan(PARAMS, true), fresh.fire_scan(PARAMS, true));
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let mut c = Bench::new(3);
        c.integrate(2, 5, PARAMS);
        let mut out = ClusterState::resting(3);
        c.cluster.snapshot_into(&c.mem, &mut out);
        assert_eq!(out, c.snapshot());
    }

    #[test]
    fn resting_snapshot_matches_a_fresh_cluster() {
        let c = Bench::new(4);
        assert_eq!(c.snapshot(), ClusterState::resting(4));
        let mut s = ClusterState::resting(2);
        s.states[0] = 9;
        s.dirty = true;
        s.reset();
        assert!(s.is_resting());
    }

    #[test]
    #[should_panic(expected = "neuron count mismatch")]
    fn restore_rejects_mismatched_snapshot() {
        let mut c = Bench::new(2);
        c.cluster.restore(&mut c.mem, &ClusterState::resting(3));
    }

    #[test]
    fn lazy_and_eager_leak_agree_at_the_saturation_floor() {
        let params = LifHardwareParams {
            leak: 3,
            threshold: 100,
        };
        let mut eager = Bench::new(1);
        let mut lazy = Bench::new(1);
        eager.integrate(0, -120, params);
        lazy.integrate(0, -120, params);
        for _ in 0..10 {
            let _ = eager.fire_scan(params, false);
            let _ = lazy.fire_scan(params, true);
        }
        eager.integrate(0, 5, params);
        lazy.integrate(0, 5, params);
        assert_eq!(eager.state(0), lazy.state(0));
    }

    #[test]
    fn batched_window_matches_per_tap_integrates() {
        let mut windowed = Bench::new(8);
        let mut single = Bench::new(8);
        // Give both some deferred leak so the window's one-shot catch-up is
        // exercised against per-tap catch-ups.
        for c in [&mut windowed, &mut single] {
            c.integrate(2, 9, PARAMS);
            let _ = c.fire_scan_into(PARAMS, true, &mut Vec::new());
            let _ = c.fire_scan_into(PARAMS, true, &mut Vec::new());
        }
        for (neuron, weight) in [(2, 5), (3, -3), (5, 7)] {
            single.integrate(neuron, weight, PARAMS);
        }
        windowed
            .cluster
            .open_window(&mut windowed.mem, PARAMS, Kernel::Scalar);
        let a = Kernel::Scalar.accumulate_span(&mut windowed.mem, 2, &[5, -3]);
        let b = Kernel::Scalar.accumulate_span(&mut windowed.mem, 5, &[7]);
        windowed.cluster.close_window(a.max(b), 3);
        for i in 0..8 {
            assert_eq!(windowed.state(i), single.state(i), "neuron {i}");
        }
        assert_eq!(
            windowed.counters().synaptic_ops,
            single.counters().synaptic_ops
        );
        let mut fired_w = Vec::new();
        let mut fired_s = Vec::new();
        let _ = windowed.fire_scan_into(PARAMS, true, &mut fired_w);
        let _ = single.fire_scan_into(PARAMS, true, &mut fired_s);
        assert_eq!(fired_w, fired_s);
    }
}
