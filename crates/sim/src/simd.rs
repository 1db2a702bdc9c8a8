//! The blocked membrane kernel: fixed-width SIMD span accumulation with a
//! scalar exactness oracle.
//!
//! The compiled plan datapath (DESIGN.md §9) hands the workers
//! contiguous-neuron spans with pre-resolved weights, and the structure-of-
//! arrays membrane arena (DESIGN.md §12) makes those spans contiguous `i16`
//! strides in one per-slice buffer. This module is the only place that
//! touches that stride element-wise. Two implementations exist behind
//! [`Kernel`]:
//!
//! * [`Kernel::Scalar`] — the **oracle**: a plain (manually unrolled)
//!   element loop whose per-element operation is written exactly like the
//!   naive datapath's `clamp(state + weight)`. Every other path must be
//!   bit-identical to it.
//! * [`Kernel::Blocked`] — processes [`BLOCK_LANES`] `i16` lanes per step
//!   with `core::arch` x86_64 SSE2 (lane adds, clamp to the 8-bit membrane
//!   range via vector min/max, a running vector maximum reduced
//!   horizontally at the end). On other architectures it falls back to the
//!   scalar path, so forcing `Blocked` is always *allowed*, just not always
//!   vectorized.
//!
//! The per-element operation — `clamp(state + w)` with the running span
//! maximum — is element-independent, so the blocked evaluation order cannot
//! change any result: bit-exactness is structural, and
//! `tests/kernel_equivalence.rs` pins it over random geometries, saturation
//! storms and span lengths straddling the block width.
//!
//! Beside the span kernel, four crate-private lane helpers
//! (`accumulate_lanes`, `leak_lanes`, `sweep_lanes`, `transpose_lanes`)
//! drive the engine's channel-interleaved pass arena (DESIGN.md §12), where
//! one vector holds one in-plane position of [`BLOCK_LANES`] clusters, one
//! per output channel. They run SSE2 on x86_64 and a scalar body elsewhere,
//! and the scalar bodies are their test oracles.
//!
//! Host-optimisation boundary: everything here affects **host wall-clock
//! only**. Modelled cycles, synaptic-op counts, traces and energy are
//! accounted per span/tap by the caller and are identical whichever kernel
//! runs (DESIGN.md §12).

use serde::{Deserialize, Serialize};

/// Number of `i16` lanes one blocked step processes (one 128-bit SSE2
/// vector).
pub const BLOCK_LANES: usize = 8;

/// The identity of the per-lane running maximum consumed by
/// [`Kernel::accumulate_span_max`]: every lane starts at the membrane floor.
pub const LANE_FLOOR: [i16; BLOCK_LANES] = [i8::MIN as i16; BLOCK_LANES];

/// Environment variable that forces the kernel selection process-wide:
/// `scalar`, `blocked` or `auto` (case-insensitive). Anything else is
/// ignored. CI uses it to run the whole test suite under each kernel.
pub const KERNEL_ENV: &str = "SNE_KERNEL";

/// Which membrane kernel a slice runs. See the module docs; the scalar
/// variant is the exactness oracle, the blocked variant the SIMD path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kernel {
    /// Plain element loop (manually unrolled); the bit-exactness oracle.
    Scalar,
    /// Fixed-width blocked/SIMD path (SSE2 on x86_64, scalar elsewhere).
    Blocked,
}

impl Kernel {
    /// The default kernel for this host: [`Kernel::Blocked`] where the
    /// vector path exists (x86_64), [`Kernel::Scalar`] elsewhere — unless
    /// the [`KERNEL_ENV`] environment variable forces a choice.
    #[must_use]
    pub fn auto() -> Self {
        match Self::from_env() {
            Some(kernel) => kernel,
            None => Self::host_default(),
        }
    }

    /// The compile-target default, ignoring the environment.
    #[must_use]
    pub fn host_default() -> Self {
        if cfg!(target_arch = "x86_64") {
            Self::Blocked
        } else {
            Self::Scalar
        }
    }

    /// The kernel forced by [`KERNEL_ENV`], if any (`auto`, unset and
    /// unrecognized values force nothing).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let value = std::env::var(KERNEL_ENV).ok()?;
        Self::parse(&value)
    }

    /// Parses a kernel name (`scalar` | `blocked` | `auto`,
    /// case-insensitive); `auto` resolves to the host default.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Self::Scalar),
            "blocked" | "simd" => Some(Self::Blocked),
            "auto" => Some(Self::host_default()),
            _ => None,
        }
    }

    /// Short stable name (`"scalar"` / `"blocked"`), for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Blocked => "blocked",
        }
    }

    /// `true` when this kernel actually runs vector instructions on the
    /// compile target (reports record it so a non-x86 run is attributable).
    #[must_use]
    pub fn is_vectorized(self) -> bool {
        self == Self::Blocked && cfg!(target_arch = "x86_64")
    }

    /// Accumulates `weights` into the membrane span
    /// `mem[start .. start + weights.len()]` with the hardware's saturating
    /// 8-bit semantics (`clamp(state + w)` per element) and returns the
    /// **exact** maximum resulting state of the span (`i8::MIN` for an empty
    /// span).
    ///
    /// `mem` may extend past the span (the caller's whole arena): the
    /// blocked path then reads — and rewrites unchanged — up to
    /// [`BLOCK_LANES`] lanes past the span end, which is why the arena
    /// carries that much padding and why a span must never be accumulated
    /// concurrently with any access to the lanes behind it. Every lane of
    /// `mem` must already be in the membrane range `[-128, 127]` (the
    /// datapath invariant); lanes past the span keep their value exactly.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds `mem`.
    #[inline]
    pub fn accumulate_span(self, mem: &mut [i16], start: usize, weights: &[i8]) -> i16 {
        match self {
            Self::Scalar => accumulate_span_scalar(&mut mem[start..start + weights.len()], weights),
            Self::Blocked => accumulate_span_blocked(mem, start, weights),
        }
    }

    /// The hot-path form of [`Kernel::accumulate_span`]: accumulates the
    /// first `len` weights of `weights` into the membrane span
    /// `mem[start .. start + len]` (same saturating 8-bit semantics) and
    /// folds the span's resulting states into the per-lane running maximum
    /// `lanes` instead of reducing per call — the caller reduces once per
    /// cluster window via [`Kernel::reduce_lane_max`], which is what makes
    /// short (few-tap) spans profitable to vectorize.
    ///
    /// `weights` should extend past `len` where possible: whenever at least
    /// [`BLOCK_LANES`] weight bytes and membrane lanes remain, the blocked
    /// path runs a full masked vector step (out-of-span weight lanes are
    /// zeroed before the add, so those membrane lanes are rewritten
    /// unchanged — the membrane-range invariant — and kept out of the
    /// maximum). The compiled plan's weight pools carry [`BLOCK_LANES`]
    /// bytes of trailing padding precisely so this fast path always
    /// applies; tight caller buffers fall back to the scalar oracle.
    ///
    /// Which lanes of `lanes` absorb which states is kernel-specific (the
    /// scalar path folds everything into lane 0); only the reduced maximum
    /// is architectural, and it is bit-identical across kernels.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `weights` or the span exceeds `mem`.
    #[inline]
    pub fn accumulate_span_max(
        self,
        mem: &mut [i16],
        start: usize,
        weights: &[i8],
        len: usize,
        lanes: &mut [i16; BLOCK_LANES],
    ) {
        match self {
            Self::Scalar => {
                let span_max =
                    accumulate_span_scalar(&mut mem[start..start + len], &weights[..len]);
                lanes[0] = lanes[0].max(span_max);
            }
            Self::Blocked => accumulate_span_max_blocked(mem, start, weights, len, lanes),
        }
    }

    /// Reduces a per-lane running maximum accumulated by
    /// [`Kernel::accumulate_span_max`] to the window maximum: the plain
    /// maximum over the [`BLOCK_LANES`] lanes, bit-identical across kernels
    /// (`max` is associative and commutative, so the lane distribution
    /// cannot matter).
    #[inline]
    #[must_use]
    pub fn reduce_lane_max(self, lanes: &[i16; BLOCK_LANES]) -> i16 {
        match self {
            Self::Scalar => lanes.iter().copied().fold(i16::from(i8::MIN), i16::max),
            Self::Blocked => reduce_lane_max_blocked(lanes),
        }
    }

    /// Applies `leak_total` (already multiplied by the owed steps, clamped
    /// by the caller into `i32`) to every element of `mem`, saturating each
    /// to the membrane range — the batched TLU catch-up walk.
    #[inline]
    pub fn apply_leak(self, mem: &mut [i16], leak_total: i32) {
        match self {
            Self::Scalar => apply_leak_scalar(mem, leak_total),
            Self::Blocked => apply_leak_blocked(mem, leak_total),
        }
    }

    /// The fire-scan walk over one cluster's membrane span: applies one
    /// `leak` step to every element (saturating), resets elements reaching
    /// `threshold` to zero while appending their indices to `out` (in
    /// ascending order, exactly like the scalar walk), and returns the exact
    /// maximum resulting state (`i8::MIN` for an empty span).
    #[inline]
    pub fn fire_walk(
        self,
        mem: &mut [i16],
        leak: i16,
        threshold: i16,
        out: &mut Vec<usize>,
    ) -> i16 {
        match self {
            Self::Scalar => fire_walk_scalar(mem, leak, threshold, out),
            Self::Blocked => fire_walk_blocked(mem, leak, threshold, out),
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::auto()
    }
}

/// Saturates a widened membrane value to the 8-bit hardware range.
#[inline]
fn clamp_state(value: i32) -> i16 {
    value.clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i16
}

/// The scalar oracle for [`Kernel::accumulate_span`], manually unrolled by
/// four. The per-element operation is the naive datapath's, verbatim; the
/// unroll only reassociates the running maximum, which `max` permits.
#[inline]
fn accumulate_span_scalar(span: &mut [i16], weights: &[i8]) -> i16 {
    debug_assert_eq!(span.len(), weights.len());
    let mut span_max = i16::from(i8::MIN);
    let mut chunks = span.chunks_exact_mut(4);
    let mut wchunks = weights.chunks_exact(4);
    for (states, w) in (&mut chunks).zip(&mut wchunks) {
        // i16 arithmetic cannot overflow here: |state| <= 128, |w| <= 127.
        let a = (states[0] + i16::from(w[0])).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
        let b = (states[1] + i16::from(w[1])).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
        let c = (states[2] + i16::from(w[2])).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
        let d = (states[3] + i16::from(w[3])).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
        states[0] = a;
        states[1] = b;
        states[2] = c;
        states[3] = d;
        span_max = span_max.max(a.max(b)).max(c.max(d));
    }
    for (state, &w) in chunks.into_remainder().iter_mut().zip(wchunks.remainder()) {
        let next = (*state + i16::from(w)).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
        *state = next;
        span_max = span_max.max(next);
    }
    span_max
}

/// Scalar [`Kernel::apply_leak`]: the TLU catch-up loop of the naive path.
#[inline]
fn apply_leak_scalar(mem: &mut [i16], leak_total: i32) {
    for state in mem {
        *state = clamp_state(i32::from(*state) - leak_total);
    }
}

/// Scalar [`Kernel::fire_walk`]: the naive fire-scan loop, verbatim.
#[inline]
fn fire_walk_scalar(mem: &mut [i16], leak: i16, threshold: i16, out: &mut Vec<usize>) -> i16 {
    let mut bound = i16::from(i8::MIN);
    for (i, state) in mem.iter_mut().enumerate() {
        *state = clamp_state(i32::from(*state) - i32::from(leak));
        if *state >= threshold {
            *state = 0;
            out.push(i);
        }
        bound = bound.max(*state);
    }
    bound
}

/// Scalar `accumulate_lanes`, the oracle of the pass arena's update step.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn accumulate_lanes_scalar(
    rows: &mut [i16],
    stride: usize,
    weights: &[i8],
    weight_stride: usize,
    taps: usize,
    lanes: usize,
    max: &mut [i16],
) {
    let padded = lanes.next_multiple_of(BLOCK_LANES);
    for tap in 0..taps {
        let row = &mut rows[tap * stride..][..padded];
        let tap_weights = &weights[tap * weight_stride..];
        for (l, (state, lane_max)) in row.iter_mut().zip(&mut max[..padded]).enumerate() {
            let w = if l < lanes {
                i16::from(tap_weights[l])
            } else {
                0
            };
            *state = (*state + w).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
            *lane_max = (*lane_max).max(*state);
        }
    }
}

/// Scalar `transpose_lanes`.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn transpose_lanes_scalar(
    src: &[i16],
    src_stride: usize,
    dst: &mut [i16],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    for row in 0..rows {
        for col in 0..cols {
            dst[col * dst_stride + row] = src[row * src_stride + col];
        }
    }
}

/// Scalar `leak_lanes`.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn leak_lanes_scalar(block: &mut [i16], stride: usize, rows: usize, totals: &[i16; BLOCK_LANES]) {
    for row in 0..rows {
        for (state, &total) in block[row * stride..][..BLOCK_LANES].iter_mut().zip(totals) {
            *state = clamp_state(i32::from(*state) - i32::from(total));
        }
    }
}

/// Scalar `sweep_lanes`: the fire-scan loop of [`fire_walk_scalar`] with a
/// per-lane leak total and threshold.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn sweep_lanes_scalar(
    block: &mut [i16],
    stride: usize,
    rows: usize,
    totals: &[i16; BLOCK_LANES],
    thresholds: &[i16; BLOCK_LANES],
    fired: &mut [u64; BLOCK_LANES],
) -> [i16; BLOCK_LANES] {
    assert!(rows <= 64, "a sweep covers at most 64 rows");
    let mut max = LANE_FLOOR;
    *fired = [0; BLOCK_LANES];
    for row in 0..rows {
        for (l, state) in block[row * stride..][..BLOCK_LANES].iter_mut().enumerate() {
            *state = clamp_state(i32::from(*state) - i32::from(totals[l]));
            if *state >= thresholds[l] {
                *state = 0;
                fired[l] |= 1 << row;
            }
            max[l] = max[l].max(*state);
        }
    }
    max
}

#[cfg(not(target_arch = "x86_64"))]
mod blocked {
    use super::BLOCK_LANES;

    /// Without a vector unit the blocked kernel *is* the scalar oracle.
    #[inline]
    pub(super) fn accumulate_span_blocked(mem: &mut [i16], start: usize, weights: &[i8]) -> i16 {
        super::accumulate_span_scalar(&mut mem[start..start + weights.len()], weights)
    }

    #[inline]
    pub(super) fn accumulate_span_max_blocked(
        mem: &mut [i16],
        start: usize,
        weights: &[i8],
        len: usize,
        lanes: &mut [i16; BLOCK_LANES],
    ) {
        let span_max = super::accumulate_span_scalar(&mut mem[start..start + len], &weights[..len]);
        lanes[0] = lanes[0].max(span_max);
    }

    #[inline]
    pub(super) fn reduce_lane_max_blocked(lanes: &[i16; BLOCK_LANES]) -> i16 {
        lanes.iter().copied().fold(i16::from(i8::MIN), i16::max)
    }

    #[inline]
    pub(super) fn apply_leak_blocked(mem: &mut [i16], leak_total: i32) {
        super::apply_leak_scalar(mem, leak_total);
    }

    #[inline]
    pub(super) fn fire_walk_blocked(
        mem: &mut [i16],
        leak: i16,
        threshold: i16,
        out: &mut Vec<usize>,
    ) -> i16 {
        super::fire_walk_scalar(mem, leak, threshold, out)
    }

    /// The pass arena's update step (see the x86_64 body).
    #[inline]
    pub(crate) fn accumulate_lanes(
        rows: &mut [i16],
        stride: usize,
        weights: &[i8],
        weight_stride: usize,
        taps: usize,
        lanes: usize,
        max: &mut [i16],
    ) {
        super::accumulate_lanes_scalar(rows, stride, weights, weight_stride, taps, lanes, max);
    }

    /// The pass arena's state transpose (see the x86_64 body).
    #[inline]
    pub(crate) fn transpose_lanes(
        src: &[i16],
        src_stride: usize,
        dst: &mut [i16],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        super::transpose_lanes_scalar(src, src_stride, dst, dst_stride, rows, cols);
    }

    /// The pass arena's per-lane leak catch-up (see the x86_64 body).
    #[inline]
    pub(crate) fn leak_lanes(
        block: &mut [i16],
        stride: usize,
        rows: usize,
        totals: &[i16; BLOCK_LANES],
    ) {
        super::leak_lanes_scalar(block, stride, rows, totals);
    }

    /// The pass arena's fused leak-and-threshold sweep (see the x86_64
    /// body).
    #[inline]
    pub(crate) fn sweep_lanes(
        block: &mut [i16],
        stride: usize,
        rows: usize,
        totals: &[i16; BLOCK_LANES],
        thresholds: &[i16; BLOCK_LANES],
        fired: &mut [u64; BLOCK_LANES],
    ) -> [i16; BLOCK_LANES] {
        super::sweep_lanes_scalar(block, stride, rows, totals, thresholds, fired)
    }
}

#[cfg(target_arch = "x86_64")]
mod blocked {
    //! SSE2 implementation. SSE2 is part of the x86_64 baseline, so no
    //! runtime feature detection is needed; every intrinsic here is
    //! statically available.
    //!
    //! Lane layout: 8 × `i16`. Weights are sign-extended from `i8` with the
    //! unpack-with-self + arithmetic-shift idiom (SSE2 has no `pmovsxbw`).
    //! The membrane clamp is a vector `max(min(x, 127), -128)`; because the
    //! true range of `state + w` is `[-255, 254]`, plain (wrapping) 16-bit
    //! adds are exact.

    use super::BLOCK_LANES;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi16, _mm_and_si128, _mm_andnot_si128, _mm_cmpgt_epi16, _mm_loadl_epi64,
        _mm_loadu_si128, _mm_max_epi16, _mm_min_epi16, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi16, _mm_srai_epi16, _mm_srli_si128, _mm_storeu_si128, _mm_sub_epi16,
        _mm_unpackhi_epi16, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi16,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_unpacklo_epi8,
    };

    /// Loads 8 `i16` lanes from `mem[at..at + 8]` (caller guarantees
    /// bounds).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load8(mem: &[i16], at: usize) -> __m128i {
        debug_assert!(at + BLOCK_LANES <= mem.len());
        // SAFETY: the range is in bounds (asserted above, guaranteed by
        // every caller) and `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(mem.as_ptr().add(at).cast()) }
    }

    /// Stores 8 `i16` lanes to `mem[at..at + 8]` (caller guarantees
    /// bounds).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn store8(mem: &mut [i16], at: usize, v: __m128i) {
        debug_assert!(at + BLOCK_LANES <= mem.len());
        // SAFETY: in-bounds (asserted above) and `storeu` is unaligned.
        unsafe { _mm_storeu_si128(mem.as_mut_ptr().add(at).cast(), v) }
    }

    /// Sign-extends 8 `i8` weights (the low 8 bytes of `w`) to 8 `i16`
    /// lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn widen_weights(w: __m128i) -> __m128i {
        // Duplicate each byte into both halves of a 16-bit lane, then
        // arithmetic-shift the high copy down: a sign extension without
        // SSE4.1.
        _mm_srai_epi16::<8>(_mm_unpacklo_epi8(w, w))
    }

    /// Clamps every lane to the 8-bit membrane range.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn clamp_lanes(v: __m128i) -> __m128i {
        let hi = _mm_set1_epi16(i16::from(i8::MAX));
        let lo = _mm_set1_epi16(i16::from(i8::MIN));
        _mm_max_epi16(_mm_min_epi16(v, hi), lo)
    }

    /// Horizontal maximum of the 8 `i16` lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn hmax(v: __m128i) -> i16 {
        let m = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        // Lane 0 now holds the maximum; movemask-free extract via store.
        let mut out = [0i16; BLOCK_LANES];
        store8(&mut out, 0, m);
        out[0]
    }

    /// Per-length lane masks (`len` in `0..=BLOCK_LANES`): lane `i` is
    /// all-ones when `i < len`.
    const TAIL_MASKS: [[i16; BLOCK_LANES]; BLOCK_LANES + 1] = {
        let mut masks = [[0i16; BLOCK_LANES]; BLOCK_LANES + 1];
        let mut len = 0;
        while len <= BLOCK_LANES {
            let mut i = 0;
            while i < len {
                masks[len][i] = -1;
                i += 1;
            }
            len += 1;
        }
        masks
    };

    #[inline]
    pub(super) fn accumulate_span_blocked(mem: &mut [i16], start: usize, weights: &[i8]) -> i16 {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { accumulate_span_sse2(mem, start, weights) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn accumulate_span_sse2(mem: &mut [i16], start: usize, weights: &[i8]) -> i16 {
        let len = weights.len();
        assert!(start + len <= mem.len(), "span exceeds membrane arena");
        let mut span_max = i16::from(i8::MIN);
        let mut at = 0;
        // Full 8-lane blocks.
        if len >= BLOCK_LANES {
            let mut vmax = _mm_set1_epi16(i16::from(i8::MIN));
            while at + BLOCK_LANES <= len {
                // SAFETY: 8 weight bytes at `at` are in bounds.
                let w = unsafe { _mm_loadl_epi64(weights.as_ptr().add(at).cast()) };
                let next = clamp_lanes(_mm_add_epi16(load8(mem, start + at), widen_weights(w)));
                store8(mem, start + at, next);
                vmax = _mm_max_epi16(vmax, next);
                at += BLOCK_LANES;
            }
            span_max = hmax(vmax);
        }
        // Tail (< 8 taps). When the arena extends at least one block past
        // the tail start, run it as one masked vector step: lanes past the
        // span get weight 0, so `clamp(state + 0) == state` writes every
        // out-of-span lane back unchanged (the membrane-range invariant),
        // and the tail mask keeps them out of the maximum. Otherwise —
        // arbitrary caller buffers — fall back to the scalar oracle.
        let tail = len - at;
        if tail > 0 {
            if start + at + BLOCK_LANES <= mem.len() {
                let mut wbuf = [0i8; BLOCK_LANES];
                wbuf[..tail].copy_from_slice(&weights[at..]);
                let w = load_weight_buf(&wbuf);
                let next = clamp_lanes(_mm_add_epi16(load8(mem, start + at), widen_weights(w)));
                store8(mem, start + at, next);
                let mask = load8(&TAIL_MASKS[tail], 0);
                let floor = _mm_set1_epi16(i16::from(i8::MIN));
                let masked = _mm_or_si128(_mm_and_si128(mask, next), _mm_andnot_si128(mask, floor));
                span_max = span_max.max(hmax(masked));
            } else {
                span_max = span_max.max(super::accumulate_span_scalar(
                    &mut mem[start + at..start + len],
                    &weights[at..],
                ));
            }
        }
        span_max
    }

    #[inline]
    pub(super) fn accumulate_span_max_blocked(
        mem: &mut [i16],
        start: usize,
        weights: &[i8],
        len: usize,
        lanes: &mut [i16; BLOCK_LANES],
    ) {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { accumulate_span_max_sse2(mem, start, weights, len, lanes) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn accumulate_span_max_sse2(
        mem: &mut [i16],
        start: usize,
        weights: &[i8],
        len: usize,
        lanes: &mut [i16; BLOCK_LANES],
    ) {
        assert!(len <= weights.len(), "span exceeds its weights");
        assert!(start + len <= mem.len(), "span exceeds membrane arena");
        let mut vmax = load8(lanes, 0);
        let mut at = 0;
        while at < len {
            if at + BLOCK_LANES > weights.len() || start + at + BLOCK_LANES > mem.len() {
                // No room for a full vector step (tight caller buffers —
                // the plan's padded pools never come here): finish on the
                // scalar oracle, folding its maximum into every lane.
                let tail = super::accumulate_span_scalar(
                    &mut mem[start + at..start + len],
                    &weights[at..len],
                );
                vmax = _mm_max_epi16(vmax, _mm_set1_epi16(tail));
                break;
            }
            let rem = len - at;
            // SAFETY: 8 weight bytes at `at` are in bounds (checked above).
            let w = unsafe { _mm_loadl_epi64(weights.as_ptr().add(at).cast()) };
            let next = if rem >= BLOCK_LANES {
                let next = clamp_lanes(_mm_add_epi16(load8(mem, start + at), widen_weights(w)));
                vmax = _mm_max_epi16(vmax, next);
                next
            } else {
                // Masked tail step: lanes past the span get weight 0, so
                // `clamp(state + 0) == state` (membrane-range invariant)
                // rewrites them unchanged, and the mask keeps them out of
                // the running maximum.
                let mask = load8(&TAIL_MASKS[rem], 0);
                let wv = _mm_and_si128(widen_weights(w), mask);
                let next = clamp_lanes(_mm_add_epi16(load8(mem, start + at), wv));
                let floor = _mm_set1_epi16(i16::from(i8::MIN));
                let masked = _mm_or_si128(_mm_and_si128(mask, next), _mm_andnot_si128(mask, floor));
                vmax = _mm_max_epi16(vmax, masked);
                next
            };
            store8(mem, start + at, next);
            at += BLOCK_LANES;
        }
        store8(lanes, 0, vmax);
    }

    /// The pass arena's update step, for `taps` taps at consecutive
    /// in-plane positions: tap `i` adds weight row
    /// `weights[i·weight_stride..]` to arena row `rows[i·stride..]`, so for
    /// every lane `l < lanes`, `state = clamp(state + w[l])` and
    /// `max[l] = max(max[l], state)`. Each row covers `lanes` rounded up to
    /// whole vectors; the lanes past `lanes` take weight 0, so they keep
    /// their state (the membrane-range invariant) and fold it into `max`.
    /// `rows`, `weights` and `max` must hold that many lanes past their last
    /// row (the plan's tap table carries [`BLOCK_LANES`] bytes of padding
    /// for this).
    #[inline]
    pub(crate) fn accumulate_lanes(
        rows: &mut [i16],
        stride: usize,
        weights: &[i8],
        weight_stride: usize,
        taps: usize,
        lanes: usize,
        max: &mut [i16],
    ) {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { accumulate_lanes_sse2(rows, stride, weights, weight_stride, taps, lanes, max) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn accumulate_lanes_sse2(
        rows: &mut [i16],
        stride: usize,
        weights: &[i8],
        weight_stride: usize,
        taps: usize,
        lanes: usize,
        max: &mut [i16],
    ) {
        if taps == 0 {
            return;
        }
        let padded = lanes.next_multiple_of(BLOCK_LANES);
        assert!(
            (taps - 1) * stride + padded <= rows.len()
                && (taps - 1) * weight_stride + padded <= weights.len()
                && padded <= max.len(),
            "lane step exceeds its rows, weights or maximum"
        );
        let mut at = 0;
        while at < padded {
            // Lanes past `lanes` get weight 0: `clamp(state + 0) == state`
            // (membrane-range invariant) rewrites them unchanged.
            let mask = load8(&TAIL_MASKS[(lanes - at).min(BLOCK_LANES)], 0);
            let mut vmax = load8(max, at);
            for tap in 0..taps {
                let (row, weight) = (tap * stride + at, tap * weight_stride + at);
                // SAFETY: `weight + 8 <= (taps - 1) * weight_stride + padded
                // <= weights.len()` (asserted above).
                let w = unsafe { _mm_loadl_epi64(weights.as_ptr().add(weight).cast()) };
                let next = clamp_lanes(_mm_add_epi16(
                    load8(rows, row),
                    _mm_and_si128(widen_weights(w), mask),
                ));
                store8(rows, row, next);
                vmax = _mm_max_epi16(vmax, next);
            }
            store8(max, at, vmax);
            at += BLOCK_LANES;
        }
    }

    /// The pass arena's state transpose: `dst[col·dst_stride + row] =
    /// src[row·src_stride + col]` for every `row < rows` and `col < cols`.
    /// Whole 8×8 tiles move as eight vectors through three rounds of
    /// unpacks; the edges (when `rows` or `cols` is not a multiple of
    /// [`BLOCK_LANES`]) move one element at a time.
    #[inline]
    pub(crate) fn transpose_lanes(
        src: &[i16],
        src_stride: usize,
        dst: &mut [i16],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { transpose_lanes_sse2(src, src_stride, dst, dst_stride, rows, cols) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn transpose_lanes_sse2(
        src: &[i16],
        src_stride: usize,
        dst: &mut [i16],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        if rows == 0 || cols == 0 {
            return;
        }
        assert!(
            (rows - 1) * src_stride + cols <= src.len()
                && (cols - 1) * dst_stride + rows <= dst.len(),
            "transpose exceeds its source or destination"
        );
        let (tile_rows, tile_cols) = (rows - rows % BLOCK_LANES, cols - cols % BLOCK_LANES);
        for row in (0..tile_rows).step_by(BLOCK_LANES) {
            for col in (0..tile_cols).step_by(BLOCK_LANES) {
                let r: [__m128i; BLOCK_LANES] =
                    std::array::from_fn(|i| load8(src, (row + i) * src_stride + col));
                // Pairs of rows interleaved by 16, then 32, then 64 bits:
                // vector `i` of the last round is column `col + i`.
                let a: [__m128i; BLOCK_LANES] = std::array::from_fn(|i| {
                    let (x, y) = (r[(i / 2) * 2], r[(i / 2) * 2 + 1]);
                    if i % 2 == 0 {
                        _mm_unpacklo_epi16(x, y)
                    } else {
                        _mm_unpackhi_epi16(x, y)
                    }
                });
                let b: [__m128i; BLOCK_LANES] = std::array::from_fn(|i| {
                    let (x, y) = (
                        a[(i / 4) * 4 + (i / 2) % 2],
                        a[(i / 4) * 4 + (i / 2) % 2 + 2],
                    );
                    if i % 2 == 0 {
                        _mm_unpacklo_epi32(x, y)
                    } else {
                        _mm_unpackhi_epi32(x, y)
                    }
                });
                for i in 0..BLOCK_LANES {
                    let (x, y) = (b[i / 2], b[i / 2 + 4]);
                    let column = if i % 2 == 0 {
                        _mm_unpacklo_epi64(x, y)
                    } else {
                        _mm_unpackhi_epi64(x, y)
                    };
                    store8(dst, (col + i) * dst_stride + row, column);
                }
            }
        }
        for row in 0..rows {
            let cols_left = if row < tile_rows { tile_cols } else { 0 };
            for col in cols_left..cols {
                dst[col * dst_stride + row] = src[row * src_stride + col];
            }
        }
    }

    /// The pass arena's per-lane leak catch-up: for `rows` rows of
    /// [`BLOCK_LANES`] lanes spaced `stride` apart,
    /// `state = clamp(state - totals[l])`. Totals must lie in `±256`, which
    /// already pins every membrane to a rail.
    #[inline]
    pub(crate) fn leak_lanes(
        block: &mut [i16],
        stride: usize,
        rows: usize,
        totals: &[i16; BLOCK_LANES],
    ) {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { leak_lanes_sse2(block, stride, rows, totals) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn leak_lanes_sse2(block: &mut [i16], stride: usize, rows: usize, totals: &[i16; BLOCK_LANES]) {
        if rows == 0 {
            return;
        }
        assert!(
            (rows - 1) * stride + BLOCK_LANES <= block.len(),
            "leak rows exceed the block"
        );
        let total = load8(totals, 0);
        for row in 0..rows {
            let at = row * stride;
            store8(
                block,
                at,
                clamp_lanes(_mm_sub_epi16(load8(block, at), total)),
            );
        }
    }

    /// The pass arena's fused leak-and-threshold sweep, the fire-scan walk
    /// of [`BLOCK_LANES`] clusters at once: for `rows` (at most 64) rows of
    /// lanes spaced `stride` apart, `state = clamp(state - totals[l])`,
    /// and a state reaching `thresholds[l]` resets to 0 and sets bit `row`
    /// of `fired[l]`. Returns each lane's maximum resulting state. A lane
    /// with total 0 and a threshold above 127 is left unchanged. Totals must
    /// lie in `±256`.
    #[inline]
    pub(crate) fn sweep_lanes(
        block: &mut [i16],
        stride: usize,
        rows: usize,
        totals: &[i16; BLOCK_LANES],
        thresholds: &[i16; BLOCK_LANES],
        fired: &mut [u64; BLOCK_LANES],
    ) -> [i16; BLOCK_LANES] {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { sweep_lanes_sse2(block, stride, rows, totals, thresholds, fired) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn sweep_lanes_sse2(
        block: &mut [i16],
        stride: usize,
        rows: usize,
        totals: &[i16; BLOCK_LANES],
        thresholds: &[i16; BLOCK_LANES],
        fired: &mut [u64; BLOCK_LANES],
    ) -> [i16; BLOCK_LANES] {
        assert!(rows <= 64, "a sweep covers at most 64 rows");
        *fired = [0; BLOCK_LANES];
        let mut max = [i16::from(i8::MIN); BLOCK_LANES];
        if rows == 0 {
            return max;
        }
        assert!(
            (rows - 1) * stride + BLOCK_LANES <= block.len(),
            "sweep rows exceed the block"
        );
        let total = load8(totals, 0);
        let threshold = load8(thresholds, 0);
        let mut vmax = _mm_set1_epi16(i16::from(i8::MIN));
        for row in 0..rows {
            let at = row * stride;
            let next = clamp_lanes(_mm_sub_epi16(load8(block, at), total));
            // A lane fires when `next >= threshold`, i.e. NOT (thr > next).
            let below = _mm_cmpgt_epi16(threshold, next);
            let bits = _mm_movemask_epi8(below);
            let next = if bits == 0xFFFF {
                next
            } else {
                // One movemask bit pair per lane: the low bit of each pair
                // is clear for a firing lane.
                let mut firing = !bits & 0x5555;
                while firing != 0 {
                    fired[(firing.trailing_zeros() / 2) as usize] |= 1 << row;
                    firing &= firing - 1;
                }
                // Firing lanes reset to 0.
                _mm_and_si128(below, next)
            };
            store8(block, at, next);
            vmax = _mm_max_epi16(vmax, next);
        }
        store8(&mut max, 0, vmax);
        max
    }

    #[inline]
    pub(super) fn reduce_lane_max_blocked(lanes: &[i16; BLOCK_LANES]) -> i16 {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { hmax(load8(lanes, 0)) }
    }

    /// Loads a stack buffer of 8 weights.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_weight_buf(wbuf: &[i8; BLOCK_LANES]) -> __m128i {
        // SAFETY: the buffer holds exactly 8 bytes.
        unsafe { _mm_loadl_epi64(wbuf.as_ptr().cast()) }
    }

    #[inline]
    pub(super) fn apply_leak_blocked(mem: &mut [i16], leak_total: i32) {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { apply_leak_sse2(mem, leak_total) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn apply_leak_sse2(mem: &mut [i16], leak_total: i32) {
        // Any total >= 256 drives every in-range state to the -128 floor, so
        // capping it keeps the subtraction exact in 16 bits.
        let step = _mm_set1_epi16(leak_total.clamp(-256, 256) as i16);
        let mut at = 0;
        while at + BLOCK_LANES <= mem.len() {
            let next = clamp_lanes(_mm_sub_epi16(load8(mem, at), step));
            store8(mem, at, next);
            at += BLOCK_LANES;
        }
        if at < mem.len() {
            super::apply_leak_scalar(&mut mem[at..], leak_total);
        }
    }

    #[inline]
    pub(super) fn fire_walk_blocked(
        mem: &mut [i16],
        leak: i16,
        threshold: i16,
        out: &mut Vec<usize>,
    ) -> i16 {
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline.
        unsafe { fire_walk_sse2(mem, leak, threshold, out) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn fire_walk_sse2(mem: &mut [i16], leak: i16, threshold: i16, out: &mut Vec<usize>) -> i16 {
        let step = _mm_set1_epi16(leak);
        let thr = _mm_set1_epi16(threshold);
        let mut vmax = _mm_set1_epi16(i16::from(i8::MIN));
        let mut bound = i16::from(i8::MIN);
        let mut at = 0;
        while at + BLOCK_LANES <= mem.len() {
            let next = clamp_lanes(_mm_sub_epi16(load8(mem, at), step));
            // A lane fires when `next >= threshold`, i.e. NOT (thr > next).
            let below = _mm_cmpgt_epi16(thr, next);
            if _mm_movemask_epi8(below) == 0xFFFF {
                // Fast path (the common case): no lane fires.
                store8(mem, at, next);
                vmax = _mm_max_epi16(vmax, next);
            } else {
                // Rare: some lane fires. Resolve the block scalar-style so
                // the spike order and resets match the oracle exactly.
                let mut block = [0i16; BLOCK_LANES];
                store8(&mut block, 0, next);
                for (i, state) in block.iter_mut().enumerate() {
                    if *state >= threshold {
                        *state = 0;
                        out.push(at + i);
                    }
                    bound = bound.max(*state);
                }
                let resolved = load8(&block, 0);
                store8(mem, at, resolved);
            }
            at += BLOCK_LANES;
        }
        bound = bound.max(hmax(vmax));
        if at < mem.len() {
            let start = out.len();
            let tail_bound = super::fire_walk_scalar(&mut mem[at..], leak, threshold, out);
            for idx in &mut out[start..] {
                *idx += at;
            }
            bound = bound.max(tail_bound);
        }
        bound
    }
}

pub(crate) use blocked::{accumulate_lanes, leak_lanes, sweep_lanes, transpose_lanes};
use blocked::{
    accumulate_span_blocked, accumulate_span_max_blocked, apply_leak_blocked, fire_walk_blocked,
    reduce_lane_max_blocked,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_accumulate(span: &mut [i16], weights: &[i8]) -> i16 {
        let mut span_max = i16::from(i8::MIN);
        for (state, &w) in span.iter_mut().zip(weights) {
            let next = (*state + i16::from(w)).clamp(i16::from(i8::MIN), i16::from(i8::MAX));
            *state = next;
            span_max = span_max.max(next);
        }
        span_max
    }

    fn pseudo(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 16
    }

    #[test]
    fn kernels_match_the_reference_on_every_span_length() {
        let mut seed = 0x5eed;
        for len in 0..48 {
            for start in [0usize, 1, 3, 7, 8, 13] {
                let size = start + len + 11; // uneven padding behind the span
                let mut base: Vec<i16> = (0..size)
                    .map(|_| (pseudo(&mut seed) % 256) as i16 - 128)
                    .collect();
                let weights: Vec<i8> = (0..len)
                    .map(|_| (pseudo(&mut seed) % 256) as i16 as u8 as i8)
                    .collect();
                let mut expect = base.clone();
                let want = reference_accumulate(&mut expect[start..start + len], &weights);
                for kernel in [Kernel::Scalar, Kernel::Blocked] {
                    let mut mem = base.clone();
                    let got = kernel.accumulate_span(&mut mem, start, &weights);
                    assert_eq!(got, want, "{kernel:?} span_max len={len} start={start}");
                    assert_eq!(mem, expect, "{kernel:?} states len={len} start={start}");
                }
                base.truncate(start + len); // exact-fit buffer: no padding room
                let mut expect = base.clone();
                let want = reference_accumulate(&mut expect[start..start + len], &weights);
                for kernel in [Kernel::Scalar, Kernel::Blocked] {
                    let mut mem = base.clone();
                    let got = kernel.accumulate_span(&mut mem, start, &weights);
                    assert_eq!(got, want, "{kernel:?} tight span_max len={len}");
                    assert_eq!(mem, expect, "{kernel:?} tight states len={len}");
                }
            }
        }
    }

    #[test]
    fn saturation_storm_is_exact() {
        for w in [i8::MIN, i8::MAX] {
            let weights = [w; 19];
            let mut scalar = vec![127i16; 24];
            let mut blocked = scalar.clone();
            for _ in 0..4 {
                let a = Kernel::Scalar.accumulate_span(&mut scalar, 2, &weights);
                let b = Kernel::Blocked.accumulate_span(&mut blocked, 2, &weights);
                assert_eq!(a, b);
                assert_eq!(scalar, blocked);
            }
            let floor = i16::from(if w < 0 { i8::MIN } else { i8::MAX });
            assert!(scalar[2..21].iter().all(|&s| s == floor));
        }
    }

    #[test]
    fn fire_walk_matches_oracle_including_spikes() {
        let mut seed = 0xf1e;
        for len in [0usize, 1, 5, 8, 16, 64, 67] {
            for (leak, threshold) in [(0i16, 10i16), (1, 3), (3, 100), (2, -5)] {
                let base: Vec<i16> = (0..len)
                    .map(|_| (pseudo(&mut seed) % 256) as i16 - 128)
                    .collect();
                let mut mem_s = base.clone();
                let mut mem_b = base.clone();
                let mut out_s = vec![99usize]; // pre-seeded: append semantics
                let mut out_b = vec![99usize];
                let a = Kernel::Scalar.fire_walk(&mut mem_s, leak, threshold, &mut out_s);
                let b = Kernel::Blocked.fire_walk(&mut mem_b, leak, threshold, &mut out_b);
                assert_eq!(a, b, "bound len={len} leak={leak} thr={threshold}");
                assert_eq!(mem_s, mem_b);
                assert_eq!(out_s, out_b);
            }
        }
    }

    #[test]
    fn apply_leak_matches_oracle_for_huge_totals() {
        for total in [0i32, 1, 2, 255, 256, 257, 100_000, -3, -300] {
            let base: Vec<i16> = (-128..=127).collect();
            let mut mem_s = base.clone();
            let mut mem_b = base.clone();
            Kernel::Scalar.apply_leak(&mut mem_s, total);
            Kernel::Blocked.apply_leak(&mut mem_b, total);
            assert_eq!(mem_s, mem_b, "total={total}");
        }
    }

    /// A pass-arena block of `rows` rows × `stride` lanes of random
    /// membranes.
    fn lane_block(seed: &mut u64, rows: usize, stride: usize) -> Vec<i16> {
        (0..rows * stride)
            .map(|_| (pseudo(seed) % 256) as i16 - 128)
            .collect()
    }

    #[test]
    fn lane_accumulation_matches_scalar_with_masked_lanes() {
        let mut seed = 0x1a2e;
        for lanes in 1..=3 * BLOCK_LANES {
            let padded = lanes.next_multiple_of(BLOCK_LANES);
            for (taps, stride, weight_stride) in [(1, padded, lanes), (3, padded + 8, lanes + 5)] {
                // The weight rows run past `lanes` (the tap table's next
                // channels and padding): those bytes must change nothing.
                let weights: Vec<i8> = (0..(taps - 1) * weight_stride + padded)
                    .map(|_| (pseudo(&mut seed) % 256) as u8 as i8)
                    .collect();
                let rows = lane_block(&mut seed, taps, stride);
                let max = lane_block(&mut seed, 1, padded);
                let (mut want_rows, mut want_max) = (rows.clone(), max.clone());
                accumulate_lanes_scalar(
                    &mut want_rows,
                    stride,
                    &weights,
                    weight_stride,
                    taps,
                    lanes,
                    &mut want_max,
                );
                let (mut got_rows, mut got_max) = (rows.clone(), max.clone());
                accumulate_lanes(
                    &mut got_rows,
                    stride,
                    &weights,
                    weight_stride,
                    taps,
                    lanes,
                    &mut got_max,
                );
                assert_eq!(got_rows, want_rows, "lanes {lanes} taps {taps}");
                assert_eq!(got_max, want_max, "lanes {lanes} taps {taps}");
                for tap in 0..taps {
                    let masked = tap * stride + lanes..(tap + 1) * stride;
                    assert_eq!(
                        got_rows[masked.clone()],
                        rows[masked],
                        "masked lanes keep their state"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_accumulation_saturates_both_rails() {
        for (state, weight) in [(127i16, i8::MAX), (-128, i8::MIN), (127, i8::MIN)] {
            let mut rows = [state; 4 * BLOCK_LANES];
            let mut max = LANE_FLOOR.repeat(2);
            let weights = [weight; 4 * BLOCK_LANES];
            let (mut want_rows, mut want_max) = (rows, max.clone());
            for _ in 0..4 {
                accumulate_lanes(&mut rows, 2 * BLOCK_LANES, &weights, 13, 2, 13, &mut max);
                accumulate_lanes_scalar(
                    &mut want_rows,
                    2 * BLOCK_LANES,
                    &weights,
                    13,
                    2,
                    13,
                    &mut want_max,
                );
                assert_eq!(rows, want_rows);
                assert_eq!(max, want_max);
            }
            let rail = if weight > 0 { 127 } else { -128 };
            for row in rows.chunks_exact(2 * BLOCK_LANES) {
                assert!(row[..13].iter().all(|&s| s == rail));
                assert!(row[13..].iter().all(|&s| s == state));
            }
        }
    }

    #[test]
    fn lane_transpose_matches_scalar_on_tiles_and_edges() {
        let mut seed = 0x7a45;
        for (rows, cols) in [(0, 5), (8, 8), (64, 32), (64, 8), (13, 21), (7, 3), (16, 9)] {
            let (src_stride, dst_stride) = (cols + 3, rows + 5);
            let src = lane_block(&mut seed, rows.max(1), src_stride);
            let dst = lane_block(&mut seed, cols.max(1), dst_stride);
            let mut want = dst.clone();
            transpose_lanes_scalar(&src, src_stride, &mut want, dst_stride, rows, cols);
            let mut got = dst.clone();
            transpose_lanes(&src, src_stride, &mut got, dst_stride, rows, cols);
            assert_eq!(got, want, "{rows} x {cols}");
            // Round trip: transposing back restores the source's cells.
            let mut back = lane_block(&mut seed, rows.max(1), src_stride);
            transpose_lanes(&got, dst_stride, &mut back, src_stride, cols, rows);
            for row in 0..rows {
                let cells = row * src_stride..row * src_stride + cols;
                assert_eq!(back[cells.clone()], src[cells], "{rows} x {cols} row {row}");
            }
        }
    }

    #[test]
    fn lane_leak_matches_scalar_for_every_total() {
        let mut seed = 0x1ea4;
        let stride = 3 * BLOCK_LANES;
        for rows in [0usize, 1, 7, 64] {
            let block = lane_block(&mut seed, rows.max(1), stride);
            let mut totals = [0i16; BLOCK_LANES];
            for (l, total) in totals.iter_mut().enumerate() {
                *total = [-256, -255, -3, 0, 1, 127, 255, 256][l];
            }
            let mut want = block.clone();
            leak_lanes_scalar(&mut want[BLOCK_LANES..], stride, rows, &totals);
            let mut got = block.clone();
            leak_lanes(&mut got[BLOCK_LANES..], stride, rows, &totals);
            assert_eq!(got, want, "rows {rows}");
        }
    }

    #[test]
    fn lane_sweep_matches_scalar_and_fire_walk_with_masked_lanes() {
        let mut seed = 0x5e3e;
        let stride = 2 * BLOCK_LANES;
        for rows in [1usize, 5, 8, 63, 64] {
            for (leak, threshold) in [(0i16, 10i16), (1, 3), (3, 100), (2, -5), (-2, 20)] {
                let block = lane_block(&mut seed, rows, stride);
                // Lanes 1 and 6 do not walk: total 0, unreachable threshold.
                let walking = |l: usize| l != 1 && l != 6;
                let mut totals = [0i16; BLOCK_LANES];
                let mut thresholds = [i16::MAX; BLOCK_LANES];
                for l in (0..BLOCK_LANES).filter(|&l| walking(l)) {
                    // Owed steps plus this scan's step, fused per lane.
                    totals[l] = (leak * (l as i16 + 1)).clamp(-256, 256);
                    thresholds[l] = threshold;
                }
                let (mut want, mut want_fired) = (block.clone(), [0; BLOCK_LANES]);
                let want_max = sweep_lanes_scalar(
                    &mut want,
                    stride,
                    rows,
                    &totals,
                    &thresholds,
                    &mut want_fired,
                );
                let (mut got, mut got_fired) = (block.clone(), [u64::MAX; BLOCK_LANES]);
                let got_max =
                    sweep_lanes(&mut got, stride, rows, &totals, &thresholds, &mut got_fired);
                assert_eq!(got, want, "rows {rows} leak {leak} threshold {threshold}");
                assert_eq!(got_fired, want_fired);
                assert_eq!(got_max, want_max);
                for l in 0..BLOCK_LANES {
                    let column =
                        |b: &[i16]| (0..rows).map(|r| b[r * stride + l]).collect::<Vec<_>>();
                    if !walking(l) {
                        assert_eq!(column(&got), column(&block), "lane {l} is untouched");
                        assert_eq!(got_fired[l], 0);
                        continue;
                    }
                    // A walking lane is one cluster's fire walk, with the
                    // owed leak applied first.
                    let mut oracle = column(&block);
                    apply_leak_scalar(&mut oracle, i32::from(leak) * l as i32);
                    let mut spikes = Vec::new();
                    let bound = fire_walk_scalar(&mut oracle, leak, threshold, &mut spikes);
                    assert_eq!(column(&got), oracle, "lane {l}");
                    assert_eq!(got_max[l], bound, "lane {l}");
                    let mask = spikes.iter().fold(0u64, |m, &i| m | 1 << i);
                    assert_eq!(got_fired[l], mask, "lane {l}");
                }
            }
        }
    }

    #[test]
    fn parse_and_names_round_trip() {
        assert_eq!(Kernel::parse("scalar"), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("Blocked"), Some(Kernel::Blocked));
        assert_eq!(Kernel::parse("auto"), Some(Kernel::host_default()));
        assert_eq!(Kernel::parse("weird"), None);
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Blocked.name(), "blocked");
    }
}
