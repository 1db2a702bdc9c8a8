//! Cycle-approximate hardware simulator of the SNE accelerator.
//!
//! The simulator models the architecture of paper Fig. 2 at the granularity
//! the evaluation section reasons about:
//!
//! * [`cluster::Cluster`] — the TDM LIF datapath: 64 time-multiplexed
//!   neurons, 8-bit saturating state, double-buffered state memory (one
//!   update per cycle), per-cluster time-of-last-update (TLU) register,
//!   clock gating of idle units, output FIFO.
//! * [`slice::Slice`] — 16 clusters, the address filter/shift that maps input
//!   events onto receptive fields, and the per-slice weight buffer. The
//!   paper's TDM sequencer and operation decoder are not separate components:
//!   they reach the results only through the per-op cycle costs below.
//! * [`collector::Collector`] — arbitration of sparse slice outputs into a
//!   single stream.
//! * [`engine::Engine`] — the top level: maps eCNN layers onto slices
//!   ([`mapping::LayerMapping`]), runs the event stream and accounts cycles,
//!   synaptic operations and per-component activity ([`stats::CycleStats`]).
//!   The streamers (DMAs), the memory behind them and the synaptic crossbar
//!   (C-XBAR) are not components either: the engine prices their traffic by
//!   formula. One 32-bit word moves per consumed op or emitted event, each
//!   `RST_OP`/`UPDATE_OP` is one crossbar broadcast (one transfer per slice
//!   with [`SneConfig::broadcast`] off), each merged output is one crossbar
//!   transfer, and memory stalls follow assumption 5 below.
//! * [`worker`] — the per-slice span walk of a mapping pass: the engine
//!   runs each slice in turn, on the engine's thread, into a per-slice
//!   record that one slice-order reduction merges. The hardware's slices run in
//!   lock step behind the crossbar and the cycle model charges them that
//!   way, so host threads per slice could only move wall-clock time; an
//!   engine runs every pass on the thread that owns it (DESIGN.md §8).
//! * [`plan::LayerPlan`] — the compiled sparse datapath: per-layer
//!   receptive-field lookup tables (border-class CSR rows for convolutions,
//!   transposed weight rows for dense layers) built once at configure time
//!   and consumed by the span walk in place of the naive mapping walk.
//!   Host-time optimisation only — outputs and modelled cycles are
//!   bit-identical to the naive path.
//! * [`simd::Kernel`] — the blocked membrane kernel: span accumulation,
//!   TLU catch-up and fire scans over the per-slice structure-of-arrays
//!   membrane arena in fixed-width SIMD blocks (SSE2 on x86_64), with a
//!   manually unrolled scalar oracle that every path must match bit-exactly.
//! * [`exec::ExecStrategy`] — a one-variant enum left only as an argument
//!   of the benchmark's calls; no caller can choose threads.
//!
//! The simulator is *functionally exact* with respect to the quantized LIF
//! dynamics (it produces bit-identical output events to the functional model
//! in `sne-model`) and *cycle-approximate* with respect to timing: it applies
//! the paper's published per-event costs (48 cycles per consumed input event,
//! one state update per cluster per cycle) rather than modelling every
//! pipeline register.
//!
//! # Timing-model assumptions
//!
//! The cycle accounting in [`engine::Engine::run_layer`] rests on the
//! following assumptions, calibrated on the paper's published figures:
//!
//! 1. **Per-event cost.** One consumed `UPDATE_OP` costs
//!    [`SneConfig::cycles_per_event`] cycles (48 in the paper, i.e. 120 ns at
//!    the 400 MHz [`SneConfig::clock_mhz`]), during which every addressed
//!    cluster performs one state update per cycle. This is the paper's §IV-A
//!    throughput anchor, not a per-register pipeline model.
//! 2. **State memory ports.** The double-buffered latch state memory
//!    ([`SneConfig::double_buffered_state`], the paper's design) sustains one
//!    update per cycle; the single-ported ablation variant doubles the
//!    per-update cost (read cycle + write-back cycle).
//! 3. **Fire scans and the TLU.** A `FIRE_OP` costs one time-multiplexed scan
//!    of [`SneConfig::neurons_per_cluster`] cycles per cluster, unless every
//!    cluster can skip the scan via its time-of-last-update (TLU) register —
//!    the lazy-leak optimization — in which case it costs a single sequencer
//!    cycle. Lazy leak is *functionally* identical to an eager scan (checked
//!    by a property test).
//! 4. **Resets.** A `RST_OP` costs one cycle: all clusters clear their state
//!    in parallel.
//! 5. **Memory stalls.** The streamer DMAs move one packed 32-bit event word
//!    per consumed op (the input op sequence, once per mapping pass) or per
//!    emitted event (the output stream, once per run). A word takes `L`
//!    cycles to fetch: [`SneConfig::memory_latency`] plus 2 cycles of
//!    contention per streamer beyond the first ([`SneConfig::num_streamers`]).
//!    The engine consumes one every `I` = [`SneConfig::cycles_per_event`]
//!    cycles, and a full FIFO of `D` = [`SneConfig::streamer_fifo_depth`]
//!    words hides `D × I` cycles. A transfer of `n` words therefore stalls
//!    for `max(0, n × (L − I) − D × I)` cycles when `L > I`, and never when
//!    `L ≤ I` (the default: 4 + 2 < 48) or when an event in the transfer
//!    does not fit the Fig. 1 word (a timestamp past 255). Weights streamed
//!    per event, because a layer's filters exceed
//!    [`SneConfig::weight_buffer_sets`], stall for the words an event's
//!    synaptic ops need beyond its consumption window. The stalls are added
//!    to the total cycle count.
//! 6. **Clock gating.** Clusters not addressed by the current event are
//!    clock-gated; [`stats::CycleStats`] accounts active versus gated
//!    cluster-cycles, which is what makes the energy model in `sne-energy`
//!    activity-proportional.
//!
//! # Example
//!
//! ```
//! use sne_sim::config::SneConfig;
//! use sne_sim::engine::Engine;
//!
//! let config = SneConfig::default();
//! let engine = Engine::new(config);
//! assert_eq!(engine.config().num_slices, 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod collector;
pub mod config;
pub mod engine;
pub mod exec;
pub mod mapping;
pub mod plan;
pub mod simd;
pub mod slice;
pub mod state;
pub mod stats;
pub mod trace;
pub mod worker;

mod arena;
mod error;

pub use config::SneConfig;
pub use engine::{Engine, LayerRunOutput};
pub use error::SimError;
pub use exec::ExecStrategy;
pub use mapping::{LayerMapping, LifHardwareParams};
pub use plan::LayerPlan;
pub use simd::Kernel;
pub use state::LayerState;
pub use stats::CycleStats;
