//! Equivalence suite of the blocked membrane kernel: the SIMD-blocked
//! [`Kernel::Blocked`] datapath must reproduce the scalar oracle
//! ([`Kernel::Scalar`]) and the naive mapping walk **bit-exactly** — kernel
//! primitives, engine outputs, cycle statistics, execution traces, energy
//! reports and persisted [`LayerState`] — over random conv/dense geometries,
//! span lengths straddling the block-width boundary, all-`±127` saturation
//! storms, chunked stateful resume and streamed weights. The scalar path is
//! the reference; the blocked path is only allowed to move host wall-clock
//! time.

use proptest::prelude::*;
use sne_event::{Event, EventStream};
use sne_sim::mapping::{LayerMapping, LifHardwareParams, MapShape};
use sne_sim::plan::LayerPlan;
use sne_sim::{Engine, ExecStrategy, Kernel, LayerState, SneConfig};

/// Filter-buffer size in weight sets, by index: one set streams the weights
/// of every layer with two or more (conv input channels, dense input
/// positions) per event; the default holds them resident.
fn weight_buffer_sets(index: usize) -> usize {
    [1, SneConfig::default().weight_buffer_sets][index]
}

fn small_config(num_slices: usize) -> SneConfig {
    SneConfig {
        num_slices,
        clusters_per_slice: 4,
        neurons_per_cluster: 8,
        ..SneConfig::default()
    }
}

fn conv_mapping(
    in_channels: u16,
    height: u16,
    width: u16,
    out_channels: u16,
    kernel: u16,
    weight_seed: u64,
    params: LifHardwareParams,
) -> LayerMapping {
    let count = usize::from(out_channels)
        * usize::from(in_channels)
        * usize::from(kernel)
        * usize::from(kernel);
    let weights: Vec<i8> = (0..count as u64)
        .map(|i| ((i.wrapping_mul(weight_seed.wrapping_add(13)) % 15) as i8) - 7)
        .collect();
    LayerMapping::conv(
        MapShape::new(in_channels, height, width),
        out_channels,
        kernel,
        weights,
        params,
    )
    .unwrap()
}

fn dense_mapping(
    input: MapShape,
    outputs: u16,
    weight_seed: u64,
    params: LifHardwareParams,
) -> LayerMapping {
    let count = usize::from(outputs) * input.len();
    let weights: Vec<i8> = (0..count as u64)
        .map(|i| ((i.wrapping_mul(weight_seed.wrapping_add(29)) % 15) as i8) - 7)
        .collect();
    LayerMapping::dense(input, outputs, weights, params).unwrap()
}

/// Conv geometries `(height, width)` on both sides of the pass arena's
/// condition for the 4-cluster × 8-neuron slices of [`small_config`] (32
/// neurons per slice, so 64 per pass on 2 slices and 96 on 3): planes of
/// whole clusters, and passes of whole planes.
const ARENA_GEOMETRIES: [(u16, u16); 6] = [
    // Plane 16: two or three whole planes per slice (arena).
    (4, 4),
    // Plane 32 == one slice, width 8 == one row per cluster (arena).
    (4, 8),
    // Plane 15: not a whole number of clusters (span walk).
    (3, 5),
    // Plane 24: passes of 96 hold whole planes (arena on 3 slices), passes
    // of 64 do not (span walk on 2).
    (4, 6),
    // Plane 24 again, with rows that fit a cluster: the same two sides.
    (6, 4),
    // Plane 64: a pass of 64 is one plane split over two slices (arena on
    // 2 slices); a pass of 96 splits a plane (span walk on 3).
    (8, 8),
];

fn arena_stream(
    height: u16,
    width: u16,
    in_channels: u16,
    timesteps: u32,
    spikes: &[(u32, u16, u16, u16)],
) -> EventStream {
    let mut stream = EventStream::new(width, height, in_channels, timesteps);
    for &(t, ch, x, y) in spikes {
        stream
            .push(Event::update(
                t % timesteps,
                ch % in_channels,
                x % width,
                y % height,
            ))
            .unwrap();
    }
    stream
}

/// Runs one layer on an engine forced to `kernel`, naive or planned.
fn run_with_kernel(
    config: SneConfig,
    kernel: Kernel,
    mapping: &LayerMapping,
    plan: Option<&LayerPlan>,
    stream: &EventStream,
) -> sne_sim::LayerRunOutput {
    let mut engine = Engine::new(config);
    engine.set_kernel(kernel);
    match plan {
        Some(plan) => engine.run_layer_planned(mapping, plan, stream).unwrap(),
        None => engine.run_layer(mapping, stream).unwrap(),
    }
}

proptest! {
    /// Primitive level: `accumulate_span` over random membrane states and
    /// span lengths 0..=3·block-width (every boundary straddle) — identical
    /// rewritten states and identical span max on both kernels, with the
    /// out-of-span arena lanes untouched.
    #[test]
    fn accumulate_span_blocked_matches_scalar(
        // Arena lanes always hold clamped membrane states (the datapath
        // invariant the blocked kernel's masked tail relies on).
        mem in prop::collection::vec(-128i16..=127, 1..64),
        weights in prop::collection::vec(-128i8..=127, 0..25),
        start_seed in 0usize..64,
    ) {
        let start = start_seed % mem.len();
        let len = weights.len().min(mem.len() - start);
        let weights = &weights[..len];

        let mut scalar = mem.clone();
        let scalar_max = Kernel::Scalar.accumulate_span(&mut scalar, start, weights);
        let mut blocked = mem.clone();
        let blocked_max = Kernel::Blocked.accumulate_span(&mut blocked, start, weights);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(blocked_max, scalar_max);
        // Lanes outside the span are untouched (the masked-tail contract).
        prop_assert_eq!(&blocked[..start], &mem[..start]);
        prop_assert_eq!(&blocked[start + len..], &mem[start + len..]);
    }

    /// Primitive level: the windowed lane-max form (`accumulate_span_max` +
    /// `reduce_lane_max`, the slice hot path) — identical rewritten states
    /// and identical reduced window maximum on both kernels, and identical
    /// to folding the per-span `accumulate_span` maxima, over multi-span
    /// windows straddling the block width. Half the spans carry trailing
    /// weight padding past `len` (the plan-pool layout) whose junk values
    /// must be ignored.
    #[test]
    fn lane_max_accumulation_matches_scalar_and_per_span_reduction(
        mem in prop::collection::vec(-128i16..=127, 8..64),
        spans in prop::collection::vec(
            (0usize..64, prop::collection::vec(-128i8..=127, 0..20), 0u8..2),
            1..6,
        ),
    ) {
        use sne_sim::simd::{BLOCK_LANES, LANE_FLOOR};

        let mut scalar = mem.clone();
        let mut blocked = mem.clone();
        let mut folded = mem.clone();
        let mut scalar_lanes = LANE_FLOOR;
        let mut blocked_lanes = LANE_FLOOR;
        let mut folded_max = i16::from(i8::MIN);
        for (start_seed, weights, pad) in &spans {
            let start = start_seed % mem.len();
            let len = weights.len().min(mem.len() - start);
            let mut weights = weights[..len].to_vec();
            if *pad == 1 {
                // Padding bytes past `len` must never influence anything.
                weights.extend(std::iter::repeat_n(0x55u8 as i8, BLOCK_LANES + 1));
            }
            Kernel::Scalar.accumulate_span_max(
                &mut scalar, start, &weights, len, &mut scalar_lanes,
            );
            Kernel::Blocked.accumulate_span_max(
                &mut blocked, start, &weights, len, &mut blocked_lanes,
            );
            folded_max = folded_max.max(
                Kernel::Scalar.accumulate_span(&mut folded, start, &weights[..len]),
            );
        }
        prop_assert_eq!(&scalar, &folded);
        prop_assert_eq!(&blocked, &folded);
        let scalar_reduced = Kernel::Scalar.reduce_lane_max(&scalar_lanes);
        let blocked_reduced = Kernel::Blocked.reduce_lane_max(&blocked_lanes);
        prop_assert_eq!(scalar_reduced, folded_max);
        prop_assert_eq!(blocked_reduced, folded_max);
        // Reduction is kernel-independent of the lane distribution.
        prop_assert_eq!(Kernel::Blocked.reduce_lane_max(&scalar_lanes), folded_max);
        prop_assert_eq!(Kernel::Scalar.reduce_lane_max(&blocked_lanes), folded_max);
    }

    /// Primitive level: saturation storm — every state and weight pinned to
    /// `±127`, the worst case for the saturating lane adds and the clamp.
    #[test]
    fn saturation_storm_is_bit_exact(
        signs in prop::collection::vec(0u8..2, 8..40),
        weight_signs in prop::collection::vec(0u8..2, 8..40),
        leak_total in -600i32..600,
        threshold in 1i16..128,
    ) {
        let mem: Vec<i16> = signs.iter().map(|&s| if s == 1 { 127 } else { -128 }).collect();
        let weights: Vec<i8> = weight_signs
            .iter()
            .take(mem.len())
            .map(|&s| if s == 1 { 127 } else { -127 })
            .collect();

        let mut scalar = mem.clone();
        let scalar_max = Kernel::Scalar.accumulate_span(&mut scalar, 0, &weights);
        let mut blocked = mem.clone();
        let blocked_max = Kernel::Blocked.accumulate_span(&mut blocked, 0, &weights);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(blocked_max, scalar_max);

        let mut scalar_leak = mem.clone();
        Kernel::Scalar.apply_leak(&mut scalar_leak, leak_total);
        let mut blocked_leak = mem.clone();
        Kernel::Blocked.apply_leak(&mut blocked_leak, leak_total);
        prop_assert_eq!(&blocked_leak, &scalar_leak);

        let mut scalar_fire = mem.clone();
        let mut scalar_out = Vec::new();
        let sm = Kernel::Scalar.fire_walk(&mut scalar_fire, 1, threshold, &mut scalar_out);
        let mut blocked_fire = mem;
        let mut blocked_out = Vec::new();
        let bm = Kernel::Blocked.fire_walk(&mut blocked_fire, 1, threshold, &mut blocked_out);
        prop_assert_eq!(&blocked_fire, &scalar_fire);
        prop_assert_eq!(&blocked_out, &scalar_out);
        prop_assert_eq!(bm, sm);
    }

    /// Primitive level: `fire_walk` — identical post-leak states, identical
    /// fired indices (order included) and identical running max for any
    /// leak/threshold over lengths straddling the block width.
    #[test]
    fn fire_walk_blocked_matches_scalar(
        mem in prop::collection::vec(-128i16..=127, 1..41),
        leak in 0i16..5,
        threshold in 1i16..40,
    ) {
        let mut scalar = mem.clone();
        let mut scalar_out = vec![7usize];
        let sm = Kernel::Scalar.fire_walk(&mut scalar, leak, threshold, &mut scalar_out);
        let mut blocked = mem;
        let mut blocked_out = vec![7usize];
        let bm = Kernel::Blocked.fire_walk(&mut blocked, leak, threshold, &mut blocked_out);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(&blocked_out, &scalar_out);
        prop_assert_eq!(bm, sm);
    }

    /// Engine level: blocked ≡ scalar ≡ naive. One conv layer over random
    /// geometry, on the naive *and* the planned datapath — identical
    /// outputs, statistics and per-timestep profiles everywhere. The scalar
    /// naive run is the single oracle.
    #[test]
    fn engine_runs_agree_across_kernels_and_datapaths(
        out_channels in 1u16..11,
        kernel_index in 0usize..2,
        leak in 0i16..3,
        threshold in 1i16..6,
        num_slices in 2usize..4,
        spikes in prop::collection::vec(
            (0u32..12, 0u16..4, 0u16..4),
            30..120,
        ),
        weight_seed in 0u64..1000,
    ) {
        let kernel = [1u16, 3][kernel_index];
        let mapping = conv_mapping(
            1, 4, 4, out_channels, kernel, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 12);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        let config = small_config(num_slices);
        let expected = run_with_kernel(config, Kernel::Scalar, &mapping, None, &stream);
        for membrane_kernel in [Kernel::Scalar, Kernel::Blocked] {
            for plan in [None, Some(&plan)] {
                let result = run_with_kernel(config, membrane_kernel, &mapping, plan, &stream);
                prop_assert_eq!(&result.output, &expected.output);
                prop_assert_eq!(result.stats, expected.stats);
                prop_assert_eq!(&result.timestep_cycles, &expected.timestep_cycles);
            }
        }
    }

    /// Engine level, dense: the long contiguous dense strides are the
    /// blocked kernel's best case — and must still be bit-exact.
    #[test]
    fn dense_runs_agree_across_kernels(
        outputs in 1u16..40,
        leak in 0i16..3,
        threshold in 1i16..6,
        spikes in prop::collection::vec(
            (0u32..10, 0u16..4, 0u16..4),
            10..80,
        ),
        weight_seed in 0u64..1000,
    ) {
        let mapping = dense_mapping(
            MapShape::new(1, 4, 4), outputs, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 10);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        let expected = run_with_kernel(small_config(2), Kernel::Scalar, &mapping, None, &stream);
        for plan in [None, Some(&plan)] {
            let result = run_with_kernel(small_config(2), Kernel::Blocked, &mapping, plan, &stream);
            prop_assert_eq!(result, expected.clone());
        }
    }

    /// Engine level, both sides of the pass arena's condition: planes that
    /// are and are not a whole number of clusters, passes that do and do
    /// not hold whole planes, slices that split a plane, partly used last
    /// slices and last passes, kernels 1, 3 and 5, one or two input
    /// channels, multi-pass layers (up to 12 output channels on 2-3
    /// slices), negative leaks and thresholds, TLU and clock gating on and
    /// off, and weights resident or (with two input channels and a one-set
    /// filter buffer) streamed per event. The blocked planned run — pass
    /// arena where it applies, span walk elsewhere — must equal the scalar
    /// naive oracle exactly, traces included.
    #[test]
    fn arena_and_span_walks_match_the_scalar_oracle(
        geometry in 0usize..ARENA_GEOMETRIES.len(),
        kernel_index in 0usize..3,
        in_channels in 1u16..3,
        out_channels in 1u16..13,
        params in (-2i16..3, -1i16..6),
        num_slices in 2usize..4,
        spikes in prop::collection::vec((0u32..10, 0u16..2, 0u16..64, 0u16..64), 20..120),
        weight_seed in 0u64..1000,
        switches in 0u8..4,
        buffer_index in 0usize..2,
    ) {
        let (height, width) = ARENA_GEOMETRIES[geometry];
        let kernel = [1u16, 3, 5][kernel_index];
        let (leak, threshold) = params;
        let mapping = conv_mapping(
            in_channels, height, width, out_channels, kernel, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let stream = arena_stream(height, width, in_channels, 10, &spikes);
        let config = SneConfig {
            tlu_enabled: switches & 1 == 0,
            clock_gating: switches & 2 == 0,
            weight_buffer_sets: weight_buffer_sets(buffer_index),
            ..small_config(num_slices)
        };
        let mut oracle = Engine::new(config);
        oracle.set_kernel(Kernel::Scalar);
        oracle.enable_trace(4096);
        let expected = oracle.run_layer(&mapping, &stream).unwrap();
        let mut engine = Engine::new(config);
        engine.set_kernel(Kernel::Blocked);
        engine.enable_trace(4096);
        let result = engine.run_layer_planned(&mapping, &plan, &stream).unwrap();
        prop_assert_eq!(&result, &expected);
        prop_assert_eq!(engine.trace(), oracle.trace());
    }

    /// Chunked resume on both sides of the pass arena's condition: the
    /// blocked planned engine must persist **exactly** the scalar naive
    /// oracle's state (membranes, pending leaks, dirty flags) at every cut,
    /// with identical per-chunk runs, for leaks of either sign, with the TLU
    /// on and off, and for two clients interleaved on one engine. The
    /// arena's per-lane block maximum decides fire-scan elision, which the
    /// persisted pending leaks expose, and its scatter and gather move every
    /// membrane across the cut.
    #[test]
    fn arena_chunked_resume_persists_the_oracle_state(
        geometry in 0usize..ARENA_GEOMETRIES.len(),
        kernel_index in 0usize..3,
        out_channels in 1u16..13,
        params in (-1i16..2, 0i16..7),
        cut in 1u32..12,
        spikes in prop::collection::vec((0u32..12, 0u16..1, 0u16..64, 0u16..64), 40..140),
        weight_seed in 0u64..1000,
        tlu_off in 0u8..2,
    ) {
        let (height, width) = ARENA_GEOMETRIES[geometry];
        let kernel = [1u16, 3, 5][kernel_index];
        let (leak, threshold) = params;
        let mapping = conv_mapping(
            1, height, width, out_channels, kernel, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        // Two clients interleaved on one engine, the second fed a few of
        // the spikes mirrored in time: each resume must import its own
        // state, whatever the other left in the engine.
        let mirrored: Vec<_> = spikes
            .iter()
            .take(4)
            .map(|&(t, ch, x, y)| (11 - t % 12, ch, x, y))
            .collect();
        let streams = [
            arena_stream(height, width, 1, 12, &spikes),
            arena_stream(height, width, 1, 12, &mirrored),
        ];
        let config = SneConfig {
            tlu_enabled: tlu_off == 0,
            ..small_config(2)
        };
        let mut oracle = Engine::new(config);
        oracle.set_kernel(Kernel::Scalar);
        let mut oracle_states = [LayerState::new(&config, &mapping), LayerState::new(&config, &mapping)];
        let mut engine = Engine::new(config);
        engine.set_kernel(Kernel::Blocked);
        let mut states = oracle_states.clone();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            for client in 0..2 {
                let chunk = streams[client].window(start, end);
                let expected = oracle
                    .run_layer_stateful(&mapping, &chunk, &mut oracle_states[client], i > 0)
                    .unwrap();
                let result = engine
                    .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut states[client], i > 0)
                    .unwrap();
                prop_assert_eq!(&result, &expected);
                prop_assert_eq!(&states[client], &oracle_states[client]);
            }
        }
    }

    /// Stateful streaming: chunked resume on the blocked kernel leaves the
    /// *identical persisted state* (membranes, pending leaks, dirty flags)
    /// as the scalar kernel, for any cut point. The membrane
    /// bound decides fire-scan walk elision, so an inexact blocked span max
    /// would diverge here.
    #[test]
    fn chunked_resume_persists_identical_state_across_kernels(
        cut in 1u32..12,
        out_channels in 4u16..9,
        threshold in 2i16..7,
        spikes in prop::collection::vec(
            (0u32..12, 0u16..4, 0u16..4),
            40..140,
        ),
        weight_seed in 0u64..1000,
    ) {
        let mapping = conv_mapping(
            1, 4, 4, out_channels, 3, weight_seed,
            LifHardwareParams { leak: 1, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 12);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        // Scalar oracle: the same chunk cuts, stateful planned resume.
        let mut oracle_engine = Engine::new(small_config(2));
        oracle_engine.set_kernel(Kernel::Scalar);
        let mut oracle_state = LayerState::new(&small_config(2), &mapping);
        let mut expected_events = Vec::new();
        let mut expected_stats = Vec::new();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = oracle_engine
                .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut oracle_state, i > 0)
                .unwrap();
            expected_stats.push(run.stats);
            expected_events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }

        let mut chunked = Engine::new(small_config(2));
        chunked.set_kernel(Kernel::Blocked);
        let mut state = LayerState::new(&small_config(2), &mapping);
        let mut events = Vec::new();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunked
                .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut state, i > 0)
                .unwrap();
            prop_assert_eq!(run.stats, expected_stats[i]);
            events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }
        prop_assert_eq!(&events[..], &expected_events[..]);
        prop_assert_eq!(&state, &oracle_state);
    }
}

/// Trace level: the cycle-level execution trace — pass starts, event
/// dispatches, fire scans, TLU skips — is record-for-record identical on
/// both kernels (the blocked kernel may not change *when* anything happens,
/// only how fast the host computes it).
#[test]
fn execution_traces_are_identical_across_kernels() {
    let mapping = conv_mapping(
        2,
        6,
        6,
        4,
        3,
        17,
        LifHardwareParams {
            leak: 1,
            threshold: 3,
        },
    );
    let plan = LayerPlan::build(&mapping);
    let mut stream = EventStream::new(6, 6, 2, 8);
    for i in 0u64..60 {
        let t = (i % 8) as u32;
        let ch = ((i / 8) % 2) as u16;
        let x = ((i * 5) % 6) as u16;
        let y = ((i * 11) % 6) as u16;
        stream.push(Event::update(t, ch, x, y)).unwrap();
    }
    let mut traces = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Blocked] {
        let mut engine = Engine::new(small_config(3));
        engine.set_kernel(kernel);
        engine.enable_trace(4096);
        let _ = engine.run_layer_planned(&mapping, &plan, &stream).unwrap();
        traces.push(engine.trace().clone());
    }
    assert_eq!(traces[0], traces[1]);
    assert!(!traces[0].records().is_empty());
}

/// Session level: the full Fig. 6 network gives the identical
/// [`InferenceResult`] — prediction, spike counts, statistics, **energy**
/// and timing — on the blocked and the scalar kernel, whole-sample and
/// chunked, against the naive-datapath oracle.
#[test]
fn session_results_agree_across_kernels_on_the_fig6_network() {
    use sne::compile::CompiledNetwork;
    use sne::session::InferenceSession;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let network =
        CompiledNetwork::random(&Topology::paper_fig6(Shape::new(2, 16, 16), 11), &mut rng)
            .unwrap();
    let stream = sne::proportionality::stream_with_activity((2, 16, 16), 8, 0.05, 17);

    let mut oracle = InferenceSession::new(network.clone(), SneConfig::with_slices(8)).unwrap();
    oracle.set_kernel(Kernel::Scalar);
    oracle.set_plan_enabled(false);
    let expected = oracle.infer(&stream).unwrap();

    for kernel in [Kernel::Scalar, Kernel::Blocked] {
        let mut session =
            InferenceSession::new(network.clone(), SneConfig::with_slices(8)).unwrap();
        session.set_kernel(kernel);
        assert_eq!(session.kernel(), kernel);
        assert_eq!(
            session.infer(&stream).unwrap(),
            expected,
            "kernel {kernel:?}"
        );

        // Chunked streaming matches the whole run spike for spike.
        session.reset();
        let mut spikes = 0;
        for chunk in stream.chunks(3) {
            spikes += session.push(&chunk).unwrap().output.spike_count();
        }
        assert_eq!(
            spikes as u32,
            expected.output_spike_counts.iter().sum::<u32>(),
            "kernel {kernel:?}"
        );
    }
}

/// Session level, the benchmark's own geometry: Fig. 6 at 32×32 on 8
/// slices, where l0 runs 4 passes of 8 channels and l1 one pass of 32 on
/// the pass arena. A short stream pushed in chunks through
/// [`RuntimeArtifact::push`] leaves the identical [`ClientState`]
/// (membranes, pending leaks, dirty flags, accumulators) and identical chunk
/// outputs on the blocked kernel as on the planned scalar-kernel oracle.
///
/// [`RuntimeArtifact::push`]: sne::artifact::RuntimeArtifact::push
/// [`ClientState`]: sne::artifact::ClientState
#[test]
fn chunked_pushes_agree_across_kernels_on_the_32x32_fig6_network() {
    use sne::artifact::RuntimeArtifact;
    use sne::compile::CompiledNetwork;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let network =
        CompiledNetwork::random(&Topology::paper_fig6(Shape::new(2, 32, 32), 11), &mut rng)
            .unwrap();
    let artifact = RuntimeArtifact::new(network, SneConfig::with_slices(8)).unwrap();
    let stream = sne::proportionality::stream_with_activity((2, 32, 32), 8, 0.04, 23);

    let mut clients = Vec::new();
    let mut outputs = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Blocked] {
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        engine.set_kernel(kernel);
        let mut client = artifact.new_client();
        let chunks: Vec<_> = stream
            .chunks(3)
            .map(|chunk| {
                artifact
                    .push(&mut engine, &mut client, &chunk, true)
                    .unwrap()
            })
            .collect();
        outputs.push(chunks);
        clients.push(client);
    }
    assert!(
        outputs[0]
            .iter()
            .any(|chunk| chunk.output.spike_count() > 0),
        "the stream must drive spikes or the comparison is vacuous"
    );
    assert_eq!(outputs[1], outputs[0]);
    assert_eq!(clients[1], clients[0]);
    assert_eq!(artifact.summary(&clients[1]), artifact.summary(&clients[0]));
}
