//! Integration suite of the parallel execution core: `Threaded(n)` must be
//! **bit-exact** with `Sequential` at every level of the stack — engine
//! (per-slice workers), sessions (pipelined layer stages) and batch runner
//! (lanes on worker threads) — and the stats reduction must be a true merge
//! (associative, order-independent).

use proptest::prelude::*;
use sne::batch::BatchRunner;
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne::ExecStrategy;
use sne_event::{Event, EventStream};
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::mapping::{LifHardwareParams, MapShape};
use sne_sim::{CycleStats, Engine, LayerMapping, LayerState, SneConfig};

/// The thread counts every property is checked against.
const THREADS: [usize; 3] = [2, 3, 8];

fn small_config(num_slices: usize) -> SneConfig {
    SneConfig {
        num_slices,
        clusters_per_slice: 4,
        neurons_per_cluster: 8,
        ..SneConfig::default()
    }
}

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

proptest! {
    /// Engine level: for any random layer (kernel, channel count spanning
    /// one or several mapping passes, leak/threshold) and any random event
    /// stream, `Threaded(n)` produces the identical `LayerRunOutput` —
    /// output events, `CycleStats` and per-timestep cycle profile — as
    /// `Sequential`, for n in {2, 3, 8}. The workloads are sized (and
    /// asserted) to cross `Engine::MIN_PARALLEL_UNITS`, so the threaded
    /// variants genuinely fan out instead of taking the small-pass fallback.
    #[test]
    fn threaded_engine_runs_are_bit_exact(
        out_channels in 1u16..10,
        kernel_index in 0usize..2,
        leak in 0i16..3,
        threshold in 1i16..6,
        num_slices in 2usize..4,
        spikes in prop::collection::vec(
            (0u32..16, 0u16..4, 0u16..4),
            520..700,
        ),
        weight_seed in 0u64..1000,
    ) {
        let kernel = [1u16, 3][kernel_index];
        let weight_count =
            usize::from(out_channels) * usize::from(kernel) * usize::from(kernel);
        let weights: Vec<i8> = (0..weight_count)
            .map(|i| (((i as u64).wrapping_mul(weight_seed + 7) % 15) as i8) - 7)
            .collect();
        let mapping = LayerMapping::conv(
            MapShape::new(1, 4, 4),
            out_channels,
            kernel,
            weights,
            LifHardwareParams { leak, threshold },
        )
        .unwrap();
        let mut stream = EventStream::new(4, 4, 1, 16);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        prop_assert!(stream.to_op_sequence().len() * num_slices >= Engine::MIN_PARALLEL_UNITS);

        let mut sequential = Engine::new(small_config(num_slices));
        let expected = sequential.run_layer(&mapping, &stream).unwrap();
        for threads in THREADS {
            let mut threaded = Engine::with_exec(
                small_config(num_slices),
                ExecStrategy::threaded(threads),
            );
            let result = threaded.run_layer(&mapping, &stream).unwrap();
            prop_assert_eq!(&result.output, &expected.output);
            prop_assert_eq!(result.stats, expected.stats);
            prop_assert_eq!(&result.timestep_cycles, &expected.timestep_cycles);
        }
    }

    /// Engine level, stateful: chunked `run_layer_stateful` resume under a
    /// threaded strategy carries the identical neuron state across chunk
    /// boundaries (events of chunked threaded == whole sequential). The
    /// spike count guarantees the larger chunk crosses the parallel gate
    /// whatever the cut (a tiny chunk taking the sequential fallback while
    /// the other fans out is exactly the mixed regime streaming produces).
    #[test]
    fn threaded_stateful_chunks_are_bit_exact(
        cut in 1u32..16,
        threshold in 2i16..7,
        spikes in prop::collection::vec(
            (0u32..16, 0u16..4, 0u16..4),
            1400..1600,
        ),
    ) {
        let mapping = LayerMapping::conv(
            MapShape::new(1, 4, 4),
            4,
            3,
            vec![2i8; 4 * 9],
            LifHardwareParams { leak: 1, threshold },
        )
        .unwrap();
        let mut stream = EventStream::new(4, 4, 1, 16);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        let mut whole = Engine::new(small_config(2));
        let expected = whole.run_layer(&mapping, &stream).unwrap();

        for threads in THREADS {
            let mut chunked = Engine::with_exec(
                small_config(2),
                ExecStrategy::threaded(threads),
            );
            let mut state = LayerState::new(&small_config(2), &mapping);
            let mut events = Vec::new();
            let mut crossed = false;
            for (i, (start, end)) in [(0, cut), (cut, 16)].into_iter().enumerate() {
                let chunk = stream.window(start, end);
                crossed |= chunk.to_op_sequence().len() * 2 >= Engine::MIN_PARALLEL_UNITS;
                let run = chunked
                    .run_layer_stateful(&mapping, &chunk, &mut state, i > 0)
                    .unwrap();
                events.extend(run.output.into_events().into_iter().map(|e| Event {
                    t: e.t + start,
                    ..e
                }));
            }
            prop_assert!(crossed, "no chunk crossed the parallel gate");
            prop_assert_eq!(&events[..], expected.output.as_slice());
        }
    }

    /// Batch level: the `BatchReport` of N lanes driven on worker threads is
    /// bit-identical to the sequential round-robin runner — per-stream
    /// results, aggregated stats, makespan and energy.
    #[test]
    fn threaded_batch_reports_are_bit_exact(
        lanes in 1usize..5,
        num_streams in 0usize..7,
        network_seed in 0u64..16,
        stream_seed in 0u64..1000,
    ) {
        let network = compiled(network_seed);
        let streams: Vec<EventStream> = (0..num_streams)
            .map(|i| {
                sne::proportionality::stream_with_activity(
                    (2, 8, 8),
                    8,
                    0.03 + 0.01 * i as f64,
                    stream_seed + i as u64,
                )
            })
            .collect();
        let mut sequential =
            BatchRunner::new(network.clone(), SneConfig::with_slices(2), lanes).unwrap();
        let expected = sequential.run(&streams).unwrap();
        for threads in THREADS {
            let mut parallel = BatchRunner::with_exec(
                network.clone(),
                SneConfig::with_slices(2),
                lanes,
                ExecStrategy::threaded(threads),
            )
            .unwrap();
            let report = parallel.run(&streams).unwrap();
            prop_assert_eq!(&report.results, &expected.results);
            prop_assert_eq!(report.total_stats, expected.total_stats);
            prop_assert_eq!(report.lanes, expected.lanes);
            // Scheduler workers are clamped to the pool size: more workers
            // than engines would only queue on the pool.
            prop_assert_eq!(report.threads, threads.min(lanes));
            prop_assert!((report.makespan_ms - expected.makespan_ms).abs() < 1e-12);
            prop_assert!((report.total_energy_uj - expected.total_energy_uj).abs() < 1e-12);
            prop_assert!((report.aggregate_rate - expected.aggregate_rate).abs() < 1e-9
                || (report.aggregate_rate.is_infinite() && expected.aggregate_rate.is_infinite()));
        }
    }

    /// The stats reduction is a true merge: associative and independent of
    /// the order partial stats are combined in — the property the parallel
    /// fan-out's determinism rests on.
    #[test]
    fn stats_merge_is_associative_and_order_independent(
        a_seed in 0u64..1_000_000,
        b_seed in 0u64..1_000_000,
        c_seed in 0u64..1_000_000,
    ) {
        fn stats_from(seed: u64) -> CycleStats {
            // Spread the seed over every field so no counter is degenerate.
            let v = |k: u64| seed.wrapping_mul(6_364_136_223_846_793_005).rotate_left(k as u32) % 1_000;
            CycleStats {
                total_cycles: v(1),
                update_cycles: v(2),
                fire_cycles: v(3),
                reset_cycles: v(4),
                stall_cycles: v(5),
                synaptic_ops: v(6),
                tlu_skipped_updates: v(7),
                active_cluster_cycles: v(8),
                gated_cluster_cycles: v(9),
                input_events: v(10),
                output_events: v(11),
                streamer_reads: v(12),
                streamer_writes: v(13),
                xbar_transfers: v(14),
                collector_events: v(15),
                passes: v(16),
            }
        }
        let (a, b, c) = (stats_from(a_seed), stats_from(b_seed), stats_from(c_seed));

        // Associativity: (a + b) + c == a + (b + c).
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);

        // Order independence: any permutation gives the same totals.
        let mut forward = CycleStats::new();
        for s in [&a, &b, &c] {
            forward.merge(s);
        }
        let mut backward = CycleStats::new();
        for s in [&c, &b, &a] {
            backward.merge(s);
        }
        prop_assert_eq!(forward, backward);
    }
}

#[test]
fn threaded_sessions_match_sequential_end_to_end() {
    let network = compiled(5);
    // Busy enough that the first conv layer crosses the engine's parallel
    // gate both for whole-sample inference and for every 12-timestep chunk.
    let stream = sne::proportionality::stream_with_activity((2, 8, 8), 24, 0.5, 42);
    assert!(stream.to_op_sequence().len() * 2 >= Engine::MIN_PARALLEL_UNITS);

    let mut sequential = InferenceSession::new(network.clone(), SneConfig::with_slices(2)).unwrap();
    let expected = sequential.infer(&stream).unwrap();
    for threads in THREADS {
        let mut session = InferenceSession::with_exec(
            network.clone(),
            SneConfig::with_slices(2),
            ExecStrategy::threaded(threads),
        )
        .unwrap();
        assert_eq!(session.infer(&stream).unwrap(), expected);
        // Streaming chunks through the threaded session carries state
        // identically too.
        session.reset();
        let mut counts = vec![0u32; 3];
        for chunk in stream.chunks(12) {
            assert!(chunk.to_op_sequence().len() * 2 >= Engine::MIN_PARALLEL_UNITS);
            let out = session.push(&chunk).unwrap();
            for event in out.output.iter().filter(|e| e.is_spike()) {
                counts[usize::from(event.ch)] += 1;
            }
        }
        assert_eq!(counts, expected.output_spike_counts);
    }
}

#[test]
fn execution_units_are_send() {
    fn assert_send<T: Send>() {}
    // The tentpole's structural requirement: every execution unit can move
    // to a worker thread.
    assert_send::<sne_sim::slice::Slice>();
    assert_send::<sne_sim::cluster::ClusterState>();
    assert_send::<LayerState>();
    assert_send::<CycleStats>();
    assert_send::<Engine>();
    assert_send::<InferenceSession>();
    assert_send::<BatchRunner>();
}

#[test]
fn merge_matches_add_assign() {
    let a = CycleStats {
        total_cycles: 3,
        synaptic_ops: 9,
        passes: 1,
        ..CycleStats::new()
    };
    let mut via_merge = CycleStats::new();
    via_merge.merge(&a);
    via_merge.merge(&a);
    let mut via_add = CycleStats::new();
    via_add += a;
    via_add += a;
    assert_eq!(via_merge, via_add);
    assert_eq!(via_merge.total_cycles, 6);
}
