//! Integration suite of the compile-once, run-many execution runtime:
//! streaming equivalence, reset semantics, pipelined-makespan regression and
//! batched serving.

use proptest::prelude::*;
use sne::batch::BatchRunner;
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne::{SneAccelerator, SneError};
use sne_event::{Event, EventStream};
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn sample_stream(seed: u64, timesteps: u32, activity: f64) -> EventStream {
    sne::proportionality::stream_with_activity((2, 8, 8), timesteps, activity, seed)
}

const TIMESTEPS: u32 = 12;

proptest! {
    /// For any synthetic stream split at arbitrary chunk boundaries, pushing
    /// the chunks through one session produces the same output events and
    /// spike counts as a single `infer` over the whole stream.
    #[test]
    fn chunked_push_is_equivalent_to_whole_infer(
        spikes in prop::collection::vec(
            (0u32..TIMESTEPS, 0u16..2, 0u16..8, 0u16..8),
            0..60,
        ),
        boundaries in prop::collection::vec(1u32..TIMESTEPS, 0..5),
        seed in 0u64..32,
    ) {
        let mut stream = EventStream::new(8, 8, 2, TIMESTEPS);
        for (t, c, x, y) in spikes {
            stream.push(Event::update(t, c, x, y)).unwrap();
        }
        let network = compiled(seed);
        let config = SneConfig::with_slices(2);

        // Reference: one whole-stream inference, and the whole stream pushed
        // as a single chunk (for the event-level comparison).
        let mut reference = InferenceSession::new(network.clone(), config).unwrap();
        let whole = reference.infer(&stream).unwrap();
        reference.reset();
        let whole_events = reference.push(&stream).unwrap().output.into_events();

        // Split [0, TIMESTEPS) at the sampled boundaries.
        let mut cuts = boundaries;
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(TIMESTEPS);
        let mut session = InferenceSession::new(network, config).unwrap();
        let mut events = Vec::new();
        let mut start = 0u32;
        for end in cuts {
            let out = session.push(&stream.window(start, end)).unwrap();
            prop_assert_eq!(out.start_timestep, start);
            events.extend(out.output.into_events());
            start = end;
        }
        prop_assert_eq!(session.elapsed_timesteps(), TIMESTEPS);

        let summary = session.summary();
        prop_assert_eq!(&summary.output_spike_counts, &whole.output_spike_counts);
        prop_assert_eq!(summary.predicted_class, whole.predicted_class);
        prop_assert_eq!(summary.stats.synaptic_ops, whole.stats.synaptic_ops);
        prop_assert_eq!(summary.stats.output_events, whole.stats.output_events);
        prop_assert_eq!(events, whole_events);
    }

    /// `reset()` restores a state identical to a freshly compiled session:
    /// the same reference stream produces identical results afterwards.
    #[test]
    fn reset_matches_a_freshly_compiled_session(
        pollute_seed in 0u64..1000,
        chunk in 1u32..TIMESTEPS,
    ) {
        let network = compiled(3);
        let config = SneConfig::with_slices(2);
        let reference_stream = sample_stream(77, TIMESTEPS, 0.06);

        let mut fresh = InferenceSession::new(network.clone(), config).unwrap();
        let expected = fresh.infer(&reference_stream).unwrap();

        let mut session = InferenceSession::new(network, config).unwrap();
        // Pollute the persistent neuron state with a partial stream...
        let pollution = sample_stream(pollute_seed, TIMESTEPS, 0.08);
        let _ = session.push(&pollution.window(0, chunk)).unwrap();
        // ... then reset and replay the reference stream.
        session.reset();
        let result = session.infer(&reference_stream).unwrap();
        prop_assert_eq!(result, expected);
    }
}

#[test]
fn streaming_chunks_iterator_equivalence_on_a_dense_stream() {
    // Deterministic belt-and-braces version of the property above, using
    // EventStream::chunks on a high-activity stream.
    let network = compiled(9);
    let config = SneConfig::with_slices(2);
    let stream = sample_stream(5, 30, 0.1);

    let mut whole = InferenceSession::new(network.clone(), config).unwrap();
    whole.reset();
    let reference = whole.push(&stream).unwrap();

    for chunk_len in [1u32, 3, 7, 30, 64] {
        let mut session = InferenceSession::new(network.clone(), config).unwrap();
        let mut events = Vec::new();
        for chunk in stream.chunks(chunk_len) {
            events.extend(session.push(&chunk).unwrap().output.into_events());
        }
        assert_eq!(
            events,
            reference.output.as_slice(),
            "chunk length {chunk_len} must not change the output"
        );
    }
}

#[test]
fn pipelined_makespan_comes_from_the_overlapped_schedule() {
    let network = compiled(21);
    let stream = sample_stream(31, 40, 0.05);
    let mut accelerator = SneAccelerator::new(SneConfig::with_slices(8));

    let serial = accelerator.run(&network, &stream).unwrap();
    let pipelined = accelerator.run_pipelined(&network, &stream).unwrap();

    // Functionally identical.
    assert_eq!(serial.output_spike_counts, pipelined.output_spike_counts);
    assert_eq!(serial.predicted_class, pipelined.predicted_class);

    // Regression: the makespan is a real overlapped schedule — strictly
    // bounded by the slowest layer from below and the serial schedule from
    // above (the layers share no engine, so the serial sum is the no-overlap
    // upper bound).
    let slowest_layer = pipelined
        .layers
        .iter()
        .map(|l| l.stats.total_cycles)
        .max()
        .unwrap();
    let layer_sum: u64 = pipelined.layers.iter().map(|l| l.stats.total_cycles).sum();
    assert!(pipelined.stats.total_cycles >= slowest_layer);
    assert!(pipelined.stats.total_cycles <= layer_sum);
    assert!(pipelined.stats.total_cycles <= serial.stats.total_cycles);
    // A multi-layer pipeline with real traffic cannot finish exactly when its
    // slowest layer does: downstream layers still drain the last timestep.
    assert!(
        pipelined.stats.total_cycles > slowest_layer,
        "makespan {} must include pipeline drain beyond the slowest layer {}",
        pipelined.stats.total_cycles,
        slowest_layer
    );
    // Derived quantities follow the overlapped schedule.
    assert!(pipelined.inference_time_ms < serial.inference_time_ms);
    assert!(pipelined.energy.energy_uj <= serial.energy.energy_uj);
}

#[test]
fn pipelined_runs_are_repeatable() {
    let network = compiled(22);
    let stream = sample_stream(33, 24, 0.04);
    let mut accelerator = SneAccelerator::new(SneConfig::with_slices(8));
    let expected = accelerator.run_pipelined(&network, &stream).unwrap();
    // Later calls reuse the cached plans and start from resting state; a
    // time-multiplexed run in between leaves no trace either.
    for _ in 0..2 {
        assert_eq!(
            accelerator.run_pipelined(&network, &stream).unwrap(),
            expected
        );
        let _ = accelerator.run(&network, &stream).unwrap();
    }
    let mut fresh = SneAccelerator::new(SneConfig::with_slices(8));
    assert_eq!(fresh.run_pipelined(&network, &stream).unwrap(), expected);
}

#[test]
fn batch_runner_serves_many_streams_on_few_lanes() {
    let network = compiled(40);
    let streams: Vec<EventStream> = (0..10)
        .map(|i| sample_stream(200 + i, 16, 0.03 + 0.002 * i as f64))
        .collect();

    let mut runner = BatchRunner::new(network.clone(), SneConfig::with_slices(4), 3).unwrap();
    let report = runner.run(&streams).unwrap();
    assert_eq!(report.results.len(), 10);

    // Every batched result matches a dedicated accelerator run.
    let mut accelerator = SneAccelerator::new(SneConfig::with_slices(4));
    for (stream, result) in streams.iter().zip(&report.results) {
        assert_eq!(&accelerator.run(&network, stream).unwrap(), result);
    }

    // Aggregates are consistent.
    let energy: f64 = report.results.iter().map(|r| r.energy.energy_uj).sum();
    assert!((report.total_energy_uj - energy).abs() < 1e-9);
    assert!(report.makespan_ms > 0.0);
    assert!(report.aggregate_rate > 0.0);

    // More lanes never slow the batch down (same work, more hardware).
    let mut wide = BatchRunner::new(network, SneConfig::with_slices(4), 10).unwrap();
    let wide_report = wide.run(&streams).unwrap();
    assert!(wide_report.makespan_ms <= report.makespan_ms + 1e-9);
    assert!((wide_report.total_energy_uj - report.total_energy_uj).abs() < 1e-9);
}

#[test]
fn session_errors_are_well_typed() {
    let network = compiled(50);
    let mut session = InferenceSession::new(network.clone(), SneConfig::with_slices(2)).unwrap();
    let wrong = EventStream::new(4, 4, 2, 8);
    assert!(matches!(
        session.push(&wrong),
        Err(SneError::GeometryMismatch { .. })
    ));
    assert!(matches!(
        BatchRunner::new(network, SneConfig::with_slices(2), 0),
        Err(SneError::EmptyBatch)
    ));
}
