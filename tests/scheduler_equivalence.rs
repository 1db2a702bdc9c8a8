//! The dynamic scheduler's contract: serving a work queue over a pool of
//! engines, one worker thread per engine, must yield **exactly** the results
//! of the statically round-robin-pinned sequential runner — per-stream
//! results in input order (a statement strictly stronger than multiset
//! equality), aggregated stats, modelled makespan and energy, and the same
//! deterministic error choice — for every fleet size.

use proptest::prelude::*;
use sne::batch::{BatchRunner, EnginePool, Scheduler};
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;
use std::sync::Arc;

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn workload(count: usize, seed: u64) -> Vec<EventStream> {
    (0..count)
        .map(|i| {
            sne::proportionality::stream_with_activity(
                (2, 8, 8),
                8,
                0.02 + 0.01 * i as f64,
                seed + i as u64,
            )
        })
        .collect()
}

proptest! {
    /// For any fleet size and stream count, the dynamic scheduler's report
    /// carries the identical result vector (input order, hence identical
    /// multiset) and identical deterministic aggregates as the round-robin
    /// oracle.
    #[test]
    fn dynamic_scheduler_equals_round_robin_for_every_strategy(
        lanes in 1usize..5,
        num_streams in 0usize..9,
        network_seed in 0u64..12,
        stream_seed in 0u64..1000,
    ) {
        let network = Arc::new(compiled(network_seed));
        let streams = workload(num_streams, stream_seed);
        // The oracle: the statically pinned walk, driven sequentially.
        let mut oracle =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        let expected = oracle.run_round_robin(&streams).unwrap();
        let dynamic = oracle.run(&streams).unwrap();
        prop_assert_eq!(&dynamic.results, &expected.results);
        prop_assert_eq!(dynamic.total_stats, expected.total_stats);
        prop_assert_eq!(dynamic.lanes, expected.lanes);
        prop_assert!((dynamic.makespan_ms - expected.makespan_ms).abs() < 1e-12);
        prop_assert!((dynamic.total_energy_uj - expected.total_energy_uj).abs() < 1e-12);
        prop_assert!(
            (dynamic.aggregate_rate - expected.aggregate_rate).abs() < 1e-9
                || (dynamic.aggregate_rate.is_infinite()
                    && expected.aggregate_rate.is_infinite())
        );
    }

    /// Incremental submission (requests arriving one by one, drained at the
    /// end) equals the closed-batch entry point, record ids recover
    /// submission order, and every record's result matches a dedicated
    /// session.
    #[test]
    fn incremental_submit_drain_equals_closed_batch(
        lanes in 1usize..4,
        num_streams in 1usize..7,
        stream_seed in 0u64..1000,
    ) {
        let network = Arc::new(compiled(3));
        let streams = workload(num_streams, stream_seed);
        let mut runner =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        let closed = runner.run(&streams).unwrap();

        for stream in &streams {
            let _ = runner.submit(stream.clone());
        }
        let records = runner.drain();
        prop_assert_eq!(records.len(), streams.len());
        let mut session =
            InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
        for ((record, stream), closed_result) in
            records.iter().zip(&streams).zip(&closed.results)
        {
            let result = record.result.as_ref().unwrap();
            prop_assert_eq!(result, closed_result);
            prop_assert_eq!(result, &session.infer(stream).unwrap());
            prop_assert!(record.lane < lanes);
        }
    }

    /// Placement fairness on N >= 2 lanes, gated on scheduler decisions
    /// only: after a saturating closed batch, arrivals paced near the
    /// measured service rate must reach every worker-owned lane. Jobs are
    /// uniform-cost so the placement, not workload variance, decides the
    /// per-lane counts. The wall-clock gates over the same workload (the
    /// closed-burst busy-time spread and the paced queue-vs-service p50)
    /// depend on how the host schedules the worker threads, so they run in
    /// `session_report`, not here.
    #[test]
    fn saturating_batches_spread_load_across_worker_lanes(
        lanes in 2usize..5,
        jobs_per_lane in 2usize..4,
        chunk_len in 6u32..13,
        stream_seed in 0u64..500,
    ) {
        let network = Arc::new(compiled(7));
        let count = lanes * jobs_per_lane;
        let streams: Vec<EventStream> = (0..count)
            .map(|i| {
                sne::proportionality::stream_with_activity(
                    (2, 8, 8),
                    chunk_len,
                    0.05,
                    stream_seed + i as u64,
                )
            })
            .collect();
        let mut runner =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        // Warmup: the first batch pays worker-thread startup; the paced
        // phase below runs on the steady-state fleet.
        let _ = runner.run(&streams).unwrap();
        let report = runner.run(&streams).unwrap();
        prop_assert_eq!(report.results.len(), streams.len());
        let pace = std::time::Duration::from_micros(
            (report.service_latency.p50_us * 1.25).max(50.0) as u64,
        );
        for stream in &streams {
            let _ = runner.submit(stream.clone());
            std::thread::sleep(pace);
        }
        let records = runner.drain();
        prop_assert_eq!(records.len(), streams.len());
        // No lane is starved (the rotating placement tiebreak). The gate
        // counts jobs, not busy-time: a collapsed placement shows up as a
        // zero count regardless of the clock.
        let owned_lanes = runner.scheduler().worker_lanes().to_vec();
        let mut lane_jobs = vec![0usize; lanes];
        for record in &records {
            lane_jobs[record.lane] += 1;
        }
        for &lane in &owned_lanes {
            prop_assert!(
                lane_jobs[lane] >= 1,
                "paced lane starved: {:?} over lanes {:?}",
                lane_jobs,
                owned_lanes
            );
        }
    }

    /// Error choice is deterministic: whatever the arrival order, the batch
    /// reports the error of the lowest-numbered failing stream — the same
    /// one the round-robin oracle picks.
    #[test]
    fn error_choice_matches_the_round_robin_oracle(
        lanes in 1usize..4,
        bad_a in 0usize..6,
        bad_b in 0usize..6,
    ) {
        let network = Arc::new(compiled(5));
        let mut streams = workload(6, 77);
        streams[bad_a] = EventStream::new(16, 16, 2, 8); // wrong geometry
        streams[bad_b] = EventStream::new(4, 4, 1, 8);
        let mut oracle =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        let expected = oracle.run_round_robin(&streams).unwrap_err();
        prop_assert_eq!(oracle.run(&streams).unwrap_err(), expected);
    }
}

/// Requests `call`ed concurrently from many threads produce bit-identical
/// results to dedicated sessions, and the scheduler counts every one of
/// them.
#[test]
fn concurrent_callers_get_dedicated_session_results() {
    let network = Arc::new(compiled(9));
    let streams = workload(8, 123);
    let pool = Arc::new(
        EnginePool::new(
            Arc::new(
                sne::RuntimeArtifact::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap(),
            ),
            3,
        )
        .unwrap(),
    );
    let scheduler = Arc::new(Scheduler::new(Arc::clone(&pool)));
    let records: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let scheduler = Arc::clone(&scheduler);
                let stream = stream.clone();
                scope.spawn(move || scheduler.call(stream))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
    for (record, stream) in records.iter().zip(&streams) {
        assert_eq!(
            record.result.as_ref().unwrap(),
            &session.infer(stream).unwrap()
        );
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.errors, 0);
    // Workers own every engine while the scheduler lives; shutdown (via
    // drop) returns them all.
    assert_eq!(pool.idle_lanes(), 0);
    drop(scheduler);
    assert_eq!(pool.idle_lanes(), 3);
}
