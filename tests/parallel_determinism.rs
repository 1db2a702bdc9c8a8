//! Integration suite of the fleet's host threads: an engine runs every
//! mapping pass on the thread that owns it, and a fleet runs one scheduler
//! worker thread per engine. A fleet of any size must be **bit-exact** with
//! a one-lane fleet, every execution unit must move to a worker thread, and
//! the stats reduction must be a true merge (associative,
//! order-independent).

use proptest::prelude::*;
use sne::batch::BatchRunner;
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::{CycleStats, Engine, LayerState, SneConfig};

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

proptest! {
    /// Batch level: the `BatchReport` of N lanes, one worker thread each, is
    /// bit-identical to a one-lane fleet's — per-stream results, aggregated
    /// stats and energy — and its makespan is no longer.
    #[test]
    fn threaded_batch_reports_are_bit_exact(
        lanes in 2usize..6,
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
        let mut single = BatchRunner::new(network.clone(), SneConfig::with_slices(2), 1).unwrap();
        let expected = single.run(&streams).unwrap();
        let mut fleet = BatchRunner::new(network, SneConfig::with_slices(2), lanes).unwrap();
        prop_assert_eq!(fleet.scheduler().workers(), lanes);
        let report = fleet.run(&streams).unwrap();
        prop_assert_eq!(&report.results, &expected.results);
        prop_assert_eq!(report.total_stats, expected.total_stats);
        prop_assert_eq!(report.lanes, lanes);
        prop_assert!(report.makespan_ms <= expected.makespan_ms + 1e-12);
        prop_assert!((report.total_energy_uj - expected.total_energy_uj).abs() < 1e-12);
    }

    /// The stats reduction is a true merge: associative and independent of
    /// the order partial stats are combined in — the property the
    /// slice-order reduction and the fleet's summed reports rest on.
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
fn execution_units_are_send() {
    fn assert_send<T: Send>() {}
    // Every execution unit can move to a scheduler worker thread.
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
