//! Shared helpers for the benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see `DESIGN.md` for the experiment index); the helpers
//! here build the workloads and networks those binaries share.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sne::compile::CompiledNetwork;
use sne_event::{Event, EventStream};
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;

/// The slice counts swept by Fig. 4 and Fig. 5.
pub const SLICE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Input activity range the paper measures on IBM DVS-Gesture (§IV-B).
pub const DVS_GESTURE_ACTIVITY_RANGE: (f64, f64) = (0.012, 0.049);

/// Builds a small eCNN (two accelerated layers) with random 4-bit weights on
/// a `resolution x resolution` two-polarity input, used as the benchmark
/// workload when a trained network is not needed.
///
/// # Panics
///
/// Panics if the topology cannot be compiled (it always can for the
/// resolutions used by the benches).
#[must_use]
pub fn benchmark_network(
    resolution: u16,
    hidden_channels: u16,
    classes: u16,
    seed: u64,
) -> CompiledNetwork {
    let topology = Topology::tiny(
        Shape::new(2, resolution, resolution),
        hidden_channels,
        classes,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    CompiledNetwork::random(&topology, &mut rng).expect("benchmark topology compiles")
}

/// Builds the paper's Fig. 6 topology at a reduced resolution, compiled with
/// random 4-bit weights.
///
/// # Panics
///
/// Panics if the topology cannot be compiled (requires `resolution >= 16`).
#[must_use]
pub fn fig6_network(resolution: u16, classes: u16, seed: u64) -> CompiledNetwork {
    let topology = Topology::paper_fig6(Shape::new(2, resolution, resolution), classes);
    let mut rng = StdRng::seed_from_u64(seed);
    CompiledNetwork::random(&topology, &mut rng).expect("fig6 topology compiles")
}

/// Generates a deterministic input stream with approximately the requested
/// activity for a square two-polarity input.
#[must_use]
pub fn workload(resolution: u16, timesteps: u32, activity: f64, seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity(
        (2, resolution, resolution),
        timesteps,
        activity,
        seed,
    )
}

/// The worst-case power-benchmark layer of §IV-A.2: every input event causes
/// a state update on every cluster of every slice. A dense layer whose output
/// count equals the engine's neuron capacity has exactly that property.
///
/// # Panics
///
/// Panics if the mapping cannot be constructed (it always can for the paper
/// configurations).
#[must_use]
pub fn full_activity_mapping(config: &SneConfig) -> sne_sim::LayerMapping {
    use sne_sim::mapping::{LifHardwareParams, MapShape};
    let outputs = config.total_neurons().min(usize::from(u16::MAX)) as u16;
    let input = MapShape::new(1, 1, 16);
    let weights = vec![1i8; usize::from(outputs) * input.len()];
    sne_sim::LayerMapping::dense(
        input,
        outputs,
        weights,
        LifHardwareParams {
            leak: 0,
            threshold: 100,
        },
    )
    .expect("full-activity mapping is valid")
}

/// Input stream for the power benchmark: events spread over 100 timesteps
/// (the paper's benchmark layer spreads its input over 100 timesteps).
#[must_use]
pub fn full_activity_stream(events_per_timestep: usize) -> EventStream {
    let mut stream = EventStream::new(16, 1, 1, 100);
    for t in 0..100 {
        for i in 0..events_per_timestep {
            stream.push_unchecked(Event::update(t, 0, (i % 16) as u16, 0));
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use sne::SneAccelerator;

    #[test]
    fn benchmark_network_compiles_and_runs() {
        let network = benchmark_network(8, 2, 3, 1);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(1));
        let stream = workload(8, 8, 0.05, 2);
        let result = accelerator.run(&network, &stream).unwrap();
        assert!(result.stats.total_cycles > 0);
    }

    #[test]
    fn full_activity_mapping_touches_every_cluster() {
        let config = SneConfig::with_slices(2);
        let mapping = full_activity_mapping(&config);
        assert_eq!(mapping.total_output_neurons(), config.total_neurons());
    }

    #[test]
    fn workload_activity_is_close_to_request() {
        let stream = workload(16, 50, 0.03, 3);
        assert!((stream.activity() - 0.03).abs() < 0.01);
    }
}
