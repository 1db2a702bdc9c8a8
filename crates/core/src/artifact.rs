//! The artifact/state split of the serving runtime.
//!
//! The SNE deployment story (paper §III-D.5) is configure once, stream
//! events forever. For a *service* that story splits the run-many layer of
//! the runtime into two halves with very different lifetimes:
//!
//! * [`RuntimeArtifact`] is the **immutable, shared** half: the compiled
//!   network, the `Arc`-shared sparse-datapath plan set and the engine
//!   configuration. One artifact is built once per (network, configuration)
//!   pair and then serves any number of concurrent clients — it is
//!   `Send + Sync` plain data, so engines on any thread can execute against
//!   it.
//! * [`ClientState`] is the **mutable, per-client** half: the per-layer
//!   persistent neuron state plus the streaming cursor and result
//!   accumulators. It is cheap (a few state buffers), carries no engine, and
//!   can be parked in a session table between requests — which is what lets
//!   a pooled engine pick up *any* client's next chunk.
//!
//! [`crate::session::InferenceSession`] is the convenience composite of one
//! artifact + one engine + one client; [`crate::batch::EnginePool`] shares
//! one artifact across many engines; `sne_serve` parks [`ClientState`]s in a
//! session registry keyed by client id.

use std::sync::Arc;

use sne_event::stream::Geometry;
use sne_event::{Event, EventStream};
use sne_sim::{
    CycleStats, Engine, ExecStrategy, LayerMapping, LayerPlan, LayerState, SimError, SneConfig,
};

use crate::compile::{CompiledNetwork, Stage};
use crate::run::{InferenceResult, LayerExecution};
use crate::session::{check_geometry, class_counts, run_stages, ChunkOutput};
use crate::SneError;

/// Per-layer accumulation across the chunks of a streamed inference.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerTotals {
    pub description: String,
    pub neurons: f64,
    pub stats: CycleStats,
    pub input_events: u64,
    pub output_events: u64,
}

/// The immutable, shareable half of the run-many runtime: compiled network,
/// sparse-datapath plans and engine configuration — everything that is
/// read-only at serving time.
///
/// Build it once ([`RuntimeArtifact::new`]), wrap it in an [`Arc`], and any
/// number of engines/clients can execute against it concurrently. The plans
/// are verified against the network's accelerated layers (full weight
/// digest) at construction; the engine re-checks the O(1) geometry digest on
/// every run.
#[derive(Debug, Clone)]
pub struct RuntimeArtifact {
    network: Arc<CompiledNetwork>,
    plans: Arc<Vec<LayerPlan>>,
    config: SneConfig,
}

impl RuntimeArtifact {
    /// Compiles the artifact for `network` under `config`: validates the
    /// configuration, checks the network has at least one accelerated stage
    /// and builds the sparse-datapath plan set.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::EmptyNetwork`] if the network has no accelerated
    /// stage and propagates configuration validation errors.
    pub fn new(
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
    ) -> Result<Self, SneError> {
        let network = network.into();
        let plans = Arc::new(network.build_plans());
        Self::with_shared_plans(network, config, plans)
    }

    /// Builds the artifact around an already-compiled plan set (e.g. one
    /// recovered from an [`crate::SneAccelerator`] cache). The plans must
    /// have been built from this `network`, one per accelerated layer —
    /// verified here with the full weight digest.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::Sim`] if `plans` was not compiled from this
    /// network's accelerated layers, plus the same errors as
    /// [`RuntimeArtifact::new`].
    pub fn with_shared_plans(
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
        plans: Arc<Vec<LayerPlan>>,
    ) -> Result<Self, SneError> {
        let network = network.into();
        config.validate()?;
        if network.accelerated_layers() == 0 {
            return Err(SneError::EmptyNetwork);
        }
        let mappings: Vec<&LayerMapping> =
            network.stages().iter().filter_map(Stage::mapping).collect();
        if plans.len() != mappings.len()
            || plans
                .iter()
                .zip(&mappings)
                .any(|(plan, mapping)| !plan.matches(mapping))
        {
            return Err(SneError::Sim(SimError::InvalidConfig {
                name: "layer plans",
                reason: "plans were not compiled from this network's accelerated layers".to_owned(),
            }));
        }
        Ok(Self {
            network,
            plans,
            config,
        })
    }

    /// The compiled network the artifact executes.
    #[must_use]
    pub fn network(&self) -> &CompiledNetwork {
        &self.network
    }

    /// The shared network handle (for composites that need their own `Arc`).
    #[must_use]
    pub fn network_arc(&self) -> &Arc<CompiledNetwork> {
        &self.network
    }

    /// The compiled sparse-datapath plan set (shared, read-only).
    #[must_use]
    pub fn plans(&self) -> &Arc<Vec<LayerPlan>> {
        &self.plans
    }

    /// The engine configuration every engine of this artifact runs with.
    #[must_use]
    pub fn config(&self) -> &SneConfig {
        &self.config
    }

    /// Allocates one engine configured for this artifact. Engines are the
    /// expensive, checkout-able resource; create as many as the fleet has
    /// lanes and reuse them across requests. `_exec` is unused: the engine
    /// runs on the caller's thread ([`ExecStrategy`] has one value).
    #[must_use]
    pub fn new_engine(&self, _exec: ExecStrategy) -> Engine {
        Engine::new(self.config)
    }

    /// Allocates one per-client state: resting neuron state for every
    /// accelerated layer plus zeroed streaming accumulators.
    #[must_use]
    pub fn new_client(&self) -> ClientState {
        let mut states = Vec::new();
        let mut layer_totals = Vec::new();
        for stage in self.network.stages() {
            if let Stage::Accelerated {
                mapping,
                description,
            } = stage
            {
                states.push(LayerState::new(&self.config, mapping));
                layer_totals.push(LayerTotals {
                    description: description.clone(),
                    neurons: mapping.total_output_neurons() as f64,
                    stats: CycleStats::new(),
                    input_events: 0,
                    output_events: 0,
                });
            }
        }
        ClientState {
            states,
            elapsed_timesteps: 0,
            chunks_pushed: 0,
            layer_totals,
            class_counts: vec![0; usize::from(self.network.output_classes())],
            total: CycleStats::new(),
        }
    }

    /// Streams one chunk of `client`'s feed through the network on `engine`.
    /// Neuron state persists in `client` between chunks, so any engine of the
    /// fleet can process the client's next chunk. With `plan_enabled` the
    /// layers run on the compiled sparse datapath (bit-identical to the naive
    /// walk, only faster on the host).
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the chunk's spatial geometry
    /// does not match the network input, and propagates simulator errors.
    pub fn push(
        &self,
        engine: &mut Engine,
        client: &mut ClientState,
        chunk: &EventStream,
        plan_enabled: bool,
    ) -> Result<ChunkOutput, SneError> {
        check_geometry(&self.network, chunk)?;
        let resume = client.chunks_pushed > 0;
        let plans = plan_enabled.then(|| self.plans.as_slice());
        let outcome = run_stages(
            std::slice::from_mut(engine),
            &self.network,
            chunk,
            plans,
            Some(&mut client.states),
            resume,
        )?;

        let start = client.elapsed_timesteps;
        client.elapsed_timesteps = client
            .elapsed_timesteps
            .saturating_add(chunk.geometry().timesteps);
        client.chunks_pushed += 1;
        client.total += outcome.total;
        for (totals, layer) in client.layer_totals.iter_mut().zip(&outcome.layers) {
            totals.stats += layer.stats;
            totals.input_events += layer.input_events;
            totals.output_events += layer.output_events;
        }
        let counts = class_counts(&outcome.stream, client.class_counts.len());
        for (acc, c) in client.class_counts.iter_mut().zip(counts) {
            *acc += c;
        }

        // Re-emit the chunk's output on the client's absolute timeline.
        let local = outcome.stream;
        let geometry = Geometry {
            timesteps: client.elapsed_timesteps.max(1),
            ..local.geometry()
        };
        let mut output = EventStream::with_geometry(geometry);
        output.extend(local.into_events().into_iter().map(|e| Event {
            t: e.t + start,
            ..e
        }));
        Ok(ChunkOutput {
            output,
            stats: outcome.total,
            start_timestep: start,
            timesteps: client.elapsed_timesteps - start,
        })
    }

    /// Runs one whole-sample inference for `client` on `engine`: the client
    /// state is reset, the full stream is consumed and the accumulated
    /// summary is returned.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the stream does not match
    /// the network input, and propagates simulator errors.
    pub fn infer(
        &self,
        engine: &mut Engine,
        client: &mut ClientState,
        input: &EventStream,
        plan_enabled: bool,
    ) -> Result<InferenceResult, SneError> {
        check_geometry(&self.network, input)?;
        // Clearing the accumulators is all a fresh inference needs: with
        // `chunks_pushed` back at zero the push below runs non-resumed, which
        // never reads the prior neuron state and overwrites every cluster
        // slot on export — so the O(neurons) membrane zeroing of a full
        // [`ClientState::reset`] would be redundant work on the hot path.
        client.reset_accumulators();
        let _ = self.push(engine, client, input, plan_enabled)?;
        Ok(self.summary(client))
    }

    /// The inference result `client` has accumulated since its last
    /// [`ClientState::reset`]: prediction and spike counts over all pushed
    /// chunks, per-layer statistics, energy and timing of the whole streamed
    /// window.
    #[must_use]
    pub fn summary(&self, client: &ClientState) -> InferenceResult {
        let elapsed = f64::from(client.elapsed_timesteps);
        let mut activity_sum = 0.0;
        let layers: Vec<LayerExecution> = client
            .layer_totals
            .iter()
            .map(|l| {
                let output_activity = if l.neurons * elapsed > 0.0 {
                    l.output_events as f64 / (l.neurons * elapsed)
                } else {
                    0.0
                };
                activity_sum += output_activity;
                LayerExecution {
                    description: l.description.clone(),
                    stats: l.stats,
                    input_events: l.input_events,
                    output_events: l.output_events,
                    output_activity,
                }
            })
            .collect();
        InferenceResult::from_run(
            &self.config,
            client.total,
            client.class_counts.clone(),
            layers,
            activity_sum / client.layer_totals.len().max(1) as f64,
        )
    }
}

/// The mutable, per-client half of the runtime: per-layer persistent neuron
/// state plus the streaming cursor and result accumulators. Allocate one per
/// connected client with [`RuntimeArtifact::new_client`]; it carries no
/// engine, so it can wait in a session table between requests while the
/// engines serve other clients.
///
/// `PartialEq` compares the full architectural state (neuron membranes, TLU
/// bookkeeping, cursor and accumulators) — it is what the durability tests
/// mean by "bit-identical after restore".
#[derive(Debug, Clone, PartialEq)]
pub struct ClientState {
    pub(crate) states: Vec<LayerState>,
    pub(crate) elapsed_timesteps: u32,
    pub(crate) chunks_pushed: u64,
    pub(crate) layer_totals: Vec<LayerTotals>,
    pub(crate) class_counts: Vec<u32>,
    pub(crate) total: CycleStats,
}

impl ClientState {
    /// Absolute timesteps consumed since the last [`ClientState::reset`].
    #[must_use]
    pub fn elapsed_timesteps(&self) -> u32 {
        self.elapsed_timesteps
    }

    /// Number of chunks pushed since the last [`ClientState::reset`].
    #[must_use]
    pub fn chunks_pushed(&self) -> u64 {
        self.chunks_pushed
    }

    /// Returns all neuron state to rest and clears the streaming
    /// accumulators, as if freshly allocated (no buffer is reallocated).
    pub fn reset(&mut self) {
        for state in &mut self.states {
            state.reset();
        }
        self.reset_accumulators();
    }

    /// Clears the streaming cursor and result accumulators without touching
    /// the neuron state buffers. Sufficient before a whole-sample inference:
    /// a non-resumed run never reads prior state and overwrites every
    /// cluster slot on export ([`RuntimeArtifact::infer`] relies on this).
    pub(crate) fn reset_accumulators(&mut self) {
        for layer in &mut self.layer_totals {
            layer.stats = CycleStats::new();
            layer.input_events = 0;
            layer.output_events = 0;
        }
        self.class_counts.iter_mut().for_each(|c| *c = 0);
        self.total = CycleStats::new();
        self.elapsed_timesteps = 0;
        self.chunks_pushed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    fn compiled() -> CompiledNetwork {
        let mut rng = StdRng::seed_from_u64(11);
        CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
    }

    fn input_stream(seed: u64) -> EventStream {
        crate::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
    }

    #[test]
    fn one_artifact_serves_many_interleaved_clients() {
        let artifact =
            Arc::new(RuntimeArtifact::new(compiled(), SneConfig::with_slices(2)).unwrap());
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);

        // Two clients streaming interleaved chunks through ONE engine must
        // see exactly what two dedicated sessions consuming the same chunks
        // would have seen.
        let stream_a = input_stream(5);
        let stream_b = input_stream(6);
        let mut reference_a = crate::session::InferenceSession::new(
            Arc::clone(artifact.network_arc()),
            SneConfig::with_slices(2),
        )
        .unwrap();
        let mut reference_b = crate::session::InferenceSession::new(
            Arc::clone(artifact.network_arc()),
            SneConfig::with_slices(2),
        )
        .unwrap();

        let mut client_a = artifact.new_client();
        let mut client_b = artifact.new_client();
        let chunks_a: Vec<_> = stream_a.chunks(4).collect();
        let chunks_b: Vec<_> = stream_b.chunks(4).collect();
        for (ca, cb) in chunks_a.iter().zip(&chunks_b) {
            let out_a = artifact.push(&mut engine, &mut client_a, ca, true).unwrap();
            let out_b = artifact.push(&mut engine, &mut client_b, cb, true).unwrap();
            assert_eq!(out_a, reference_a.push(ca).unwrap());
            assert_eq!(out_b, reference_b.push(cb).unwrap());
        }
        assert_eq!(artifact.summary(&client_a), reference_a.summary());
        assert_eq!(artifact.summary(&client_b), reference_b.summary());
        assert_eq!(client_a.elapsed_timesteps(), 16);
        assert_eq!(client_a.chunks_pushed(), 4);
    }

    #[test]
    fn artifact_infer_resets_the_client_first() {
        let artifact =
            Arc::new(RuntimeArtifact::new(compiled(), SneConfig::with_slices(2)).unwrap());
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let mut client = artifact.new_client();
        let first = artifact
            .infer(&mut engine, &mut client, &input_stream(9), true)
            .unwrap();
        // Pollute, then infer again: same answer.
        let _ = artifact
            .push(&mut engine, &mut client, &input_stream(10), true)
            .unwrap();
        let again = artifact
            .infer(&mut engine, &mut client, &input_stream(9), true)
            .unwrap();
        assert_eq!(first, again);
        client.reset();
        assert_eq!(client.elapsed_timesteps(), 0);
    }

    #[test]
    fn artifact_rejects_empty_networks_and_foreign_plans() {
        let network = compiled();
        assert!(matches!(
            RuntimeArtifact::new(
                network.clone(),
                SneConfig {
                    num_slices: 0,
                    ..SneConfig::default()
                }
            ),
            Err(SneError::Sim(_))
        ));
        let mut rng = StdRng::seed_from_u64(99);
        let other =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
        assert!(matches!(
            RuntimeArtifact::with_shared_plans(
                network,
                SneConfig::with_slices(2),
                Arc::new(other.build_plans()),
            ),
            Err(SneError::Sim(_))
        ));
    }

    #[test]
    fn artifact_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeArtifact>();
        assert_send_sync::<ClientState>();
    }
}
