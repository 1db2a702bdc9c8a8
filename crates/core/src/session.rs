//! The compile-once, run-many execution runtime.
//!
//! The SNE chip is configured once — weights, layer geometry, LIF parameters
//! — and events then stream through continuously (paper §III-D.5). This
//! module mirrors that split in software:
//!
//! * [`CompiledNetwork`] is the *configure* phase: validated geometry and
//!   per-layer hardware mappings, produced once.
//! * [`InferenceSession`] is the *run* phase: it owns a long-lived
//!   [`Engine`] plus per-layer persistent neuron state, so repeated
//!   inferences ([`InferenceSession::infer`]) re-use every allocation, and a
//!   continuous DVS feed can be consumed chunk by chunk
//!   ([`InferenceSession::push`]) with membrane state surviving between
//!   chunks. [`InferenceSession::reset`] returns the neuron state to rest.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sne::compile::CompiledNetwork;
//! use sne::session::InferenceSession;
//! use sne_model::topology::Topology;
//! use sne_model::Shape;
//! use sne_sim::SneConfig;
//!
//! # fn main() -> Result<(), sne::SneError> {
//! let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let network = CompiledNetwork::random(&topology, &mut rng)?;
//!
//! // Compile once ...
//! let mut session = InferenceSession::new(network, SneConfig::with_slices(2))?;
//! // ... run many: every inference re-uses the engine and state buffers.
//! let stream = sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, 3);
//! for _ in 0..3 {
//!     let result = session.infer(&stream)?;
//!     assert!(result.predicted_class < 3);
//! }
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use sne_event::EventStream;
use sne_sim::{
    CycleStats, Engine, ExecStrategy, Kernel, LayerMapping, LayerPlan, LayerRunOutput, LayerState,
    SimError, SneConfig,
};

use crate::artifact::{ClientState, RuntimeArtifact};
use crate::compile::{CompiledNetwork, Stage};
use crate::run::{InferenceResult, LayerExecution};
use crate::SneError;

/// Checks an input stream against the network input geometry (the timestep
/// count is free: a chunk may cover any window of the feed).
pub(crate) fn check_geometry(
    network: &CompiledNetwork,
    input: &EventStream,
) -> Result<(), SneError> {
    let g = input.geometry();
    let expected = network.input_shape();
    if (g.channels, g.height, g.width) != expected {
        return Err(SneError::GeometryMismatch {
            expected,
            found: (g.channels, g.height, g.width),
        });
    }
    Ok(())
}

/// Counts output spikes per class: the final stream's neurons are the
/// classes.
pub(crate) fn class_counts(stream: &EventStream, classes: usize) -> Vec<u32> {
    let mut counts = vec![0u32; classes];
    for event in stream.iter().filter(|e| e.is_spike()) {
        if usize::from(event.ch) < classes {
            counts[usize::from(event.ch)] += 1;
        }
    }
    counts
}

/// What running every stage over one stream (whole sample or chunk) produced.
pub(crate) struct StageOutcome {
    /// Final-layer output events (chunk-local timeline).
    pub stream: EventStream,
    /// Per accelerated layer execution record.
    pub layers: Vec<LayerExecution>,
    /// Per accelerated layer per-timestep cycle schedule.
    pub profiles: Vec<Vec<u64>>,
    /// Aggregated cycle statistics.
    pub total: CycleStats,
}

impl StageOutcome {
    /// The whole-sample [`InferenceResult`] of this run on an engine with
    /// configuration `config`, for a network with `classes` output classes.
    pub fn into_result(self, config: &SneConfig, classes: usize) -> InferenceResult {
        let counts = class_counts(&self.stream, classes);
        let mean_activity = self.layers.iter().map(|l| l.output_activity).sum::<f64>()
            / self.layers.len().max(1) as f64;
        InferenceResult::from_run(config, self.total, counts, self.layers, mean_activity)
    }
}

/// Builds the per-layer execution record from one engine run.
/// `timesteps` is the timestep count of the layer's *input* stream (after
/// any pooling).
fn layer_execution(
    description: &str,
    mapping: &LayerMapping,
    run: &LayerRunOutput,
    input_events: u64,
    timesteps: u32,
) -> LayerExecution {
    let output_events = run.output.spike_count() as u64;
    let neurons = mapping.total_output_neurons() as f64;
    let timesteps = f64::from(timesteps);
    let output_activity = if neurons * timesteps > 0.0 {
        output_events as f64 / (neurons * timesteps)
    } else {
        0.0
    };
    LayerExecution {
        description: description.to_owned(),
        stats: run.stats,
        input_events,
        output_events,
        output_activity,
    }
}

/// Dispatches one layer run to the engine, picking the planned or the naive
/// datapath and the stateful or stateless entry point — the single
/// dispatcher every stage walk uses, so the paths cannot drift apart.
fn run_one_layer(
    engine: &mut Engine,
    mapping: &LayerMapping,
    plan: Option<&LayerPlan>,
    stream: &EventStream,
    state: Option<&mut LayerState>,
    resume: bool,
) -> Result<LayerRunOutput, SimError> {
    match (plan, state) {
        (Some(plan), Some(state)) => {
            engine.run_layer_stateful_planned(mapping, plan, stream, state, resume)
        }
        (Some(plan), None) => engine.run_layer_planned(mapping, plan, stream),
        (None, Some(state)) => engine.run_layer_stateful(mapping, stream, state, resume),
        (None, None) => engine.run_layer(mapping, stream),
    }
}

/// Runs every compiled stage over `input` on `engines`, threading the
/// intermediate event streams through pooling stages.
///
/// `engines` holds either one engine (time-multiplexed mode: every layer runs
/// on it) or one engine per accelerated layer (pipelined mode). When `plans`
/// is provided (one [`LayerPlan`] per accelerated layer) the layers run on
/// the compiled sparse datapath — bit-identical to the naive mapping walk,
/// only faster on the host. When `states` is provided (one [`LayerState`] per
/// accelerated layer) the layers run stateful: with `resume` they continue
/// from the saved neuron state instead of starting from rest.
pub(crate) fn run_stages(
    engines: &mut [Engine],
    network: &CompiledNetwork,
    input: &EventStream,
    plans: Option<&[LayerPlan]>,
    mut states: Option<&mut [LayerState]>,
    resume: bool,
) -> Result<StageOutcome, SneError> {
    // The input is only read: the first pool or layer stage makes the
    // first owned stream.
    let mut stream = Cow::Borrowed(input);
    let mut total = CycleStats::new();
    let mut layers = Vec::new();
    let mut profiles = Vec::new();
    let mut layer_index = 0usize;

    for stage in network.stages() {
        match stage {
            Stage::Pool { window, .. } => {
                stream = Cow::Owned(stream.downscale(*window));
            }
            Stage::Accelerated {
                mapping,
                description,
            } => {
                let engine = if engines.len() == 1 {
                    &mut engines[0]
                } else {
                    &mut engines[layer_index]
                };
                let input_events = stream.spike_count() as u64;
                let run = run_one_layer(
                    engine,
                    mapping,
                    plans.map(|p| &p[layer_index]),
                    &stream,
                    states.as_deref_mut().map(|s| &mut s[layer_index]),
                    resume,
                )?;
                total += run.stats;
                layers.push(layer_execution(
                    description,
                    mapping,
                    &run,
                    input_events,
                    stream.geometry().timesteps,
                ));
                profiles.push(run.timestep_cycles);
                stream = Cow::Owned(run.output);
                layer_index += 1;
            }
        }
    }

    Ok(StageOutcome {
        stream: stream.into_owned(),
        layers,
        profiles,
        total,
    })
}

/// Completion time of the last event of the last layer when the per-layer
/// per-timestep schedules overlap in a pipeline: layer `l` can process
/// timestep `t` only after it finished timestep `t - 1` *and* layer `l - 1`
/// delivered timestep `t` through the C-XBAR.
pub(crate) fn wavefront_makespan(profiles: &[Vec<u64>]) -> u64 {
    let mut prev_finish: Vec<u64> = Vec::new();
    for profile in profiles {
        let mut finish = Vec::with_capacity(profile.len());
        let mut own_ready = 0u64;
        for (t, &cost) in profile.iter().enumerate() {
            let upstream_ready = prev_finish.get(t).copied().unwrap_or(0);
            let done = own_ready.max(upstream_ready) + cost;
            finish.push(done);
            own_ready = done;
        }
        prev_finish = finish;
    }
    prev_finish.last().copied().unwrap_or(0)
}

/// Output of one streamed chunk pushed through an [`InferenceSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutput {
    /// Final-layer output events of this chunk, on the session's absolute
    /// timeline (timestamps offset by [`ChunkOutput::start_timestep`]).
    pub output: EventStream,
    /// Cycles spent consuming this chunk, summed over all layers.
    pub stats: CycleStats,
    /// First absolute timestep the chunk covers.
    pub start_timestep: u32,
    /// Number of timesteps the chunk covers.
    pub timesteps: u32,
}

/// A long-lived execution session: one engine, per-layer persistent neuron
/// state, pre-sized at construction from the compiled network.
///
/// Create it once per (network, configuration) pair, then call
/// [`InferenceSession::infer`] for repeated whole-sample inference or
/// [`InferenceSession::push`] to stream a continuous feed chunk by chunk;
/// [`InferenceSession::reset`] starts a fresh sample.
///
/// A session is the convenience composite of the serving runtime's three
/// pieces: one shared [`RuntimeArtifact`] (immutable compiled network +
/// plans + configuration), one [`Engine`], and one [`ClientState`]
/// (per-layer neuron state + streaming cursor). Multi-client serving keeps
/// those pieces separate — see [`crate::batch::EnginePool`].
#[derive(Debug)]
pub struct InferenceSession {
    artifact: Arc<RuntimeArtifact>,
    engine: Engine,
    client: ClientState,
    /// Whether inference runs on the compiled plan (the default) or on the
    /// naive mapping walk (the reference oracle, kept for A/B validation and
    /// the `datapath_report` benchmark). Results are bit-identical.
    plan_enabled: bool,
}

impl InferenceSession {
    /// Builds a session for `network` on an engine with configuration
    /// `config`: the configuration is validated and every engine resource and
    /// per-layer state buffer is allocated here, once.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::EmptyNetwork`] if the network has no accelerated
    /// stage and propagates configuration validation errors.
    pub fn new(
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
    ) -> Result<Self, SneError> {
        let artifact = RuntimeArtifact::new(network, config)?;
        Ok(Self::from_artifact(
            Arc::new(artifact),
            ExecStrategy::Sequential,
        ))
    }

    /// Builds a session around an already-compiled (and validated)
    /// [`RuntimeArtifact`]: allocates one engine and one client state.
    /// Infallible — the artifact carries a validated configuration. `_exec`
    /// is unused: the engine runs on the caller's thread ([`ExecStrategy`]
    /// has one value).
    #[must_use]
    pub fn from_artifact(artifact: Arc<RuntimeArtifact>, _exec: ExecStrategy) -> Self {
        let engine = Engine::new(*artifact.config());
        let client = artifact.new_client();
        Self {
            artifact,
            engine,
            client,
            plan_enabled: true,
        }
    }

    /// The shared runtime artifact the session executes against.
    #[must_use]
    pub fn artifact(&self) -> &Arc<RuntimeArtifact> {
        &self.artifact
    }

    /// The compiled network the session executes.
    #[must_use]
    pub fn network(&self) -> &CompiledNetwork {
        self.artifact.network()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &SneConfig {
        self.engine.config()
    }

    /// The membrane kernel the session's engine runs on (blocked/SIMD or the
    /// scalar oracle).
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.engine.kernel()
    }

    /// Switches the engine between the blocked/SIMD membrane kernel and the
    /// scalar oracle. The two are bit-identical in outputs, statistics,
    /// traces and persisted state; only host wall-clock time differs — this
    /// switch exists for A/B validation and the `datapath_report` benchmark.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.engine.set_kernel(kernel);
    }

    /// The compiled layer plans the session runs on (shared, read-only).
    #[must_use]
    pub fn plans(&self) -> &Arc<Vec<LayerPlan>> {
        self.artifact.plans()
    }

    /// Switches between the compiled sparse datapath and the naive mapping
    /// walk (the reference oracle). The two are bit-identical in outputs,
    /// statistics and modelled cycles; only host wall-clock time differs —
    /// this switch exists for A/B validation and the `datapath_report`
    /// benchmark.
    pub fn set_plan_enabled(&mut self, enabled: bool) {
        self.plan_enabled = enabled;
    }

    /// Absolute timesteps consumed since the last [`InferenceSession::reset`].
    #[must_use]
    pub fn elapsed_timesteps(&self) -> u32 {
        self.client.elapsed_timesteps()
    }

    /// Returns all neuron state to rest and clears the streaming
    /// accumulators, as if the session had just been created (no engine or
    /// state buffer is reallocated).
    pub fn reset(&mut self) {
        self.client.reset();
    }

    /// Runs one whole-sample inference: the neuron state is reset, the full
    /// stream is consumed and the result is returned — functionally and
    /// cycle-for-cycle identical to [`crate::SneAccelerator::run`], but
    /// without any per-call compilation or allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the stream does not match
    /// the network input, and propagates simulator errors.
    pub fn infer(&mut self, input: &EventStream) -> Result<InferenceResult, SneError> {
        self.artifact
            .infer(&mut self.engine, &mut self.client, input, self.plan_enabled)
    }

    /// Streams one chunk of a continuous feed through the network. Neuron
    /// state persists between chunks: pushing a stream split at arbitrary
    /// timestep boundaries produces exactly the same output events as a
    /// single [`InferenceSession::infer`] over the whole stream.
    ///
    /// The returned [`ChunkOutput`] carries the final-layer events of this
    /// chunk on the session's absolute timeline.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the chunk's spatial geometry
    /// does not match the network input, and propagates simulator errors.
    pub fn push(&mut self, chunk: &EventStream) -> Result<ChunkOutput, SneError> {
        self.artifact
            .push(&mut self.engine, &mut self.client, chunk, self.plan_enabled)
    }

    /// The inference result accumulated since the last
    /// [`InferenceSession::reset`]: prediction and spike counts over all
    /// pushed chunks, per-layer statistics, energy and timing of the whole
    /// streamed window. After a plain [`InferenceSession::infer`] this is the
    /// result of that inference.
    #[must_use]
    pub fn summary(&self) -> InferenceResult {
        self.artifact.summary(&self.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SneAccelerator;
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
    fn session_infer_matches_the_one_shot_accelerator_exactly() {
        let network = compiled();
        let stream = input_stream(3);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
        let reference = accelerator.run(&network, &stream).unwrap();
        let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
        let result = session.infer(&stream).unwrap();
        assert_eq!(reference, result);
    }

    #[test]
    fn repeated_inference_reuses_state_without_leaking_it() {
        let mut session = InferenceSession::new(compiled(), SneConfig::with_slices(2)).unwrap();
        let a = session.infer(&input_stream(5)).unwrap();
        let _ = session.infer(&input_stream(6)).unwrap();
        let again = session.infer(&input_stream(5)).unwrap();
        assert_eq!(a, again);
    }

    #[test]
    fn naive_datapath_matches_the_compiled_plan() {
        let network = compiled();
        let stream = input_stream(31);
        let mut planned =
            InferenceSession::new(network.clone(), SneConfig::with_slices(2)).unwrap();
        assert_eq!(planned.plans().len(), network.accelerated_layers());
        let expected = planned.infer(&stream).unwrap();

        let mut naive = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
        naive.set_plan_enabled(false);
        assert_eq!(naive.infer(&stream).unwrap(), expected);
        // Streaming on the naive oracle matches too, then switch back.
        naive.reset();
        let mut spikes = 0;
        for chunk in stream.chunks(5) {
            spikes += naive.push(&chunk).unwrap().output.spike_count();
        }
        assert_eq!(
            spikes as u32,
            expected.output_spike_counts.iter().sum::<u32>()
        );
        naive.set_plan_enabled(true);
        assert_eq!(naive.infer(&stream).unwrap(), expected);
    }

    #[test]
    fn shared_plans_must_match_the_network() {
        let network = compiled();
        let mut rng = StdRng::seed_from_u64(99);
        let other =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
        let foreign = Arc::new(other.build_plans());
        assert!(matches!(
            RuntimeArtifact::with_shared_plans(network.clone(), SneConfig::with_slices(2), foreign),
            Err(SneError::Sim(_))
        ));
        let own = Arc::new(network.build_plans());
        let artifact = RuntimeArtifact::with_shared_plans(
            network,
            SneConfig::with_slices(2),
            Arc::clone(&own),
        )
        .unwrap();
        let mut session =
            InferenceSession::from_artifact(Arc::new(artifact), ExecStrategy::Sequential);
        assert!(Arc::ptr_eq(session.plans(), &own));
        assert!(session.infer(&input_stream(3)).is_ok());
    }

    #[test]
    fn pushed_chunks_match_a_whole_infer() {
        let network = compiled();
        let stream = input_stream(7);
        let mut whole = InferenceSession::new(network.clone(), SneConfig::with_slices(2)).unwrap();
        let reference = whole.infer(&stream).unwrap();
        // The whole stream pushed as one chunk yields the reference output
        // events on the absolute timeline.
        whole.reset();
        let reference_events = whole.push(&stream).unwrap().output.into_events();

        let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
        let mut events = Vec::new();
        let mut chunk_cycle_sum = 0;
        for chunk in stream.chunks(5) {
            let out = session.push(&chunk).unwrap();
            chunk_cycle_sum += out.stats.total_cycles;
            events.extend(out.output.into_events());
        }
        assert_eq!(session.elapsed_timesteps(), 16);
        let summary = session.summary();
        assert_eq!(summary.output_spike_counts, reference.output_spike_counts);
        assert_eq!(summary.predicted_class, reference.predicted_class);
        assert_eq!(summary.stats.total_cycles, chunk_cycle_sum);
        // Spike-for-spike identical output on the absolute timeline.
        assert_eq!(events, reference_events);
        assert_eq!(
            events.iter().filter(|e| e.is_spike()).count() as u32,
            reference.output_spike_counts.iter().sum::<u32>()
        );
    }

    #[test]
    fn chunk_outputs_live_on_the_absolute_timeline() {
        let mut session = InferenceSession::new(compiled(), SneConfig::with_slices(2)).unwrap();
        let stream = input_stream(9);
        let chunks: Vec<_> = stream.chunks(4).collect();
        let first = session.push(&chunks[0]).unwrap();
        assert_eq!(first.start_timestep, 0);
        assert_eq!(first.timesteps, 4);
        let second = session.push(&chunks[1]).unwrap();
        assert_eq!(second.start_timestep, 4);
        assert!(second.output.iter().all(|e| (4..8).contains(&e.t)));
        assert_eq!(second.output.geometry().timesteps, 8);
    }

    #[test]
    fn reset_restores_a_freshly_compiled_session() {
        let network = compiled();
        let mut fresh = InferenceSession::new(network.clone(), SneConfig::with_slices(2)).unwrap();
        let reference = fresh.infer(&input_stream(13)).unwrap();

        let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
        // Pollute the neuron state mid-stream, then reset.
        let _ = session.push(&input_stream(21)).unwrap();
        session.reset();
        assert_eq!(session.elapsed_timesteps(), 0);
        let result = session.infer(&input_stream(13)).unwrap();
        assert_eq!(reference, result);
    }

    #[test]
    fn session_rejects_mismatched_geometry_and_empty_networks() {
        let mut session = InferenceSession::new(compiled(), SneConfig::with_slices(2)).unwrap();
        let wrong = EventStream::new(16, 16, 2, 8);
        assert!(matches!(
            session.push(&wrong),
            Err(SneError::GeometryMismatch { .. })
        ));
        assert!(matches!(
            session.infer(&wrong),
            Err(SneError::GeometryMismatch { .. })
        ));
        assert!(InferenceSession::new(
            compiled(),
            SneConfig {
                num_slices: 0,
                ..SneConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn session_accessors_expose_engine_network_and_config() {
        let session = InferenceSession::new(compiled(), SneConfig::with_slices(4)).unwrap();
        assert_eq!(session.config().num_slices, 4);
        assert_eq!(session.network().output_classes(), 3);
    }

    #[test]
    fn wavefront_of_one_layer_is_its_serial_schedule() {
        assert_eq!(wavefront_makespan(&[vec![3, 4, 5]]), 12);
        assert_eq!(wavefront_makespan(&[]), 0);
    }

    #[test]
    fn wavefront_overlaps_layers_but_respects_dependencies() {
        // Layer 0: |--4--|--4--|   Layer 1 can start t=0 at cycle 4.
        let profiles = [vec![4, 4], vec![2, 2]];
        // finish_0 = [4, 8]; finish_1 = [max(0,4)+2=6, max(6,8)+2=10].
        assert_eq!(wavefront_makespan(&profiles), 10);
        // The makespan is bounded by max(layer) below and sum above.
        let serial: u64 = profiles.iter().flatten().sum();
        assert!(wavefront_makespan(&profiles) <= serial);
        assert!(wavefront_makespan(&profiles) >= 8);
    }
}
