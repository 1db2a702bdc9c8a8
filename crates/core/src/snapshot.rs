//! Durable snapshots of the serving runtime (DESIGN.md §14).
//!
//! The configure-once/run-many split makes durability cheap: everything
//! mutable about an inference session lives in [`ClientState`] — a few
//! membrane buffers, a streaming cursor and the result accumulators — while
//! the heavyweight half ([`RuntimeArtifact`]) is immutable and rebuildable.
//! This module encodes both halves into the versioned, digest-checked
//! snapshot container of `sne_store`:
//!
//! * [`RuntimeArtifact::snapshot_client`] / [`RuntimeArtifact::restore_client`]
//!   serialize a client's full architectural state. Restoring yields a
//!   `ClientState` that is **bit-identical** to the original: equal under
//!   `PartialEq`, and producing identical outputs for every subsequent
//!   [`RuntimeArtifact::push`]. Parking a snapshot on disk is
//!   `sne_store::SessionStore`'s job (the tmp-write/rename protocol and the
//!   journal).
//! * [`RuntimeArtifact::snapshot_artifact`] /
//!   [`RuntimeArtifact::restore_artifact`] serialize the artifact itself
//!   (compiled network, weights, configuration), so a server can verify at
//!   boot that the model on disk is the model the sessions were parked
//!   against.
//!
//! Every client snapshot is bound to its artifact through
//! [`RuntimeArtifact::state_digest`] — an FNV-1a digest over the engine
//! configuration, the stage structure, each layer plan's geometry and
//! weight fingerprints and the quantization scales. A snapshot taken
//! against one model fails restore against any other with
//! [`StoreError::ArtifactMismatch`]; it can never be silently resumed.

use sne_sim::mapping::MapShape;
use sne_sim::{LayerMapping, LifHardwareParams, SneConfig};
use sne_store::{Dec, Enc, Fnv1a, SnapshotBuilder, SnapshotKind, SnapshotView, StoreError};

use crate::artifact::{ClientState, RuntimeArtifact};
use crate::compile::{CompiledNetwork, Stage};
use crate::SneError;

/// Client snapshot: streaming cursor (`elapsed_timesteps`, `chunks_pushed`).
const SEC_CURSOR: u32 = 0x01;
/// Client snapshot: per-layer neuron state (membranes + TLU bookkeeping).
const SEC_LAYER_STATES: u32 = 0x02;
/// Client snapshot: per-layer accumulated totals.
const SEC_TOTALS: u32 = 0x03;
/// Client snapshot: class counts and whole-stream cycle totals.
const SEC_RESULTS: u32 = 0x04;
/// Artifact snapshot: compiled network (stages, weights, scales).
const SEC_NETWORK: u32 = 0x11;
/// Artifact snapshot: engine configuration.
const SEC_CONFIG: u32 = 0x12;

impl RuntimeArtifact {
    /// The artifact identity every snapshot of this model is bound to: an
    /// FNV-1a digest over the engine configuration, the network's stage
    /// structure, each layer plan's geometry and weight fingerprints and
    /// the quantization scales. Two artifacts agree on this digest exactly
    /// when a `ClientState` of one is architecturally valid for the other.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(b"sne-state-digest-v1");
        digest_config(&mut h, self.config());
        let (c, height, w) = self.network().input_shape();
        h.update_u64(u64::from(c));
        h.update_u64(u64::from(height));
        h.update_u64(u64::from(w));
        h.update_u64(u64::from(self.network().output_classes()));
        let mut plans = self.plans().iter();
        for stage in self.network().stages() {
            match stage {
                Stage::Pool { window, input } => {
                    h.update_u64(2);
                    h.update_u64(u64::from(*window));
                    h.update_u64(u64::from(input.0));
                    h.update_u64(u64::from(input.1));
                    h.update_u64(u64::from(input.2));
                }
                Stage::Accelerated { .. } => {
                    h.update_u64(1);
                    let (geometry, weights) = plans
                        .next()
                        .expect("artifact construction checks one plan per accelerated stage")
                        .fingerprint();
                    h.update_u64(geometry);
                    h.update_u64(weights);
                }
            }
        }
        for &scale in self.network().scales() {
            h.update_u64(u64::from(scale.to_bits()));
        }
        h.digest()
    }

    /// Serializes `client` into a self-validating snapshot bound to this
    /// artifact: full membrane state, TLU bookkeeping, streaming cursor and
    /// result accumulators.
    #[must_use]
    pub fn snapshot_client(&self, client: &ClientState) -> Vec<u8> {
        let mut snap = SnapshotBuilder::new(SnapshotKind::ClientState, self.state_digest());

        let mut cursor = Enc::new();
        cursor.u32(client.elapsed_timesteps);
        cursor.u64(client.chunks_pushed);
        snap.section(SEC_CURSOR, &cursor.into_bytes());

        let slices = self.config().num_slices;
        let mut states = Enc::new();
        states.u32(client.states.len() as u32);
        for state in &client.states {
            states.u32(state.passes() as u32);
            for pass in 0..state.passes() {
                for slice in 0..slices {
                    for cluster in state.slice_state(pass, slice) {
                        states.i16_slice(&cluster.states);
                        states.u32(cluster.pending_leak_steps);
                        states.u8(u8::from(cluster.dirty));
                    }
                }
            }
        }
        snap.section(SEC_LAYER_STATES, &states.into_bytes());

        let mut totals = Enc::new();
        totals.u32(client.layer_totals.len() as u32);
        for layer in &client.layer_totals {
            totals.str(&layer.description);
            totals.f64(layer.neurons);
            encode_stats(&mut totals, &layer.stats);
            totals.u64(layer.input_events);
            totals.u64(layer.output_events);
        }
        snap.section(SEC_TOTALS, &totals.into_bytes());

        let mut results = Enc::new();
        results.u32_slice(&client.class_counts);
        encode_stats(&mut results, &client.total);
        snap.section(SEC_RESULTS, &results.into_bytes());

        snap.finish()
    }

    /// Decodes and fully validates a client snapshot: container digests,
    /// artifact binding, and structural agreement with this artifact's
    /// layer sizing. The restored state is bit-identical to the snapshotted
    /// one — equal under `PartialEq` and producing identical outputs for
    /// every subsequent [`RuntimeArtifact::push`].
    ///
    /// # Errors
    ///
    /// [`SneError::Snapshot`] carrying the precise [`StoreError`]: `Torn` /
    /// `DigestMismatch` / `Truncated` for corrupted bytes,
    /// [`StoreError::ArtifactMismatch`] when the snapshot belongs to a
    /// different model, `Malformed` when a validated container disagrees
    /// with the artifact's structure.
    pub fn restore_client(&self, bytes: &[u8]) -> Result<ClientState, SneError> {
        let view = SnapshotView::parse(bytes).map_err(SneError::from)?;
        if view.header.kind != SnapshotKind::ClientState {
            return Err(StoreError::Malformed("expected a client-state snapshot").into());
        }
        let expected = self.state_digest();
        if view.header.artifact_digest != expected {
            return Err(StoreError::ArtifactMismatch {
                expected,
                found: view.header.artifact_digest,
            }
            .into());
        }

        let mut client = self.new_client();

        let mut cursor = Dec::new(view.require(SEC_CURSOR)?);
        client.elapsed_timesteps = cursor.u32()?;
        client.chunks_pushed = cursor.u64()?;
        finish_section(&cursor)?;

        let slices = self.config().num_slices;
        let mut states = Dec::new(view.require(SEC_LAYER_STATES)?);
        if states.u32()? as usize != client.states.len() {
            return Err(StoreError::Malformed("layer count does not match the artifact").into());
        }
        for state in &mut client.states {
            if states.u32()? as usize != state.passes() {
                return Err(StoreError::Malformed("pass count does not match the artifact").into());
            }
            for pass in 0..state.passes() {
                for slice in 0..slices {
                    for cluster in state.slice_state_mut(pass, slice) {
                        let membranes = states.i16_slice()?;
                        if membranes.len() != cluster.states.len() {
                            return Err(StoreError::Malformed(
                                "cluster size does not match the configuration",
                            )
                            .into());
                        }
                        cluster.states = membranes;
                        cluster.pending_leak_steps = states.u32()?;
                        cluster.dirty = match states.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(StoreError::Malformed("dirty flag").into()),
                        };
                    }
                }
            }
        }
        finish_section(&states)?;

        let mut totals = Dec::new(view.require(SEC_TOTALS)?);
        if totals.u32()? as usize != client.layer_totals.len() {
            return Err(StoreError::Malformed("totals count does not match the artifact").into());
        }
        for layer in &mut client.layer_totals {
            let description = totals.str()?;
            if description != layer.description {
                return Err(
                    StoreError::Malformed("layer description does not match the artifact").into(),
                );
            }
            layer.neurons = totals.f64()?;
            layer.stats = decode_stats(&mut totals)?;
            layer.input_events = totals.u64()?;
            layer.output_events = totals.u64()?;
        }
        finish_section(&totals)?;

        let mut results = Dec::new(view.require(SEC_RESULTS)?);
        let class_counts = results.u32_slice()?;
        if class_counts.len() != client.class_counts.len() {
            return Err(StoreError::Malformed("class count does not match the artifact").into());
        }
        client.class_counts = class_counts;
        client.total = decode_stats(&mut results)?;
        finish_section(&results)?;

        Ok(client)
    }

    /// Serializes the artifact itself — compiled network (stages, weights,
    /// scales) and engine configuration — so the model identity can be
    /// persisted next to the sessions parked against it.
    #[must_use]
    pub fn snapshot_artifact(&self) -> Vec<u8> {
        let mut snap = SnapshotBuilder::new(SnapshotKind::Artifact, self.state_digest());

        let mut net = Enc::new();
        let (c, h, w) = self.network().input_shape();
        net.u16(c);
        net.u16(h);
        net.u16(w);
        net.u16(self.network().output_classes());
        net.u32(self.network().stages().len() as u32);
        for stage in self.network().stages() {
            match stage {
                Stage::Pool { window, input } => {
                    net.u8(0);
                    net.u16(*window);
                    net.u16(input.0);
                    net.u16(input.1);
                    net.u16(input.2);
                }
                Stage::Accelerated {
                    mapping,
                    description,
                } => {
                    net.u8(1);
                    net.str(description);
                    encode_mapping(&mut net, mapping);
                }
            }
        }
        net.u32(self.network().scales().len() as u32);
        for &scale in self.network().scales() {
            net.f32(scale);
        }
        snap.section(SEC_NETWORK, &net.into_bytes());

        let mut conf = Enc::new();
        encode_config(&mut conf, self.config());
        snap.section(SEC_CONFIG, &conf.into_bytes());

        snap.finish()
    }

    /// Rebuilds an artifact from [`RuntimeArtifact::snapshot_artifact`]
    /// bytes: decodes the network and configuration, recompiles the layer
    /// plans, and verifies the rebuilt artifact reproduces the digest the
    /// snapshot was sealed with.
    ///
    /// # Errors
    ///
    /// [`SneError::Snapshot`] for container/decoding failures (including a
    /// digest that does not reproduce) and the usual construction errors of
    /// [`RuntimeArtifact::new`].
    pub fn restore_artifact(bytes: &[u8]) -> Result<Self, SneError> {
        let view = SnapshotView::parse(bytes).map_err(SneError::from)?;
        if view.header.kind != SnapshotKind::Artifact {
            return Err(StoreError::Malformed("expected an artifact snapshot").into());
        }

        let mut net = Dec::new(view.require(SEC_NETWORK)?);
        let input_shape = (net.u16()?, net.u16()?, net.u16()?);
        let output_classes = net.u16()?;
        let stage_count = net.u32()? as usize;
        let mut stages = Vec::with_capacity(stage_count);
        for _ in 0..stage_count {
            match net.u8()? {
                0 => stages.push(Stage::Pool {
                    window: net.u16()?,
                    input: (net.u16()?, net.u16()?, net.u16()?),
                }),
                1 => {
                    let description = net.str()?.to_owned();
                    let mapping = decode_mapping(&mut net)?;
                    stages.push(Stage::Accelerated {
                        mapping,
                        description,
                    });
                }
                _ => return Err(StoreError::Malformed("stage discriminant").into()),
            }
        }
        let scale_count = net.u32()? as usize;
        let mut scales = Vec::with_capacity(scale_count);
        for _ in 0..scale_count {
            scales.push(net.f32()?);
        }
        finish_section(&net)?;

        let mut conf = Dec::new(view.require(SEC_CONFIG)?);
        let config = decode_config(&mut conf)?;
        finish_section(&conf)?;

        let network = CompiledNetwork::from_parts(input_shape, output_classes, stages, scales)?;
        let artifact = Self::new(network, config)?;
        let rebuilt = artifact.state_digest();
        if rebuilt != view.header.artifact_digest {
            return Err(StoreError::ArtifactMismatch {
                expected: rebuilt,
                found: view.header.artifact_digest,
            }
            .into());
        }
        Ok(artifact)
    }
}

/// A section decoder must end exactly at the section boundary; trailing
/// bytes mean the writer and reader disagree on the layout.
fn finish_section(dec: &Dec<'_>) -> Result<(), StoreError> {
    if dec.is_done() {
        Ok(())
    } else {
        Err(StoreError::Malformed("trailing bytes in section"))
    }
}

fn encode_stats(enc: &mut Enc, stats: &sne_sim::CycleStats) {
    for v in stats_fields(stats) {
        enc.u64(v);
    }
}

fn decode_stats(dec: &mut Dec<'_>) -> Result<sne_sim::CycleStats, StoreError> {
    let mut stats = sne_sim::CycleStats::new();
    stats.total_cycles = dec.u64()?;
    stats.update_cycles = dec.u64()?;
    stats.fire_cycles = dec.u64()?;
    stats.reset_cycles = dec.u64()?;
    stats.stall_cycles = dec.u64()?;
    stats.synaptic_ops = dec.u64()?;
    stats.tlu_skipped_updates = dec.u64()?;
    stats.active_cluster_cycles = dec.u64()?;
    stats.gated_cluster_cycles = dec.u64()?;
    stats.input_events = dec.u64()?;
    stats.output_events = dec.u64()?;
    stats.streamer_reads = dec.u64()?;
    stats.streamer_writes = dec.u64()?;
    stats.xbar_transfers = dec.u64()?;
    stats.collector_events = dec.u64()?;
    stats.passes = dec.u64()?;
    Ok(stats)
}

fn stats_fields(s: &sne_sim::CycleStats) -> [u64; 16] {
    [
        s.total_cycles,
        s.update_cycles,
        s.fire_cycles,
        s.reset_cycles,
        s.stall_cycles,
        s.synaptic_ops,
        s.tlu_skipped_updates,
        s.active_cluster_cycles,
        s.gated_cluster_cycles,
        s.input_events,
        s.output_events,
        s.streamer_reads,
        s.streamer_writes,
        s.xbar_transfers,
        s.collector_events,
        s.passes,
    ]
}

fn encode_mapping(enc: &mut Enc, mapping: &LayerMapping) {
    let (discriminant, input, outer, kernel, weights, params) = match mapping {
        LayerMapping::Conv {
            input,
            out_channels,
            kernel,
            weights,
            params,
        } => (0u8, input, *out_channels, *kernel, weights, params),
        LayerMapping::Dense {
            input,
            outputs,
            weights,
            params,
        } => (1u8, input, *outputs, 0, weights, params),
    };
    enc.u8(discriminant);
    enc.u16(input.channels);
    enc.u16(input.height);
    enc.u16(input.width);
    enc.u16(outer);
    enc.u16(kernel);
    enc.i16(params.leak);
    enc.i16(params.threshold);
    let raw: Vec<u8> = weights.iter().map(|&w| w as u8).collect();
    enc.bytes(&raw);
}

fn decode_mapping(dec: &mut Dec<'_>) -> Result<LayerMapping, StoreError> {
    let discriminant = dec.u8()?;
    let input = MapShape::new(dec.u16()?, dec.u16()?, dec.u16()?);
    let outer = dec.u16()?;
    let kernel = dec.u16()?;
    let params = LifHardwareParams {
        leak: dec.i16()?,
        threshold: dec.i16()?,
    };
    let weights: Vec<i8> = dec.bytes()?.iter().map(|&b| b as i8).collect();
    let mapping = match discriminant {
        0 => LayerMapping::conv(input, outer, kernel, weights, params),
        1 => LayerMapping::dense(input, outer, weights, params),
        _ => return Err(StoreError::Malformed("mapping discriminant")),
    };
    mapping.map_err(|_| StoreError::Malformed("mapping construction rejected the decoded layer"))
}

fn encode_config(enc: &mut Enc, c: &SneConfig) {
    enc.u64(c.num_slices as u64);
    enc.u64(c.clusters_per_slice as u64);
    enc.u64(c.neurons_per_cluster as u64);
    enc.u8(c.weight_bits);
    enc.u8(c.state_bits);
    enc.u64(c.weight_buffer_sets as u64);
    enc.u64(c.streamer_fifo_depth as u64);
    enc.u64(c.cluster_fifo_depth as u64);
    enc.u64(c.num_streamers as u64);
    enc.u32(c.cycles_per_event);
    enc.f64(c.clock_mhz);
    enc.u32(c.memory_latency);
    enc.u8(u8::from(c.tlu_enabled));
    enc.u8(u8::from(c.clock_gating));
    enc.u8(u8::from(c.broadcast));
    enc.u8(u8::from(c.double_buffered_state));
}

fn decode_config(dec: &mut Dec<'_>) -> Result<SneConfig, StoreError> {
    fn to_usize(v: u64) -> Result<usize, StoreError> {
        usize::try_from(v).map_err(|_| StoreError::Malformed("configuration field overflow"))
    }
    fn to_bool(v: u8) -> Result<bool, StoreError> {
        match v {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Malformed("configuration flag")),
        }
    }
    Ok(SneConfig {
        num_slices: to_usize(dec.u64()?)?,
        clusters_per_slice: to_usize(dec.u64()?)?,
        neurons_per_cluster: to_usize(dec.u64()?)?,
        weight_bits: dec.u8()?,
        state_bits: dec.u8()?,
        weight_buffer_sets: to_usize(dec.u64()?)?,
        streamer_fifo_depth: to_usize(dec.u64()?)?,
        cluster_fifo_depth: to_usize(dec.u64()?)?,
        num_streamers: to_usize(dec.u64()?)?,
        cycles_per_event: dec.u32()?,
        clock_mhz: dec.f64()?,
        memory_latency: dec.u32()?,
        tlu_enabled: to_bool(dec.u8()?)?,
        clock_gating: to_bool(dec.u8()?)?,
        broadcast: to_bool(dec.u8()?)?,
        double_buffered_state: to_bool(dec.u8()?)?,
    })
}

/// FNV-1a of every configuration field that affects architectural state or
/// modelled behaviour — i.e. all of them.
fn digest_config(h: &mut Fnv1a, c: &SneConfig) {
    h.update_u64(c.num_slices as u64);
    h.update_u64(c.clusters_per_slice as u64);
    h.update_u64(c.neurons_per_cluster as u64);
    h.update_u64(u64::from(c.weight_bits));
    h.update_u64(u64::from(c.state_bits));
    h.update_u64(c.weight_buffer_sets as u64);
    h.update_u64(c.streamer_fifo_depth as u64);
    h.update_u64(c.cluster_fifo_depth as u64);
    h.update_u64(c.num_streamers as u64);
    h.update_u64(u64::from(c.cycles_per_event));
    h.update_u64(c.clock_mhz.to_bits());
    h.update_u64(u64::from(c.memory_latency));
    h.update_u64(u64::from(c.tlu_enabled));
    h.update_u64(u64::from(c.clock_gating));
    h.update_u64(u64::from(c.broadcast));
    h.update_u64(u64::from(c.double_buffered_state));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_event::EventStream;
    use sne_model::topology::Topology;
    use sne_model::Shape;
    use sne_sim::ExecStrategy;

    fn artifact(seed: u64) -> RuntimeArtifact {
        let mut rng = StdRng::seed_from_u64(seed);
        let network =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
        RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap()
    }

    fn stream(seed: u64) -> EventStream {
        crate::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
    }

    #[test]
    fn client_round_trip_is_bit_identical_and_resumes_identically() {
        let artifact = artifact(11);
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let chunks: Vec<_> = stream(5).chunks(4).collect();

        let mut client = artifact.new_client();
        for chunk in &chunks[..2] {
            artifact
                .push(&mut engine, &mut client, chunk, true)
                .unwrap();
        }
        let bytes = artifact.snapshot_client(&client);
        let mut restored = artifact.restore_client(&bytes).unwrap();
        assert_eq!(client, restored);

        // The restored state continues exactly where the original would.
        for chunk in &chunks[2..] {
            let live = artifact
                .push(&mut engine, &mut client, chunk, true)
                .unwrap();
            let resumed = artifact
                .push(&mut engine, &mut restored, chunk, true)
                .unwrap();
            assert_eq!(live, resumed);
        }
        assert_eq!(artifact.summary(&client), artifact.summary(&restored));
    }

    #[test]
    fn fresh_client_snapshot_round_trips() {
        let artifact = artifact(11);
        let client = artifact.new_client();
        let restored = artifact
            .restore_client(&artifact.snapshot_client(&client))
            .unwrap();
        assert_eq!(client, restored);
    }

    #[test]
    fn snapshots_do_not_cross_artifacts() {
        let a = artifact(11);
        let b = artifact(12);
        assert_ne!(a.state_digest(), b.state_digest());
        let bytes = a.snapshot_client(&a.new_client());
        assert!(matches!(
            b.restore_client(&bytes),
            Err(SneError::Snapshot(StoreError::ArtifactMismatch { .. }))
        ));
        // A different engine configuration is a different artifact too.
        let other_config =
            RuntimeArtifact::new(a.network().clone(), SneConfig::with_slices(1)).unwrap();
        assert_ne!(a.state_digest(), other_config.state_digest());
    }

    #[test]
    fn corruption_is_rejected_not_resumed() {
        let artifact = artifact(11);
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let mut client = artifact.new_client();
        artifact
            .push(&mut engine, &mut client, &stream(5), true)
            .unwrap();
        let bytes = artifact.snapshot_client(&client);
        // Torn write.
        assert!(artifact.restore_client(&bytes[..bytes.len() - 1]).is_err());
        // Flipped payload byte.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            artifact.restore_client(&flipped),
            Err(SneError::Snapshot(StoreError::DigestMismatch { .. }))
        ));
        // Wrong kind.
        assert!(matches!(
            artifact.restore_client(&artifact.snapshot_artifact()),
            Err(SneError::Snapshot(StoreError::Malformed(_)))
        ));
    }

    #[test]
    fn artifact_round_trip_preserves_identity_and_behaviour() {
        let artifact = artifact(11);
        let bytes = artifact.snapshot_artifact();
        let rebuilt = RuntimeArtifact::restore_artifact(&bytes).unwrap();
        assert_eq!(artifact.state_digest(), rebuilt.state_digest());
        assert_eq!(artifact.network(), rebuilt.network());
        assert_eq!(artifact.config(), rebuilt.config());

        // And a client parked under the original restores under the rebuilt.
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let mut client = artifact.new_client();
        artifact
            .push(&mut engine, &mut client, &stream(9), true)
            .unwrap();
        let restored = rebuilt
            .restore_client(&artifact.snapshot_client(&client))
            .unwrap();
        assert_eq!(client, restored);
    }
}
