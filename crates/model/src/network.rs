//! Sequential event-driven networks.

use sne_event::{EventStream, EventTensor};

use crate::layer::{EventLayer, LayerKind};
use crate::tensor::{Frame, Shape};
use crate::ModelError;

/// Per-layer statistics collected while running a network.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerRunStats {
    /// Layer description (e.g. `conv 2x32,3x3`).
    pub description: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Number of output neurons.
    pub neurons: usize,
    /// Input spikes consumed over the whole run.
    pub input_spikes: u64,
    /// Output spikes produced over the whole run.
    pub output_spikes: u64,
    /// Synaptic operations performed over the whole run.
    pub synaptic_ops: u64,
    /// Output activity: output spikes / (neurons × timesteps).
    pub output_activity: f64,
}

/// Result of running a network over a full event stream.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Spike count of every neuron of the final layer, flattened.
    pub output_spike_counts: Vec<u32>,
    /// Per-layer statistics.
    pub layers: Vec<LayerRunStats>,
    /// Total synaptic operations across all layers.
    pub total_synaptic_ops: u64,
    /// Number of timesteps processed.
    pub timesteps: u32,
    /// Total number of input spikes of the first layer.
    pub input_spikes: u64,
}

impl RunResult {
    /// Index of the output neuron with the highest spike count (classification
    /// by rate coding). Ties resolve to the lowest index.
    #[must_use]
    pub fn predicted_class(&self) -> usize {
        self.output_spike_counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Mean output activity across all stateful layers (the quantity the
    /// paper reports as "network activity", 1.2 %–4.9 % on DVS-Gesture).
    #[must_use]
    pub fn mean_activity(&self) -> f64 {
        let stateful: Vec<&LayerRunStats> = self
            .layers
            .iter()
            .filter(|l| l.kind != LayerKind::Pooling)
            .collect();
        if stateful.is_empty() {
            0.0
        } else {
            stateful.iter().map(|l| l.output_activity).sum::<f64>() / stateful.len() as f64
        }
    }
}

/// A sequential event-driven network (the eCNN of the paper).
///
/// # Example
///
/// ```
/// use sne_model::layer::{ConvLayer, NeuronConfig, PoolLayer};
/// use sne_model::{Network, Shape};
///
/// let input = Shape::new(2, 8, 8);
/// let mut network = Network::new(input);
/// network.push(ConvLayer::new(input, 4, 3, NeuronConfig::default_lif())?)?;
/// network.push(PoolLayer::new(Shape::new(4, 8, 8), 2)?)?;
/// assert_eq!(network.output_shape().as_tuple(), (4, 4, 4));
/// # Ok::<(), sne_model::ModelError>(())
/// ```
pub struct Network {
    input_shape: Shape,
    layers: Vec<Box<dyn EventLayer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("input_shape", &self.input_shape)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.describe()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Creates an empty network accepting frames of the given shape.
    #[must_use]
    pub fn new(input_shape: Shape) -> Self {
        Self {
            input_shape,
            layers: Vec::new(),
        }
    }

    /// Appends a layer, checking that its input shape matches the current
    /// output shape of the network.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the shapes do not chain.
    pub fn push<L: EventLayer + 'static>(&mut self, layer: L) -> Result<(), ModelError> {
        let expected = self.output_shape();
        if layer.input_shape() != expected {
            return Err(ModelError::ShapeMismatch {
                location: format!("layer {}", self.layers.len()),
                expected: expected.as_tuple(),
                found: layer.input_shape().as_tuple(),
            });
        }
        self.layers.push(Box::new(layer));
        Ok(())
    }

    /// Shape of the input frames.
    #[must_use]
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// Shape of the output frames (equals the input shape for an empty
    /// network).
    #[must_use]
    pub fn output_shape(&self) -> Shape {
        self.layers
            .last()
            .map_or(self.input_shape, |l| l.output_shape())
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers of the network.
    #[must_use]
    pub fn layers(&self) -> &[Box<dyn EventLayer>] {
        &self.layers
    }

    /// Resets all neuron state (start of a new inference).
    pub fn reset(&mut self) {
        for layer in &mut self.layers {
            layer.reset();
        }
    }

    /// Processes one input frame (one timestep) through the whole network and
    /// returns the output frame of the last layer.
    pub fn step(&mut self, input: &Frame) -> Frame {
        let mut frame = input.clone();
        for layer in &mut self.layers {
            frame = layer.step(&frame);
        }
        frame
    }

    /// Runs a full inference over a dense spike tensor, resetting the network
    /// state first, and collects per-layer statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the tensor geometry does not
    /// match the network input shape, or [`ModelError::EmptyNetwork`] if the
    /// network has no layers.
    pub fn run(&mut self, input: &EventTensor) -> Result<RunResult, ModelError> {
        if self.layers.is_empty() {
            return Err(ModelError::EmptyNetwork);
        }
        let g = input.geometry();
        let tensor_shape = Shape::new(g.channels, g.height, g.width);
        if tensor_shape != self.input_shape {
            return Err(ModelError::ShapeMismatch {
                location: "network input".to_owned(),
                expected: self.input_shape.as_tuple(),
                found: tensor_shape.as_tuple(),
            });
        }

        self.reset();
        let mut stats: Vec<LayerRunStats> = self
            .layers
            .iter()
            .map(|l| LayerRunStats {
                description: l.describe(),
                kind: l.kind(),
                neurons: l.num_neurons(),
                input_spikes: 0,
                output_spikes: 0,
                synaptic_ops: 0,
                output_activity: 0.0,
            })
            .collect();
        let out_len = self.output_shape().len();
        let mut output_counts = vec![0u32; out_len];
        let mut input_spikes_total = 0u64;

        for t in 0..g.timesteps {
            // Build the input frame of this timestep.
            let mut frame = Frame::zeros(self.input_shape);
            for ch in 0..g.channels {
                for y in 0..g.height {
                    for x in 0..g.width {
                        if input.get(t, ch, x, y).unwrap_or(false) {
                            frame.set(ch, y, x, true);
                        }
                    }
                }
            }
            input_spikes_total += frame.spike_count() as u64;

            for (layer, stat) in self.layers.iter_mut().zip(stats.iter_mut()) {
                stat.input_spikes += frame.spike_count() as u64;
                stat.synaptic_ops += layer.synaptic_ops(&frame);
                frame = layer.step(&frame);
                stat.output_spikes += frame.spike_count() as u64;
            }
            for (count, &bit) in output_counts.iter_mut().zip(frame.as_slice()) {
                if bit {
                    *count += 1;
                }
            }
        }

        for stat in &mut stats {
            let denom = stat.neurons as f64 * f64::from(g.timesteps);
            stat.output_activity = if denom > 0.0 {
                stat.output_spikes as f64 / denom
            } else {
                0.0
            };
        }
        let total_synaptic_ops = stats.iter().map(|s| s.synaptic_ops).sum();
        Ok(RunResult {
            output_spike_counts: output_counts,
            layers: stats,
            total_synaptic_ops,
            timesteps: g.timesteps,
            input_spikes: input_spikes_total,
        })
    }

    /// Runs a full inference over a sparse event stream (converted to the
    /// dense tensor view first).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Network::run`].
    pub fn run_stream(&mut self, input: &EventStream) -> Result<RunResult, ModelError> {
        self.run(&EventTensor::from_stream(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, DenseLayer, NeuronConfig, PoolLayer};
    use crate::neuron::LifParams;
    use sne_event::Event;

    fn lif(leak: i16, threshold: i16) -> NeuronConfig {
        NeuronConfig::Lif(LifParams {
            leak,
            threshold,
            ..LifParams::default()
        })
    }

    fn small_network() -> Network {
        let input = Shape::new(1, 4, 4);
        let mut n = Network::new(input);
        let mut conv = ConvLayer::new(input, 2, 3, lif(0, 2)).unwrap();
        let weights: Vec<f32> = vec![1.0; conv.weight_count()];
        conv.set_weights(weights).unwrap();
        n.push(conv).unwrap();
        n.push(PoolLayer::new(Shape::new(2, 4, 4), 2).unwrap())
            .unwrap();
        let mut dense = DenseLayer::new(Shape::new(2, 2, 2), 3, lif(0, 1)).unwrap();
        let weights: Vec<f32> = vec![1.0; 8 * 3];
        dense.set_weights(weights).unwrap();
        n.push(dense).unwrap();
        n
    }

    #[test]
    fn push_checks_shape_chaining() {
        let input = Shape::new(1, 4, 4);
        let mut n = Network::new(input);
        n.push(ConvLayer::new(input, 2, 3, NeuronConfig::default_lif()).unwrap())
            .unwrap();
        // Wrong input shape must be rejected.
        let bad = PoolLayer::new(Shape::new(1, 4, 4), 2).unwrap();
        assert!(matches!(n.push(bad), Err(ModelError::ShapeMismatch { .. })));
    }

    #[test]
    fn output_shape_tracks_last_layer() {
        let n = small_network();
        assert_eq!(n.output_shape(), Shape::new(3, 1, 1));
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
    }

    #[test]
    fn empty_network_cannot_run() {
        let mut n = Network::new(Shape::new(1, 4, 4));
        let stream = EventStream::new(4, 4, 1, 5);
        assert!(matches!(
            n.run_stream(&stream),
            Err(ModelError::EmptyNetwork)
        ));
    }

    #[test]
    fn run_rejects_mismatched_geometry() {
        let mut n = small_network();
        let stream = EventStream::new(8, 8, 1, 5);
        assert!(matches!(
            n.run_stream(&stream),
            Err(ModelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn run_produces_spikes_and_stats() {
        let mut n = small_network();
        let mut stream = EventStream::new(4, 4, 1, 6);
        for t in 0..6 {
            stream.push(Event::update(t, 0, 1, 1)).unwrap();
            stream.push(Event::update(t, 0, 2, 2)).unwrap();
        }
        let result = n.run_stream(&stream).unwrap();
        assert_eq!(result.timesteps, 6);
        assert_eq!(result.input_spikes, 12);
        assert_eq!(result.layers.len(), 3);
        assert!(result.total_synaptic_ops > 0);
        assert!(result.output_spike_counts.iter().any(|&c| c > 0));
        // Convolution SOPs dominate: each spike updates 9 positions x 2 channels.
        assert_eq!(result.layers[0].synaptic_ops, 12 * 9 * 2);
    }

    #[test]
    fn rerun_is_deterministic_thanks_to_reset() {
        let mut n = small_network();
        let mut stream = EventStream::new(4, 4, 1, 6);
        for t in 0..6 {
            stream.push(Event::update(t, 0, 1, 1)).unwrap();
        }
        let a = n.run_stream(&stream).unwrap();
        let b = n.run_stream(&stream).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predicted_class_is_argmax() {
        let result = RunResult {
            output_spike_counts: vec![1, 5, 3],
            layers: Vec::new(),
            total_synaptic_ops: 0,
            timesteps: 1,
            input_spikes: 0,
        };
        assert_eq!(result.predicted_class(), 1);
        let tie = RunResult {
            output_spike_counts: vec![5, 5, 3],
            ..result
        };
        assert_eq!(tie.predicted_class(), 0);
    }

    #[test]
    fn mean_activity_ignores_pooling_layers() {
        let mut n = small_network();
        let mut stream = EventStream::new(4, 4, 1, 6);
        for t in 0..6 {
            stream.push(Event::update(t, 0, 1, 1)).unwrap();
        }
        let result = n.run_stream(&stream).unwrap();
        let activity = result.mean_activity();
        assert!(activity > 0.0 && activity <= 1.0);
    }
}
