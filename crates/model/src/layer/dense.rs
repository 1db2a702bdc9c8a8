//! Fully-connected spiking layer.

use serde::{Deserialize, Serialize};

use super::{EventLayer, LayerKind, NeuronBank, NeuronConfig};
use crate::tensor::{Frame, Shape};
use crate::ModelError;

/// A fully-connected layer with stateful spiking neurons.
///
/// The input frame is flattened in `[C, H, W]` row-major order; each output
/// neuron holds one weight per input position. Input spikes scatter their
/// weight column into the output membranes, mirroring how the SNE maps
/// fully-connected layers onto clusters (every input event addresses all
/// output neurons).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    input_shape: Shape,
    outputs: u16,
    /// Weights in `[output][input]` layout.
    weights: Vec<f32>,
    neurons: NeuronBank,
}

impl DenseLayer {
    /// Creates a dense layer with all-zero weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `outputs` is zero or the
    /// input shape has a zero dimension.
    pub fn new(input_shape: Shape, outputs: u16, config: NeuronConfig) -> Result<Self, ModelError> {
        if outputs == 0 {
            return Err(ModelError::InvalidParameter {
                name: "outputs",
                reason: "output neuron count must be non-zero".to_owned(),
            });
        }
        if input_shape.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "input_shape",
                reason: format!("input shape {input_shape} has a zero dimension"),
            });
        }
        let weights = vec![0.0; usize::from(outputs) * input_shape.len()];
        Ok(Self {
            input_shape,
            outputs,
            weights,
            neurons: NeuronBank::new(config, usize::from(outputs)),
        })
    }

    /// Number of inputs (flattened input shape).
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.input_shape.len()
    }

    /// Weight connecting flattened input `input` to `output`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn weight(&self, output: u16, input: usize) -> f32 {
        self.weights[usize::from(output) * self.inputs() + input]
    }

    /// Sets the weight connecting flattened input `input` to `output` (the
    /// unit tests' fixture setter).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[cfg(test)]
    fn set_weight(&mut self, output: u16, input: usize, value: f32) {
        let inputs = self.inputs();
        self.weights[usize::from(output) * inputs + input] = value;
    }

    /// Replaces all weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the length does not match
    /// the layer geometry.
    pub fn set_weights(&mut self, weights: Vec<f32>) -> Result<(), ModelError> {
        if weights.len() != self.weights.len() {
            return Err(ModelError::InvalidParameter {
                name: "weights",
                reason: format!(
                    "expected {} weights, got {}",
                    self.weights.len(),
                    weights.len()
                ),
            });
        }
        self.weights = weights;
        Ok(())
    }

    /// Membrane potential of output neuron `output`.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    #[must_use]
    pub fn membrane(&self, output: u16) -> f32 {
        self.neurons.membrane(usize::from(output))
    }
}

impl EventLayer for DenseLayer {
    fn input_shape(&self) -> Shape {
        self.input_shape
    }

    fn output_shape(&self) -> Shape {
        Shape::new(self.outputs, 1, 1)
    }

    fn step(&mut self, input: &Frame) -> Frame {
        assert_eq!(
            input.shape(),
            self.input_shape,
            "dense layer input shape mismatch"
        );
        let inputs = self.inputs();
        for (c, y, x) in input.spikes() {
            let in_idx = self.input_shape.index(c, y, x);
            for out in 0..usize::from(self.outputs) {
                let w = self.weights[out * inputs + in_idx];
                self.neurons.integrate(out, w);
            }
        }
        let fired = self.neurons.fire_all();
        let mut output = Frame::zeros(self.output_shape());
        for (i, &f) in fired.iter().enumerate() {
            if f {
                output.set(i as u16, 0, 0, true);
            }
        }
        output
    }

    fn reset(&mut self) {
        self.neurons.reset();
    }

    fn synaptic_ops(&self, input: &Frame) -> u64 {
        input.spike_count() as u64 * u64::from(self.outputs)
    }

    fn num_neurons(&self) -> usize {
        usize::from(self.outputs)
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dense
    }

    fn describe(&self) -> String {
        format!("fc {}x{}", self.inputs(), self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::LifParams;

    fn lif(leak: i16, threshold: i16) -> NeuronConfig {
        NeuronConfig::Lif(LifParams {
            leak,
            threshold,
            ..LifParams::default()
        })
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(DenseLayer::new(Shape::new(2, 2, 2), 0, NeuronConfig::default_lif()).is_err());
        assert!(DenseLayer::new(Shape::new(0, 2, 2), 4, NeuronConfig::default_lif()).is_err());
    }

    #[test]
    fn output_shape_is_flat() {
        let l = DenseLayer::new(Shape::new(32, 2, 2), 11, NeuronConfig::default_lif()).unwrap();
        assert_eq!(l.output_shape(), Shape::new(11, 1, 1));
        assert_eq!(l.inputs(), 128);
        assert_eq!(l.num_neurons(), 11);
        assert_eq!(l.describe(), "fc 128x11");
        assert_eq!(l.kind(), LayerKind::Dense);
    }

    #[test]
    fn spike_scatters_weight_column() {
        let mut l = DenseLayer::new(Shape::new(1, 2, 2), 3, lif(0, 100)).unwrap();
        l.set_weight(0, 1, 5.0);
        l.set_weight(1, 1, -3.0);
        l.set_weight(2, 1, 7.0);
        let mut input = Frame::zeros(Shape::new(1, 2, 2));
        input.set(0, 0, 1, true); // flattened index 1
        let _ = l.step(&input);
        assert_eq!(l.membrane(0), 5.0);
        assert_eq!(l.membrane(1), -3.0);
        assert_eq!(l.membrane(2), 7.0);
    }

    #[test]
    fn neuron_fires_at_threshold_and_resets() {
        let mut l = DenseLayer::new(Shape::new(1, 1, 2), 1, lif(0, 10)).unwrap();
        l.set_weight(0, 0, 6.0);
        let mut input = Frame::zeros(Shape::new(1, 1, 2));
        input.set(0, 0, 0, true);
        assert_eq!(l.step(&input).spike_count(), 0);
        let out = l.step(&input);
        assert!(out.get(0, 0, 0));
        assert_eq!(l.membrane(0), 0.0);
    }

    #[test]
    fn synaptic_ops_are_spikes_times_outputs() {
        let l = DenseLayer::new(Shape::new(2, 2, 2), 16, NeuronConfig::default_lif()).unwrap();
        let mut input = Frame::zeros(Shape::new(2, 2, 2));
        input.set(0, 0, 0, true);
        input.set(1, 1, 1, true);
        input.set(0, 1, 0, true);
        assert_eq!(l.synaptic_ops(&input), 3 * 16);
    }

    #[test]
    fn set_weights_validates_length() {
        let mut l = DenseLayer::new(Shape::new(1, 1, 2), 2, NeuronConfig::default_lif()).unwrap();
        assert!(l.set_weights(vec![0.0; 3]).is_err());
        assert!(l.set_weights(vec![1.0; 4]).is_ok());
        assert_eq!(l.weight(1, 1), 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = DenseLayer::new(Shape::new(1, 1, 2), 1, lif(0, 100)).unwrap();
        l.set_weight(0, 0, 6.0);
        let mut input = Frame::zeros(Shape::new(1, 1, 2));
        input.set(0, 0, 0, true);
        let _ = l.step(&input);
        l.reset();
        assert_eq!(l.membrane(0), 0.0);
    }

    #[test]
    fn srm_dense_layer_fires_with_float_dynamics() {
        let mut l = DenseLayer::new(
            Shape::new(1, 1, 1),
            1,
            NeuronConfig::Srm(crate::neuron::SrmParams {
                threshold: 3.0,
                ..Default::default()
            }),
        )
        .unwrap();
        l.set_weight(0, 0, 4.0);
        let mut input = Frame::zeros(Shape::new(1, 1, 1));
        input.set(0, 0, 0, true);
        let out = l.step(&input);
        assert!(out.get(0, 0, 0));
    }
}
