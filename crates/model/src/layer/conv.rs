//! Event-driven 2-D convolution layer.

use serde::{Deserialize, Serialize};

use super::{EventLayer, LayerKind, NeuronBank, NeuronConfig};
use crate::tensor::{Frame, Shape};
use crate::ModelError;

/// An event-driven convolution layer with stateful spiking neurons.
///
/// The layer performs a stride-1 "same" convolution: the output feature map
/// has the same spatial size as the input and `out_channels` channels. Input
/// spikes are scattered into the receptive fields of the output neurons (this
/// is exactly the dataflow of the SNE: an input event updates every output
/// neuron whose receptive field contains it, see Listing 1 of the paper).
///
/// Weights are stored as `f32` in layout `[out_ch][in_ch][kh][kw]`. For the
/// quantized SNE-LIF-4b configuration the weights are integer-valued, which
/// keeps the arithmetic bit-exact with the hardware datapath.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayer {
    input_shape: Shape,
    out_channels: u16,
    kernel: u16,
    weights: Vec<f32>,
    neurons: NeuronBank,
}

impl ConvLayer {
    /// Creates a convolution layer with all-zero weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the kernel is even or zero,
    /// or if `out_channels` is zero.
    pub fn new(
        input_shape: Shape,
        out_channels: u16,
        kernel: u16,
        config: NeuronConfig,
    ) -> Result<Self, ModelError> {
        if kernel == 0 || kernel % 2 == 0 {
            return Err(ModelError::InvalidParameter {
                name: "kernel",
                reason: format!("kernel size {kernel} must be odd and non-zero"),
            });
        }
        if out_channels == 0 {
            return Err(ModelError::InvalidParameter {
                name: "out_channels",
                reason: "output channel count must be non-zero".to_owned(),
            });
        }
        if input_shape.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "input_shape",
                reason: format!("input shape {input_shape} has a zero dimension"),
            });
        }
        let output_shape = Shape::new(out_channels, input_shape.height, input_shape.width);
        let weight_count = usize::from(out_channels)
            * usize::from(input_shape.channels)
            * usize::from(kernel)
            * usize::from(kernel);
        Ok(Self {
            input_shape,
            out_channels,
            kernel,
            weights: vec![0.0; weight_count],
            neurons: NeuronBank::new(config, output_shape.len()),
        })
    }

    /// Kernel size (square kernels only).
    #[must_use]
    pub fn kernel(&self) -> u16 {
        self.kernel
    }

    /// Weight at `[out_ch][in_ch][ky][kx]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn weight(&self, out_ch: u16, in_ch: u16, ky: u16, kx: u16) -> f32 {
        self.weights[self.weight_index(out_ch, in_ch, ky, kx)]
    }

    /// Sets the weight at `[out_ch][in_ch][ky][kx]` (the unit tests' fixture
    /// setter).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[cfg(test)]
    fn set_weight(&mut self, out_ch: u16, in_ch: u16, ky: u16, kx: u16, value: f32) {
        let idx = self.weight_index(out_ch, in_ch, ky, kx);
        self.weights[idx] = value;
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

    /// Number of weights stored by the layer.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// Membrane potential of the output neuron at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn membrane(&self, c: u16, y: u16, x: u16) -> f32 {
        self.neurons.membrane(self.output_shape().index(c, y, x))
    }

    fn weight_index(&self, out_ch: u16, in_ch: u16, ky: u16, kx: u16) -> usize {
        debug_assert!(out_ch < self.out_channels);
        debug_assert!(in_ch < self.input_shape.channels);
        debug_assert!(ky < self.kernel && kx < self.kernel);
        ((usize::from(out_ch) * usize::from(self.input_shape.channels) + usize::from(in_ch))
            * usize::from(self.kernel)
            + usize::from(ky))
            * usize::from(self.kernel)
            + usize::from(kx)
    }

    /// Number of output-neuron updates caused by one input spike at `(y, x)`:
    /// the receptive-field positions that stay inside the map, times the
    /// number of output channels.
    #[must_use]
    pub fn updates_per_spike(&self, y: u16, x: u16) -> u64 {
        let half = i32::from(self.kernel / 2);
        let mut positions = 0u64;
        for dy in -half..=half {
            for dx in -half..=half {
                let oy = i32::from(y) + dy;
                let ox = i32::from(x) + dx;
                if oy >= 0
                    && ox >= 0
                    && oy < i32::from(self.input_shape.height)
                    && ox < i32::from(self.input_shape.width)
                {
                    positions += 1;
                }
            }
        }
        positions * u64::from(self.out_channels)
    }
}

impl EventLayer for ConvLayer {
    fn input_shape(&self) -> Shape {
        self.input_shape
    }

    fn output_shape(&self) -> Shape {
        Shape::new(
            self.out_channels,
            self.input_shape.height,
            self.input_shape.width,
        )
    }

    fn step(&mut self, input: &Frame) -> Frame {
        assert_eq!(
            input.shape(),
            self.input_shape,
            "conv layer input shape mismatch"
        );
        let out_shape = self.output_shape();
        let half = i32::from(self.kernel / 2);

        // Scatter every input spike into the receptive field of the output
        // neurons (same dataflow as the SNE cluster update).
        for (in_ch, y, x) in input.spikes() {
            for out_ch in 0..self.out_channels {
                for ky in 0..self.kernel {
                    for kx in 0..self.kernel {
                        // Output neuron whose kernel tap (ky, kx) lands on (y, x):
                        // oy = y + half - ky, ox = x + half - kx.
                        let oy = i32::from(y) + half - i32::from(ky);
                        let ox = i32::from(x) + half - i32::from(kx);
                        if oy < 0
                            || ox < 0
                            || oy >= i32::from(out_shape.height)
                            || ox >= i32::from(out_shape.width)
                        {
                            continue;
                        }
                        let w = self.weight(out_ch, in_ch, ky, kx);
                        let idx = out_shape.index(out_ch, oy as u16, ox as u16);
                        self.neurons.integrate(idx, w);
                    }
                }
            }
        }

        let fired = self.neurons.fire_all();
        let mut output = Frame::zeros(out_shape);
        for (i, &f) in fired.iter().enumerate() {
            if f {
                let x = (i % usize::from(out_shape.width)) as u16;
                let rest = i / usize::from(out_shape.width);
                let y = (rest % usize::from(out_shape.height)) as u16;
                let c = (rest / usize::from(out_shape.height)) as u16;
                output.set(c, y, x, true);
            }
        }
        output
    }

    fn reset(&mut self) {
        self.neurons.reset();
    }

    fn synaptic_ops(&self, input: &Frame) -> u64 {
        input
            .spikes()
            .map(|(_, y, x)| self.updates_per_spike(y, x))
            .sum()
    }

    fn num_neurons(&self) -> usize {
        self.output_shape().len()
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolution
    }

    fn describe(&self) -> String {
        format!(
            "conv {}x{},{}x{}",
            self.input_shape.channels, self.out_channels, self.kernel, self.kernel
        )
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

    fn layer(threshold: i16) -> ConvLayer {
        let mut l = ConvLayer::new(Shape::new(1, 5, 5), 1, 3, lif(0, threshold)).unwrap();
        // Identity-ish kernel: centre tap has weight 2, the rest 1.
        for ky in 0..3 {
            for kx in 0..3 {
                l.set_weight(0, 0, ky, kx, 1.0);
            }
        }
        l.set_weight(0, 0, 1, 1, 2.0);
        l
    }

    #[test]
    fn rejects_even_or_zero_kernels_and_zero_channels() {
        let shape = Shape::new(1, 4, 4);
        assert!(ConvLayer::new(shape, 1, 2, NeuronConfig::default_lif()).is_err());
        assert!(ConvLayer::new(shape, 1, 0, NeuronConfig::default_lif()).is_err());
        assert!(ConvLayer::new(shape, 0, 3, NeuronConfig::default_lif()).is_err());
        assert!(ConvLayer::new(Shape::new(0, 4, 4), 1, 3, NeuronConfig::default_lif()).is_err());
    }

    #[test]
    fn output_shape_preserves_spatial_size() {
        let l = ConvLayer::new(Shape::new(2, 8, 6), 32, 3, NeuronConfig::default_lif()).unwrap();
        assert_eq!(l.output_shape(), Shape::new(32, 8, 6));
        assert_eq!(l.num_neurons(), 32 * 8 * 6);
        assert_eq!(l.weight_count(), 32 * 2 * 3 * 3);
    }

    #[test]
    fn single_spike_updates_its_receptive_field() {
        let mut l = layer(100);
        let mut input = Frame::zeros(Shape::new(1, 5, 5));
        input.set(0, 2, 2, true);
        let out = l.step(&input);
        assert_eq!(out.spike_count(), 0, "threshold 100 must not be reached");
        // The centre output neuron got the centre tap (weight 2); its
        // neighbours got weight 1; neurons further than the kernel got 0.
        assert_eq!(l.membrane(0, 2, 2), 2.0);
        assert_eq!(l.membrane(0, 1, 1), 1.0);
        assert_eq!(l.membrane(0, 0, 0), 0.0);
    }

    #[test]
    fn centre_spike_makes_centre_neuron_fire_first() {
        let mut l = layer(4);
        let mut input = Frame::zeros(Shape::new(1, 5, 5));
        input.set(0, 2, 2, true);
        // After two identical spikes the centre neuron reaches 4 (2+2) and fires.
        let _ = l.step(&input);
        let out = l.step(&input);
        assert!(out.get(0, 2, 2));
        assert_eq!(out.spike_count(), 1);
        // The fired neuron resets to zero.
        assert_eq!(l.membrane(0, 2, 2), 0.0);
    }

    #[test]
    fn border_spikes_update_fewer_neurons() {
        let l = layer(100);
        assert_eq!(l.updates_per_spike(2, 2), 9);
        assert_eq!(l.updates_per_spike(0, 0), 4);
        assert_eq!(l.updates_per_spike(0, 2), 6);
        let mut corner = Frame::zeros(Shape::new(1, 5, 5));
        corner.set(0, 0, 0, true);
        assert_eq!(l.synaptic_ops(&corner), 4);
    }

    #[test]
    fn synaptic_ops_scale_with_out_channels() {
        let l = ConvLayer::new(Shape::new(2, 5, 5), 8, 3, NeuronConfig::default_lif()).unwrap();
        let mut input = Frame::zeros(Shape::new(2, 5, 5));
        input.set(0, 2, 2, true);
        input.set(1, 2, 2, true);
        assert_eq!(l.synaptic_ops(&input), 2 * 9 * 8);
    }

    #[test]
    fn reset_clears_membranes() {
        let mut l = layer(100);
        let mut input = Frame::zeros(Shape::new(1, 5, 5));
        input.set(0, 2, 2, true);
        let _ = l.step(&input);
        l.reset();
        assert_eq!(l.membrane(0, 2, 2), 0.0);
    }

    #[test]
    fn leak_reduces_membrane_every_step() {
        let mut l = ConvLayer::new(Shape::new(1, 3, 3), 1, 3, lif(1, 100)).unwrap();
        l.set_weight(0, 0, 1, 1, 5.0);
        let mut input = Frame::zeros(Shape::new(1, 3, 3));
        input.set(0, 1, 1, true);
        let _ = l.step(&input);
        assert_eq!(l.membrane(0, 1, 1), 4.0); // 5 - 1 leak
        let empty = Frame::zeros(Shape::new(1, 3, 3));
        let _ = l.step(&empty);
        assert_eq!(l.membrane(0, 1, 1), 3.0);
    }

    #[test]
    fn set_weights_validates_length() {
        let mut l = layer(10);
        assert!(l.set_weights(vec![0.0; 3]).is_err());
        assert!(l.set_weights(vec![0.5; 9]).is_ok());
    }

    #[test]
    fn describe_mentions_channels_and_kernel() {
        let l = ConvLayer::new(Shape::new(2, 8, 8), 32, 3, NeuronConfig::default_lif()).unwrap();
        assert_eq!(l.describe(), "conv 2x32,3x3");
        assert_eq!(l.kind(), LayerKind::Convolution);
    }
}
