//! Mapping of eCNN layers onto the SNE.
//!
//! The paper (Listing 1 and §III-D.5) maps a layer as follows: software
//! programs one set of weights per output channel, the engine then consumes
//! the full input event stream, updating every output neuron whose receptive
//! field contains the event. The address filter selects the affected neurons,
//! the address shift places them relative to the cluster base address, and
//! the filter buffer provides the weight selected by the input channel and
//! the relative position.
//!
//! [`LayerMapping`] captures exactly the information those blocks need:
//! the layer geometry, the quantized 4-bit weights and the LIF parameters
//! programmed through the register interface.

use serde::{Deserialize, Serialize};
use sne_event::Event;

use crate::SimError;

/// LIF parameters programmed into the engine for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LifHardwareParams {
    /// Linear leak subtracted at every timestep.
    pub leak: i16,
    /// Firing threshold.
    pub threshold: i16,
}

impl Default for LifHardwareParams {
    fn default() -> Self {
        Self {
            leak: 0,
            threshold: 16,
        }
    }
}

/// Shape of a feature map handled by a mapping, `(channels, height, width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MapShape {
    /// Number of channels.
    pub channels: u16,
    /// Height in neurons.
    pub height: u16,
    /// Width in neurons.
    pub width: u16,
}

impl MapShape {
    /// Creates a shape.
    #[must_use]
    pub fn new(channels: u16, height: u16, width: u16) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Total number of positions.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.channels) * usize::from(self.height) * usize::from(self.width)
    }

    /// Returns `true` if any dimension is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels == 0 || self.height == 0 || self.width == 0
    }

    /// Row-major index of `(c, y, x)`.
    #[must_use]
    pub fn index(&self, c: u16, y: u16, x: u16) -> usize {
        (usize::from(c) * usize::from(self.height) + usize::from(y)) * usize::from(self.width)
            + usize::from(x)
    }

    /// Inverse of [`MapShape::index`].
    #[must_use]
    pub fn position(&self, index: usize) -> (u16, u16, u16) {
        let x = (index % usize::from(self.width)) as u16;
        let rest = index / usize::from(self.width);
        let y = (rest % usize::from(self.height)) as u16;
        let c = (rest / usize::from(self.height)) as u16;
        (c, y, x)
    }
}

/// A weighted contribution of one input event to one output neuron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contribution {
    /// Global output-neuron index (row-major over the output shape).
    pub neuron: usize,
    /// Quantized synaptic weight.
    pub weight: i8,
}

/// An eCNN layer mapped onto the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerMapping {
    /// Stride-1 "same" convolution.
    Conv {
        /// Input feature-map shape.
        input: MapShape,
        /// Number of output channels.
        out_channels: u16,
        /// Square kernel size (odd).
        kernel: u16,
        /// Weights in `[out][in][kh][kw]` layout, on the 4-bit grid.
        weights: Vec<i8>,
        /// LIF parameters of the layer.
        params: LifHardwareParams,
    },
    /// Fully-connected layer.
    Dense {
        /// Input feature-map shape (flattened row-major).
        input: MapShape,
        /// Number of output neurons.
        outputs: u16,
        /// Weights in `[out][in]` layout, on the 4-bit grid.
        weights: Vec<i8>,
        /// LIF parameters of the layer.
        params: LifHardwareParams,
    },
}

impl LayerMapping {
    /// Creates a convolution mapping.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the geometry is inconsistent
    /// with the weight count or the kernel is even/zero.
    pub fn conv(
        input: MapShape,
        out_channels: u16,
        kernel: u16,
        weights: Vec<i8>,
        params: LifHardwareParams,
    ) -> Result<Self, SimError> {
        if input.is_empty() || out_channels == 0 {
            return Err(SimError::InvalidConfig {
                name: "conv mapping",
                reason: "input shape and output channels must be non-zero".to_owned(),
            });
        }
        if kernel == 0 || kernel % 2 == 0 {
            return Err(SimError::InvalidConfig {
                name: "kernel",
                reason: format!("kernel {kernel} must be odd and non-zero"),
            });
        }
        let expected = usize::from(out_channels)
            * usize::from(input.channels)
            * usize::from(kernel)
            * usize::from(kernel);
        if weights.len() != expected {
            return Err(SimError::InvalidConfig {
                name: "weights",
                reason: format!("expected {expected} weights, got {}", weights.len()),
            });
        }
        Ok(Self::Conv {
            input,
            out_channels,
            kernel,
            weights,
            params,
        })
    }

    /// Creates a fully-connected mapping.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the geometry is inconsistent
    /// with the weight count.
    pub fn dense(
        input: MapShape,
        outputs: u16,
        weights: Vec<i8>,
        params: LifHardwareParams,
    ) -> Result<Self, SimError> {
        if input.is_empty() || outputs == 0 {
            return Err(SimError::InvalidConfig {
                name: "dense mapping",
                reason: "input shape and outputs must be non-zero".to_owned(),
            });
        }
        let expected = usize::from(outputs) * input.len();
        if weights.len() != expected {
            return Err(SimError::InvalidConfig {
                name: "weights",
                reason: format!("expected {expected} weights, got {}", weights.len()),
            });
        }
        Ok(Self::Dense {
            input,
            outputs,
            weights,
            params,
        })
    }

    /// Input feature-map shape.
    #[must_use]
    pub fn input_shape(&self) -> MapShape {
        match self {
            Self::Conv { input, .. } | Self::Dense { input, .. } => *input,
        }
    }

    /// Output feature-map shape.
    #[must_use]
    pub fn output_shape(&self) -> MapShape {
        match self {
            Self::Conv {
                input,
                out_channels,
                ..
            } => MapShape::new(*out_channels, input.height, input.width),
            Self::Dense { outputs, .. } => MapShape::new(*outputs, 1, 1),
        }
    }

    /// Total number of output neurons implemented by the layer.
    #[must_use]
    pub fn total_output_neurons(&self) -> usize {
        self.output_shape().len()
    }

    /// LIF parameters programmed for the layer.
    #[must_use]
    pub fn params(&self) -> LifHardwareParams {
        match self {
            Self::Conv { params, .. } | Self::Dense { params, .. } => *params,
        }
    }

    /// Number of weight sets the slice filter buffer must hold (one per input
    /// channel for a convolution, one per input position for a dense layer).
    #[must_use]
    pub fn weight_sets(&self) -> usize {
        match self {
            Self::Conv { input, .. } => usize::from(input.channels),
            Self::Dense { input, .. } => input.len(),
        }
    }

    /// Validates that an `UPDATE_OP` event addresses the input feature map.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventOutOfRange`] if the event coordinates fall
    /// outside the mapped input shape.
    pub fn validate_event(&self, event: &Event) -> Result<(), SimError> {
        let input = self.input_shape();
        if event.ch >= input.channels || event.x >= input.width || event.y >= input.height {
            return Err(SimError::EventOutOfRange {
                event: format!("({}, {}, {})", event.ch, event.x, event.y),
                expected: format!("{}x{}x{}", input.channels, input.height, input.width),
            });
        }
        Ok(())
    }

    /// Contributions of an input event restricted to the output neurons in
    /// `range` (the address filter + address shift of the slices assigned to
    /// that range). The returned neuron indices are global.
    ///
    /// Test-only convenience: it allocates per call, so the public API is
    /// the allocation-free [`LayerMapping::contributions_in_range_into`],
    /// which the engine's workers (and the compiled [`crate::plan`] tables)
    /// use exclusively.
    #[cfg(test)]
    #[must_use]
    pub fn contributions_in_range(
        &self,
        event: &Event,
        range: std::ops::Range<usize>,
    ) -> Vec<Contribution> {
        let mut out = Vec::new();
        self.contributions_in_range_into(event, range, &mut out);
        out
    }

    /// Contributions of an input event restricted to the output neurons in
    /// `range` (the address filter + address shift of the slices assigned to
    /// that range), appended to `out` (which is *not* cleared first) so the
    /// engine's span walk can reuse one scratch buffer per slice
    /// across the whole event stream. The appended neuron indices are global.
    ///
    /// This is the reference oracle of the event datapath: the compiled
    /// [`crate::plan::LayerPlan`] must reproduce it bit-exactly, entry order
    /// included.
    pub fn contributions_in_range_into(
        &self,
        event: &Event,
        range: std::ops::Range<usize>,
        out: &mut Vec<Contribution>,
    ) {
        if range.is_empty() {
            return;
        }
        match self {
            Self::Conv {
                input,
                kernel,
                weights,
                ..
            } => {
                let out_shape = self.output_shape();
                let half = i32::from(*kernel / 2);
                // Only the output channels whose neuron planes intersect
                // `range` can contribute: the address filter of a slice
                // rejects everything else, so skip those channels outright
                // instead of enumerating the full receptive field per slice.
                // Clamp to the layer's neurons first so the channel indices
                // fit u16 even for over-wide caller ranges.
                let plane = usize::from(input.height) * usize::from(input.width);
                let end = range.end.min(out_shape.len());
                if range.start >= end {
                    return;
                }
                let first_channel = (range.start / plane) as u16;
                let last_channel = ((end - 1) / plane) as u16;
                for oc in first_channel..=last_channel {
                    for ky in 0..*kernel {
                        for kx in 0..*kernel {
                            let oy = i32::from(event.y) + half - i32::from(ky);
                            let ox = i32::from(event.x) + half - i32::from(kx);
                            if oy < 0
                                || ox < 0
                                || oy >= i32::from(input.height)
                                || ox >= i32::from(input.width)
                            {
                                continue;
                            }
                            let neuron = out_shape.index(oc, oy as u16, ox as u16);
                            if !range.contains(&neuron) {
                                continue;
                            }
                            let w_idx = ((usize::from(oc) * usize::from(input.channels)
                                + usize::from(event.ch))
                                * usize::from(*kernel)
                                + usize::from(ky))
                                * usize::from(*kernel)
                                + usize::from(kx);
                            out.push(Contribution {
                                neuron,
                                weight: weights[w_idx],
                            });
                        }
                    }
                }
            }
            Self::Dense {
                input,
                outputs,
                weights,
                ..
            } => {
                let in_idx = input.index(event.ch, event.y, event.x);
                let inputs = input.len();
                // Dense neurons are laid out contiguously: the range *is* the
                // set of addressed outputs.
                for o in range.start..range.end.min(usize::from(*outputs)) {
                    out.push(Contribution {
                        neuron: o,
                        weight: weights[o * inputs + in_idx],
                    });
                }
            }
        }
    }

    /// All contributions of an event (no range restriction). Test-only, like
    /// [`LayerMapping::contributions_in_range`].
    #[cfg(test)]
    #[must_use]
    pub fn contributions(&self, event: &Event) -> Vec<Contribution> {
        self.contributions_in_range(event, 0..self.total_output_neurons())
    }

    /// Output position `(channel, y, x)` of a global output-neuron index.
    #[must_use]
    pub fn output_position(&self, neuron: usize) -> (u16, u16, u16) {
        self.output_shape().position(neuron)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_mapping() -> LayerMapping {
        // 1 input channel, 4x4 map, 2 output channels, 3x3 kernel.
        // Kernel of output channel 0 is all ones; channel 1 all twos.
        let mut weights = vec![1i8; 9];
        weights.extend(vec![2i8; 9]);
        LayerMapping::conv(
            MapShape::new(1, 4, 4),
            2,
            3,
            weights,
            LifHardwareParams {
                leak: 0,
                threshold: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn conv_mapping_validates_geometry() {
        assert!(LayerMapping::conv(
            MapShape::new(1, 4, 4),
            2,
            3,
            vec![0; 5],
            LifHardwareParams::default()
        )
        .is_err());
        assert!(LayerMapping::conv(
            MapShape::new(1, 4, 4),
            2,
            2,
            vec![0; 8],
            LifHardwareParams::default()
        )
        .is_err());
        assert!(LayerMapping::conv(
            MapShape::new(0, 4, 4),
            2,
            3,
            vec![],
            LifHardwareParams::default()
        )
        .is_err());
    }

    #[test]
    fn dense_mapping_validates_geometry() {
        assert!(LayerMapping::dense(
            MapShape::new(1, 2, 2),
            3,
            vec![0; 12],
            LifHardwareParams::default()
        )
        .is_ok());
        assert!(LayerMapping::dense(
            MapShape::new(1, 2, 2),
            3,
            vec![0; 11],
            LifHardwareParams::default()
        )
        .is_err());
        assert!(LayerMapping::dense(
            MapShape::new(1, 2, 2),
            0,
            vec![],
            LifHardwareParams::default()
        )
        .is_err());
    }

    #[test]
    fn shapes_and_neuron_counts() {
        let m = conv_mapping();
        assert_eq!(m.input_shape(), MapShape::new(1, 4, 4));
        assert_eq!(m.output_shape(), MapShape::new(2, 4, 4));
        assert_eq!(m.total_output_neurons(), 32);
        assert_eq!(m.weight_sets(), 1);
        assert_eq!(m.params().threshold, 4);
    }

    #[test]
    fn map_shape_index_round_trips() {
        let s = MapShape::new(3, 4, 5);
        for c in 0..3 {
            for y in 0..4 {
                for x in 0..5 {
                    assert_eq!(s.position(s.index(c, y, x)), (c, y, x));
                }
            }
        }
    }

    #[test]
    fn centre_event_touches_full_receptive_field() {
        let m = conv_mapping();
        let event = Event::update(0, 0, 2, 2);
        let contributions = m.contributions(&event);
        // 9 positions per output channel, 2 channels.
        assert_eq!(contributions.len(), 18);
        assert!(contributions.iter().all(|c| c.weight == 1 || c.weight == 2));
        let ch0 = contributions.iter().filter(|c| c.weight == 1).count();
        assert_eq!(ch0, 9);
    }

    #[test]
    fn corner_event_touches_fewer_neurons() {
        let m = conv_mapping();
        let event = Event::update(0, 0, 0, 0);
        assert_eq!(m.contributions(&event).len(), 4 * 2);
    }

    #[test]
    fn range_restriction_filters_neurons() {
        let m = conv_mapping();
        let event = Event::update(0, 0, 2, 2);
        // Output channel 0 occupies neurons 0..16, channel 1 16..32.
        let first_channel = m.contributions_in_range(&event, 0..16);
        assert_eq!(first_channel.len(), 9);
        assert!(first_channel.iter().all(|c| c.weight == 1));
        let second_channel = m.contributions_in_range(&event, 16..32);
        assert_eq!(second_channel.len(), 9);
        assert!(second_channel.iter().all(|c| c.weight == 2));
    }

    #[test]
    fn empty_and_out_of_layer_ranges_yield_no_contributions() {
        let m = conv_mapping();
        let event = Event::update(0, 0, 2, 2);
        assert!(m.contributions_in_range(&event, 5..5).is_empty());
        assert!(m.contributions_in_range(&event, 40..64).is_empty());
        // An over-wide range behaves like the full layer (no u16 wrap-around
        // in the channel narrowing).
        assert_eq!(
            m.contributions_in_range(&event, 0..usize::MAX),
            m.contributions(&event)
        );
        // A range straddling the channel boundary picks up both planes: the
        // centre event touches position 5 of each 16-neuron plane.
        let straddling = m.contributions_in_range(&event, 5..22);
        assert!(straddling.iter().any(|c| c.weight == 1));
        assert!(straddling.iter().any(|c| c.neuron == 21 && c.weight == 2));
        assert!(straddling.iter().all(|c| (5..22).contains(&c.neuron)));
    }

    #[test]
    fn contributions_into_appends_to_a_reused_buffer() {
        let m = conv_mapping();
        let event = Event::update(0, 0, 2, 2);
        let mut buffer = vec![Contribution {
            neuron: 999,
            weight: 0,
        }];
        m.contributions_in_range_into(&event, 0..16, &mut buffer);
        assert_eq!(buffer.len(), 10);
        assert_eq!(buffer[0].neuron, 999);
        assert_eq!(&buffer[1..], m.contributions_in_range(&event, 0..16));
    }

    #[test]
    fn dense_contributions_cover_all_outputs() {
        let weights: Vec<i8> = (0..12).map(|i| (i % 5) as i8 - 2).collect();
        let m = LayerMapping::dense(
            MapShape::new(1, 2, 2),
            3,
            weights.clone(),
            LifHardwareParams::default(),
        )
        .unwrap();
        let event = Event::update(0, 0, 1, 0); // flattened input index 1
        let contributions = m.contributions(&event);
        assert_eq!(contributions.len(), 3);
        for (o, c) in contributions.iter().enumerate() {
            assert_eq!(c.neuron, o);
            assert_eq!(c.weight, weights[o * 4 + 1]);
        }
        assert_eq!(m.weight_sets(), 4);
    }

    #[test]
    fn event_validation_checks_input_shape() {
        let m = conv_mapping();
        assert!(m.validate_event(&Event::update(0, 0, 3, 3)).is_ok());
        assert!(m.validate_event(&Event::update(0, 0, 4, 0)).is_err());
        assert!(m.validate_event(&Event::update(0, 1, 0, 0)).is_err());
    }

    #[test]
    fn output_position_maps_back_to_channel_row_col() {
        let m = conv_mapping();
        assert_eq!(m.output_position(0), (0, 0, 0));
        assert_eq!(m.output_position(17), (1, 0, 1));
    }
}
