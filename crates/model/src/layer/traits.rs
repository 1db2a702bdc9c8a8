//! Common layer behaviour.

use serde::{Deserialize, Serialize};

use crate::neuron::{LifParams, SrmParams};
use crate::tensor::{Frame, Shape};

/// Which neuron dynamics a stateful layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NeuronConfig {
    /// Quantized linear-leak LIF neurons (the SNE hardware neuron).
    Lif(LifParams),
    /// SRM baseline neurons (the SLAYER reference).
    Srm(SrmParams),
}

impl NeuronConfig {
    /// Default quantized LIF configuration used by the hardware golden model.
    #[must_use]
    pub fn default_lif() -> Self {
        NeuronConfig::Lif(LifParams::default())
    }
}

/// Coarse classification of a layer, used for reporting and mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution with stateful neurons.
    Convolution,
    /// Spatial max (OR) pooling, stateless.
    Pooling,
    /// Fully-connected layer with stateful neurons.
    Dense,
}

/// A stateful, event-driven network layer processed one timestep at a time.
pub trait EventLayer {
    /// Shape of the input frames this layer accepts.
    fn input_shape(&self) -> Shape;

    /// Shape of the output frames this layer produces.
    fn output_shape(&self) -> Shape;

    /// Processes one timestep: integrates the input spikes, advances the
    /// neuron dynamics and returns the output spikes of this timestep.
    fn step(&mut self, input: &Frame) -> Frame;

    /// Resets all neuron state (the `RST_OP` of the SNE).
    fn reset(&mut self);

    /// Number of synaptic operations (membrane accumulations) that processing
    /// `input` costs. This is the SOP count of the paper's performance metric.
    fn synaptic_ops(&self, input: &Frame) -> u64;

    /// Number of (output) neurons implemented by the layer.
    fn num_neurons(&self) -> usize;

    /// Kind of the layer.
    fn kind(&self) -> LayerKind;

    /// Human-readable description (e.g. `conv 2x32 3x3`).
    fn describe(&self) -> String;
}
