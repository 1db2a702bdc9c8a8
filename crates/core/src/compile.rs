//! Compilation of eCNN networks onto the accelerator.
//!
//! Compilation turns a network description into a sequence of [`Stage`]s:
//! convolution and fully-connected layers become [`LayerMapping`]s executed
//! by the cycle simulator (the SNE accelerates stateful layers), while
//! pooling stages — which have neither weights nor neuron state — are folded
//! into the event stream between accelerated layers, exactly as a host
//! processor would reshape the intermediate feature maps stored in memory
//! between SNE invocations (time-multiplexed mapping mode, paper §III-D.5).

use rand::Rng;
use serde::{Deserialize, Serialize};

use sne_model::quant::QuantizedWeights;
use sne_model::tensor::Shape;
use sne_model::topology::{StageSpec, Topology};
use sne_model::train::{RateLayer, RateNetwork};
use sne_sim::mapping::{LayerMapping, LifHardwareParams, MapShape};
use sne_sim::plan::LayerPlan;

use crate::SneError;

/// One stage of a compiled network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// A layer executed on the SNE.
    Accelerated {
        /// The hardware mapping of the layer.
        mapping: LayerMapping,
        /// Human-readable description (e.g. `conv 2x32,3x3`).
        description: String,
    },
    /// A pooling stage folded into the intermediate event stream.
    Pool {
        /// Pooling window.
        window: u16,
        /// Input shape of the pooling stage.
        input: (u16, u16, u16),
    },
}

impl Stage {
    /// Returns the mapping if this stage runs on the accelerator.
    #[must_use]
    pub fn mapping(&self) -> Option<&LayerMapping> {
        match self {
            Stage::Accelerated { mapping, .. } => Some(mapping),
            Stage::Pool { .. } => None,
        }
    }
}

/// A network compiled for the SNE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledNetwork {
    input_shape: (u16, u16, u16),
    output_classes: u16,
    stages: Vec<Stage>,
    /// Per accelerated layer: the quantization scale used (1.0 for networks
    /// generated directly on the integer grid).
    scales: Vec<f32>,
}

impl CompiledNetwork {
    /// Compiles a trained floating-point rate network: every stateful layer
    /// is quantized to the 4-bit grid with max-abs calibration and its firing
    /// threshold is set to `round(1/scale)` (the same conversion as
    /// [`sne_model::train::to_lif_network`], so the accelerator executes the
    /// `SNE-LIF-4b` variant of the trained network).
    ///
    /// # Errors
    ///
    /// Propagates mapping construction errors.
    pub fn from_rate_network(rate: &RateNetwork) -> Result<Self, SneError> {
        let input = rate.input_shape();
        let mut stages = Vec::new();
        let mut scales = Vec::new();
        let mut classes = input.channels;
        for layer in rate.layers() {
            match layer {
                RateLayer::Conv {
                    in_shape,
                    out_channels,
                    kernel,
                    weights,
                    ..
                } => {
                    let q = QuantizedWeights::from_floats(weights);
                    let params = LifHardwareParams {
                        leak: 0,
                        threshold: threshold_from_scale(q.scale),
                    };
                    let mapping = LayerMapping::conv(
                        map_shape(*in_shape),
                        *out_channels,
                        *kernel,
                        q.values.clone(),
                        params,
                    )?;
                    stages.push(Stage::Accelerated {
                        description: format!(
                            "conv {}x{},{kernel}x{kernel}",
                            in_shape.channels, out_channels
                        ),
                        mapping,
                    });
                    scales.push(q.scale);
                    classes = *out_channels;
                }
                RateLayer::Pool { in_shape, window } => {
                    stages.push(Stage::Pool {
                        window: *window,
                        input: in_shape.as_tuple(),
                    });
                }
                RateLayer::Dense {
                    in_shape,
                    outputs,
                    weights,
                    ..
                } => {
                    let q = QuantizedWeights::from_floats(weights);
                    let params = LifHardwareParams {
                        leak: 0,
                        threshold: threshold_from_scale(q.scale),
                    };
                    let mapping = LayerMapping::dense(
                        map_shape(*in_shape),
                        *outputs,
                        q.values.clone(),
                        params,
                    )?;
                    stages.push(Stage::Accelerated {
                        description: format!("fc {}x{}", in_shape.len(), outputs),
                        mapping,
                    });
                    scales.push(q.scale);
                    classes = *outputs;
                }
            }
        }
        if stages.iter().all(|s| s.mapping().is_none()) {
            return Err(SneError::EmptyNetwork);
        }
        Ok(Self {
            input_shape: input.as_tuple(),
            output_classes: classes,
            stages,
            scales,
        })
    }

    /// Compiles a topology with random integer weights on the 4-bit grid —
    /// useful for exercising the accelerator and the benchmarks without a
    /// training run.
    ///
    /// # Errors
    ///
    /// Propagates topology shape errors and mapping construction errors.
    pub fn random<R: Rng>(topology: &Topology, rng: &mut R) -> Result<Self, SneError> {
        let shapes = topology.shapes().map_err(SneError::from)?;
        let mut stages = Vec::new();
        let mut scales = Vec::new();
        let mut classes = topology.input.channels;
        for (spec, in_shape) in topology.stages.iter().zip(shapes.iter()) {
            match *spec {
                StageSpec::Conv {
                    out_channels,
                    kernel,
                } => {
                    let count = usize::from(out_channels)
                        * usize::from(in_shape.channels)
                        * usize::from(kernel)
                        * usize::from(kernel);
                    let weights: Vec<i8> = (0..count).map(|_| rng.gen_range(-2i8..=4)).collect();
                    let params = LifHardwareParams {
                        leak: 1,
                        threshold: 8,
                    };
                    let mapping = LayerMapping::conv(
                        map_shape(*in_shape),
                        out_channels,
                        kernel,
                        weights,
                        params,
                    )?;
                    stages.push(Stage::Accelerated {
                        description: format!(
                            "conv {}x{out_channels},{kernel}x{kernel}",
                            in_shape.channels
                        ),
                        mapping,
                    });
                    scales.push(1.0);
                    classes = out_channels;
                }
                StageSpec::Pool { window } => {
                    stages.push(Stage::Pool {
                        window,
                        input: in_shape.as_tuple(),
                    });
                }
                StageSpec::Dense { outputs } => {
                    let count = usize::from(outputs) * in_shape.len();
                    let weights: Vec<i8> = (0..count).map(|_| rng.gen_range(-2i8..=4)).collect();
                    let params = LifHardwareParams {
                        leak: 1,
                        threshold: 8,
                    };
                    let mapping =
                        LayerMapping::dense(map_shape(*in_shape), outputs, weights, params)?;
                    stages.push(Stage::Accelerated {
                        description: format!("fc {}x{outputs}", in_shape.len()),
                        mapping,
                    });
                    scales.push(1.0);
                    classes = outputs;
                }
            }
        }
        if stages.iter().all(|s| s.mapping().is_none()) {
            return Err(SneError::EmptyNetwork);
        }
        Ok(Self {
            input_shape: topology.input.as_tuple(),
            output_classes: classes,
            stages,
            scales,
        })
    }

    /// Reassembles a network from its decoded parts (the snapshot restore
    /// path), applying the same "at least one accelerated stage" invariant
    /// as the compilers.
    pub(crate) fn from_parts(
        input_shape: (u16, u16, u16),
        output_classes: u16,
        stages: Vec<Stage>,
        scales: Vec<f32>,
    ) -> Result<Self, SneError> {
        if stages.iter().all(|s| s.mapping().is_none()) {
            return Err(SneError::EmptyNetwork);
        }
        Ok(Self {
            input_shape,
            output_classes,
            stages,
            scales,
        })
    }

    /// Input shape expected by the network, `(channels, height, width)`.
    #[must_use]
    pub fn input_shape(&self) -> (u16, u16, u16) {
        self.input_shape
    }

    /// Number of output classes (neurons of the final layer).
    #[must_use]
    pub fn output_classes(&self) -> u16 {
        self.output_classes
    }

    /// The compiled stages in execution order.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Per-accelerated-layer quantization scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of accelerated (stateful) layers.
    #[must_use]
    pub fn accelerated_layers(&self) -> usize {
        self.stages.iter().filter(|s| s.mapping().is_some()).count()
    }

    /// Compiles the sparse-datapath contribution tables ([`LayerPlan`]) of
    /// every accelerated stage, in stage order — the configure-time half of
    /// the compile-once/run-many split. Sessions build the plans once and
    /// share them (read-only) across timesteps, chunks, batch lanes and
    /// worker threads; the engine verifies each plan against its mapping on
    /// every run.
    #[must_use]
    pub fn build_plans(&self) -> Vec<LayerPlan> {
        self.stages
            .iter()
            .filter_map(Stage::mapping)
            .map(LayerPlan::build)
            .collect()
    }

    /// Total number of neurons mapped onto the accelerator.
    #[must_use]
    pub fn total_neurons(&self) -> usize {
        self.stages
            .iter()
            .filter_map(Stage::mapping)
            .map(LayerMapping::total_output_neurons)
            .sum()
    }

    /// Rebuilds the equivalent golden-model spiking network (quantized LIF
    /// dynamics), used by the verification tests to check that the simulator
    /// and the functional model agree bit-exactly.
    ///
    /// # Errors
    ///
    /// Propagates layer construction errors.
    pub fn golden_network(&self) -> Result<sne_model::Network, SneError> {
        use sne_model::layer::{ConvLayer, DenseLayer, NeuronConfig, PoolLayer};
        use sne_model::neuron::LifParams;

        let (c, h, w) = self.input_shape;
        let mut network = sne_model::Network::new(Shape::new(c, h, w));
        for stage in &self.stages {
            match stage {
                Stage::Pool { window, input } => {
                    let shape = Shape::new(input.0, input.1, input.2);
                    network.push(PoolLayer::new(shape, *window).map_err(SneError::from)?)?;
                }
                Stage::Accelerated { mapping, .. } => match mapping {
                    LayerMapping::Conv {
                        input,
                        out_channels,
                        kernel,
                        weights,
                        params,
                    } => {
                        let shape = Shape::new(input.channels, input.height, input.width);
                        let config = NeuronConfig::Lif(LifParams {
                            leak: params.leak,
                            threshold: params.threshold,
                            ..LifParams::default()
                        });
                        let mut layer = ConvLayer::new(shape, *out_channels, *kernel, config)
                            .map_err(SneError::from)?;
                        layer
                            .set_weights(weights.iter().map(|&v| f32::from(v)).collect())
                            .map_err(SneError::from)?;
                        network.push(layer)?;
                    }
                    LayerMapping::Dense {
                        input,
                        outputs,
                        weights,
                        params,
                    } => {
                        let shape = Shape::new(input.channels, input.height, input.width);
                        let config = NeuronConfig::Lif(LifParams {
                            leak: params.leak,
                            threshold: params.threshold,
                            ..LifParams::default()
                        });
                        let mut layer =
                            DenseLayer::new(shape, *outputs, config).map_err(SneError::from)?;
                        layer
                            .set_weights(weights.iter().map(|&v| f32::from(v)).collect())
                            .map_err(SneError::from)?;
                        network.push(layer)?;
                    }
                },
            }
        }
        Ok(network)
    }
}

fn map_shape(shape: Shape) -> MapShape {
    MapShape::new(shape.channels, shape.height, shape.width)
}

fn threshold_from_scale(scale: f32) -> i16 {
    (1.0 / scale.max(f32::MIN_POSITIVE))
        .round()
        .clamp(1.0, 127.0) as i16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topology() -> Topology {
        Topology::tiny(Shape::new(2, 8, 8), 4, 3)
    }

    #[test]
    fn random_compilation_produces_stages_for_every_topology_stage() {
        let mut rng = StdRng::seed_from_u64(1);
        let compiled = CompiledNetwork::random(&topology(), &mut rng).unwrap();
        assert_eq!(compiled.stages().len(), 3);
        assert_eq!(compiled.accelerated_layers(), 2);
        assert_eq!(compiled.input_shape(), (2, 8, 8));
        assert_eq!(compiled.output_classes(), 3);
        assert!(compiled.total_neurons() > 0);
    }

    #[test]
    fn rate_network_compilation_quantizes_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let rate = RateNetwork::from_topology(&topology(), &mut rng).unwrap();
        let compiled = CompiledNetwork::from_rate_network(&rate).unwrap();
        assert_eq!(compiled.accelerated_layers(), 2);
        assert_eq!(compiled.scales().len(), 2);
        assert!(compiled.scales().iter().all(|&s| s > 0.0));
        // Quantized weights are on the 4-bit grid.
        for stage in compiled.stages() {
            if let Some(LayerMapping::Conv { weights, .. } | LayerMapping::Dense { weights, .. }) =
                stage.mapping()
            {
                assert!(weights.iter().all(|&w| (-8..=7).contains(&w)));
            }
        }
    }

    #[test]
    fn golden_network_has_matching_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let compiled = CompiledNetwork::random(&topology(), &mut rng).unwrap();
        let golden = compiled.golden_network().unwrap();
        assert_eq!(golden.output_shape().as_tuple(), (3, 1, 1));
        assert_eq!(golden.len(), 3);
    }

    #[test]
    fn pooling_only_topologies_are_rejected() {
        let pool_only = Topology {
            input: Shape::new(2, 8, 8),
            stages: vec![StageSpec::Pool { window: 2 }],
        };
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            CompiledNetwork::random(&pool_only, &mut rng),
            Err(SneError::EmptyNetwork)
        ));
    }

    #[test]
    fn networks_compile_into_serving_artifacts() {
        let mut rng = StdRng::seed_from_u64(6);
        let compiled = CompiledNetwork::random(&topology(), &mut rng).unwrap();
        let layers = compiled.accelerated_layers();
        let artifact =
            crate::artifact::RuntimeArtifact::new(compiled, sne_sim::SneConfig::with_slices(2))
                .unwrap();
        assert_eq!(artifact.plans().len(), layers);
        assert_eq!(artifact.config().num_slices, 2);
    }

    #[test]
    fn fig6_topology_compiles() {
        let mut rng = StdRng::seed_from_u64(5);
        let topology = Topology::paper_fig6(Shape::new(2, 32, 32), 11);
        let compiled = CompiledNetwork::random(&topology, &mut rng).unwrap();
        assert_eq!(compiled.accelerated_layers(), 4);
        assert_eq!(compiled.output_classes(), 11);
    }
}
