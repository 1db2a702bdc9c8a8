//! Accuracy evaluation and activity measurement.

use serde::{Deserialize, Serialize};
use sne_event::datasets::EventDataset;

use crate::network::Network;
use crate::ModelError;

/// Accuracy evaluation over a dataset slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Number of evaluated samples.
    pub samples: usize,
    /// Number of correctly classified samples.
    pub correct: usize,
    /// Mean network activity across samples.
    pub mean_activity: f64,
    /// Minimum per-sample activity observed.
    pub min_activity: f64,
    /// Maximum per-sample activity observed.
    pub max_activity: f64,
    /// Mean synaptic operations per inference.
    pub mean_synaptic_ops: f64,
    /// Mean input spikes per inference.
    pub mean_input_spikes: f64,
    /// Confusion matrix in row-major `[true][predicted]` order.
    pub confusion: Vec<Vec<usize>>,
}

impl Evaluation {
    /// Classification accuracy in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.correct as f64 / self.samples as f64
        }
    }
}

/// Evaluates a network over a contiguous index range of a dataset.
///
/// # Errors
///
/// Propagates [`Network::run`] errors. Returns [`ModelError::EmptyTrainingSet`]
/// if the index range is empty.
pub fn evaluate<D: EventDataset>(
    network: &mut Network,
    dataset: &D,
    indices: std::ops::Range<u64>,
) -> Result<Evaluation, ModelError> {
    if indices.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    let classes = dataset.num_classes();
    let mut confusion = vec![vec![0usize; classes]; classes];
    let mut correct = 0usize;
    let mut samples = 0usize;
    let mut activity_sum = 0.0;
    let mut min_activity = f64::INFINITY;
    let mut max_activity = 0.0f64;
    let mut sop_sum = 0.0;
    let mut input_spike_sum = 0.0;

    for index in indices {
        let sample = dataset.sample(index);
        let result = network.run_stream(&sample.stream)?;
        let predicted = result.predicted_class();
        if predicted == sample.label {
            correct += 1;
        }
        confusion[sample.label][predicted.min(classes - 1)] += 1;
        let activity = result.mean_activity();
        activity_sum += activity;
        min_activity = min_activity.min(activity);
        max_activity = max_activity.max(activity);
        sop_sum += result.total_synaptic_ops as f64;
        input_spike_sum += result.input_spikes as f64;
        samples += 1;
    }

    Ok(Evaluation {
        samples,
        correct,
        mean_activity: activity_sum / samples as f64,
        min_activity,
        max_activity,
        mean_synaptic_ops: sop_sum / samples as f64,
        mean_input_spikes: input_spike_sum / samples as f64,
        confusion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::NeuronConfig;
    use crate::topology::Topology;
    use crate::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_event::datasets::{MotionPattern, PatternDataset};

    fn dataset() -> PatternDataset {
        PatternDataset::new(
            16,
            16,
            2,
            20,
            vec![
                MotionPattern::TranslatingBar {
                    speed: 1.0,
                    width: 2,
                },
                MotionPattern::OrbitingBlob {
                    angular_speed: 0.3,
                    radius_fraction: 0.6,
                    blob_radius: 2,
                },
            ],
            3,
        )
    }

    fn network() -> Network {
        let mut rng = StdRng::seed_from_u64(5);
        Topology::tiny(Shape::new(2, 16, 16), 4, 2)
            .build_random(NeuronConfig::default_lif(), &mut rng)
            .unwrap()
    }

    #[test]
    fn evaluate_builds_a_consistent_confusion_matrix() {
        let mut net = network();
        let eval = evaluate(&mut net, &dataset(), 0..6).unwrap();
        assert_eq!(eval.samples, 6);
        let confusion_total: usize = eval.confusion.iter().flatten().sum();
        assert_eq!(confusion_total, 6);
        assert!(eval.accuracy() >= 0.0 && eval.accuracy() <= 1.0);
        assert!(eval.min_activity <= eval.max_activity);
        assert!(eval.mean_input_spikes > 0.0);
    }

    #[test]
    fn empty_range_is_rejected() {
        let mut net = network();
        assert!(matches!(
            evaluate(&mut net, &dataset(), 5..5),
            Err(ModelError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn evaluation_accuracy_handles_zero_samples() {
        let eval = Evaluation {
            samples: 0,
            correct: 0,
            mean_activity: 0.0,
            min_activity: 0.0,
            max_activity: 0.0,
            mean_synaptic_ops: 0.0,
            mean_input_spikes: 0.0,
            confusion: Vec::new(),
        };
        assert_eq!(eval.accuracy(), 0.0);
    }
}
