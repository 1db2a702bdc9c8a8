//! Synthetic event-based datasets.
//!
//! The paper evaluates accuracy on the IBM DVS-Gesture and NMNIST datasets.
//! Neither dataset can be redistributed with this reproduction, so this
//! module provides parametric generators with the same geometry, class count
//! and — crucially for the energy experiments — the same *activity range*
//! (1.2 %–4.9 % for DVS-Gesture, paper §IV-B). The classification tasks are
//! non-trivial (classes are distinguished by spatio-temporal motion
//! patterns), so they exercise the same training and inference code paths the
//! paper exercises, but the absolute accuracy numbers are reported as
//! "synthetic surrogate" results (see `EXPERIMENTS.md`).

mod gesture;
mod nmnist;
mod synthetic;

pub use gesture::{GestureClass, GestureDataset};
pub use nmnist::{NmnistDataset, SaccadeDigit};
pub use synthetic::{MotionPattern, PatternDataset, PatternSample};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::stream::{EventStream, Geometry};

/// An event stream paired with its class label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledStream {
    /// The event stream of this sample.
    pub stream: EventStream,
    /// Class label in `0..dataset.num_classes()`.
    pub label: usize,
}

/// A generator of labeled event streams.
///
/// Implementors are deterministic given `(seed, index)`, which makes the
/// train/validation/test splits reproducible without storing any data.
pub trait EventDataset {
    /// Number of classes of the classification task.
    fn num_classes(&self) -> usize;

    /// Geometry of every generated sample.
    fn geometry(&self) -> Geometry;

    /// Generates the `index`-th sample. The label cycles through the classes
    /// so that any contiguous index range is approximately class-balanced.
    fn sample(&self, index: u64) -> LabeledStream;

    /// Generates `count` samples starting at `start`.
    fn samples(&self, start: u64, count: u64) -> Vec<LabeledStream> {
        (start..start + count).map(|i| self.sample(i)).collect()
    }
}

/// Derives a per-sample RNG from a dataset seed and a sample index, so that
/// sample `i` is always identical regardless of generation order.
pub(crate) fn sample_rng(seed: u64, index: u64) -> StdRng {
    // SplitMix64-style mixing of (seed, index) into a 64-bit stream seed.
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_rng_is_deterministic_per_index() {
        use rand::Rng;
        let a: u64 = sample_rng(42, 7).gen();
        let b: u64 = sample_rng(42, 7).gen();
        let c: u64 = sample_rng(42, 8).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
