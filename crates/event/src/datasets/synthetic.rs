//! Parametric motion-pattern event generator.
//!
//! This is the low-level generator the gesture and digit datasets are built
//! on: it renders a moving bright "object" (bar, blob or arc) and emits
//! events where the simulated brightness changes between consecutive
//! timesteps, which is exactly how an event-based vision sensor produces its
//! output (ON events on rising edges, OFF events on falling edges).

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{sample_rng, EventDataset, LabeledStream};
use crate::stream::{EventStream, Geometry};
use crate::Event;

/// A parametric spatio-temporal motion pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MotionPattern {
    /// A vertical bar translating horizontally with the given speed
    /// (pixels per timestep, may be negative).
    TranslatingBar {
        /// Horizontal speed in pixels per timestep.
        speed: f64,
        /// Bar width in pixels.
        width: u16,
    },
    /// A circular blob orbiting the image centre.
    OrbitingBlob {
        /// Angular speed in radians per timestep.
        angular_speed: f64,
        /// Orbit radius as a fraction of the half-image size (0..1).
        radius_fraction: f64,
        /// Blob radius in pixels.
        blob_radius: u16,
    },
    /// A blob oscillating vertically (e.g. hand waving up/down).
    OscillatingBlob {
        /// Oscillation period in timesteps.
        period: f64,
        /// Peak-to-peak amplitude as a fraction of the image height.
        amplitude_fraction: f64,
        /// Blob radius in pixels.
        blob_radius: u16,
    },
    /// Two blobs approaching and separating periodically (e.g. hand clap).
    ConvergingBlobs {
        /// Period of the approach/separation cycle in timesteps.
        period: f64,
        /// Blob radius in pixels.
        blob_radius: u16,
    },
    /// An expanding/contracting ring (e.g. arm roll seen frontally).
    PulsingRing {
        /// Period of the expansion cycle in timesteps.
        period: f64,
        /// Maximum ring radius as a fraction of the half-image size.
        max_radius_fraction: f64,
    },
    /// Uniform random flicker covering the whole frame (a "none/other" class).
    RandomFlicker {
        /// Per-position per-timestep event probability.
        rate: f64,
    },
}

impl MotionPattern {
    /// Simulated object intensity at position `(x, y)` and time `t`, in `[0, 1]`.
    ///
    /// The generator emits an event when the thresholded intensity changes
    /// between `t-1` and `t` — ON events (channel 0) for rising edges, OFF
    /// events (channel 1) for falling edges — mimicking a DVS pixel.
    #[must_use]
    pub fn intensity(&self, geometry: Geometry, x: u16, y: u16, t: u32, phase: f64) -> f64 {
        let w = f64::from(geometry.width);
        let h = f64::from(geometry.height);
        let (xf, yf, tf) = (f64::from(x), f64::from(y), f64::from(t));
        match *self {
            MotionPattern::TranslatingBar { speed, width } => {
                let center = (phase * w + speed * tf).rem_euclid(w);
                let dist = (xf - center).abs().min(w - (xf - center).abs());
                if dist <= f64::from(width) / 2.0 {
                    1.0
                } else {
                    0.0
                }
            }
            MotionPattern::OrbitingBlob {
                angular_speed,
                radius_fraction,
                blob_radius,
            } => {
                let angle = phase * std::f64::consts::TAU + angular_speed * tf;
                let cx = w / 2.0 + radius_fraction * (w / 2.0) * angle.cos();
                let cy = h / 2.0 + radius_fraction * (h / 2.0) * angle.sin();
                blob(xf, yf, cx, cy, f64::from(blob_radius))
            }
            MotionPattern::OscillatingBlob {
                period,
                amplitude_fraction,
                blob_radius,
            } => {
                let cy = h / 2.0
                    + amplitude_fraction
                        * (h / 2.0)
                        * (std::f64::consts::TAU * (tf / period + phase)).sin();
                let cx = w / 2.0;
                blob(xf, yf, cx, cy, f64::from(blob_radius))
            }
            MotionPattern::ConvergingBlobs {
                period,
                blob_radius,
            } => {
                let sep =
                    (w / 4.0) * (1.0 + (std::f64::consts::TAU * (tf / period + phase)).cos()) / 2.0;
                let cy = h / 2.0;
                let left = blob(xf, yf, w / 2.0 - sep - 1.0, cy, f64::from(blob_radius));
                let right = blob(xf, yf, w / 2.0 + sep + 1.0, cy, f64::from(blob_radius));
                left.max(right)
            }
            MotionPattern::PulsingRing {
                period,
                max_radius_fraction,
            } => {
                let radius = max_radius_fraction
                    * (w.min(h) / 2.0)
                    * (0.5 + 0.5 * (std::f64::consts::TAU * (tf / period + phase)).sin());
                let dist = ((xf - w / 2.0).powi(2) + (yf - h / 2.0).powi(2)).sqrt();
                if (dist - radius).abs() <= 1.5 {
                    1.0
                } else {
                    0.0
                }
            }
            MotionPattern::RandomFlicker { .. } => 0.0,
        }
    }

    /// Renders the pattern into an event stream.
    #[must_use]
    pub fn render<R: Rng>(&self, geometry: Geometry, phase: f64, rng: &mut R) -> EventStream {
        let mut stream = EventStream::with_geometry(geometry);
        if let MotionPattern::RandomFlicker { rate } = *self {
            for t in 0..geometry.timesteps {
                for y in 0..geometry.height {
                    for x in 0..geometry.width {
                        if rng.gen::<f64>() < rate {
                            let ch = u16::from(rng.gen::<bool>()) % geometry.channels;
                            stream.push_unchecked(Event::update(t, ch, x, y));
                        }
                    }
                }
            }
            return stream;
        }

        let mut previous = vec![false; geometry.spatial_size()];
        for t in 0..geometry.timesteps {
            for y in 0..geometry.height {
                for x in 0..geometry.width {
                    let idx = usize::from(y) * usize::from(geometry.width) + usize::from(x);
                    let bright = self.intensity(geometry, x, y, t, phase) > 0.5;
                    if bright != previous[idx] {
                        // ON events on channel 0, OFF events on channel 1 when present.
                        let ch = if bright { 0 } else { 1 % geometry.channels };
                        stream.push_unchecked(Event::update(t, ch, x, y));
                    }
                    previous[idx] = bright;
                }
            }
        }
        stream
    }
}

fn blob(x: f64, y: f64, cx: f64, cy: f64, radius: f64) -> f64 {
    let dist = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
    if dist <= radius {
        1.0
    } else {
        0.0
    }
}

/// A sample produced by [`PatternDataset`]: pattern identity plus its stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternSample {
    /// The labeled event stream.
    pub labeled: LabeledStream,
    /// The random phase used by the generator (useful for debugging).
    pub phase: f64,
}

/// A dataset whose classes are distinct [`MotionPattern`]s.
///
/// # Example
///
/// ```
/// use sne_event::datasets::{EventDataset, MotionPattern, PatternDataset};
///
/// let dataset = PatternDataset::new(
///     32, 32, 2, 50,
///     vec![
///         MotionPattern::TranslatingBar { speed: 1.0, width: 3 },
///         MotionPattern::OrbitingBlob { angular_speed: 0.2, radius_fraction: 0.6, blob_radius: 3 },
///     ],
///     7,
/// );
/// let sample = dataset.sample(0);
/// assert!(sample.stream.spike_count() > 0);
/// assert!(sample.label < dataset.num_classes());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternDataset {
    geometry: Geometry,
    patterns: Vec<MotionPattern>,
    seed: u64,
}

impl PatternDataset {
    /// Creates a dataset over the given patterns (one class per pattern).
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or the geometry has a zero dimension.
    #[must_use]
    pub fn new(
        width: u16,
        height: u16,
        channels: u16,
        timesteps: u32,
        patterns: Vec<MotionPattern>,
        seed: u64,
    ) -> Self {
        assert!(
            !patterns.is_empty(),
            "a pattern dataset needs at least one class"
        );
        let geometry = Geometry::new(width, height, channels, timesteps)
            .expect("pattern dataset geometry must be non-zero");
        Self {
            geometry,
            patterns,
            seed,
        }
    }

    /// Generates a sample together with its generator phase.
    #[must_use]
    pub fn sample_with_phase(&self, index: u64) -> PatternSample {
        let mut rng = sample_rng(self.seed, index);
        let label = (index % self.patterns.len() as u64) as usize;
        let phase: f64 = rng.gen();
        let stream = self.patterns[label].render(self.geometry, phase, &mut rng);
        PatternSample {
            labeled: LabeledStream { stream, label },
            phase,
        }
    }
}

impl EventDataset for PatternDataset {
    fn num_classes(&self) -> usize {
        self.patterns.len()
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn sample(&self, index: u64) -> LabeledStream {
        self.sample_with_phase(index).labeled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometry() -> Geometry {
        Geometry::new(32, 32, 2, 40).unwrap()
    }

    fn patterns() -> Vec<MotionPattern> {
        vec![
            MotionPattern::TranslatingBar {
                speed: 1.0,
                width: 3,
            },
            MotionPattern::OrbitingBlob {
                angular_speed: 0.25,
                radius_fraction: 0.6,
                blob_radius: 3,
            },
            MotionPattern::OscillatingBlob {
                period: 20.0,
                amplitude_fraction: 0.7,
                blob_radius: 3,
            },
            MotionPattern::ConvergingBlobs {
                period: 20.0,
                blob_radius: 3,
            },
            MotionPattern::PulsingRing {
                period: 20.0,
                max_radius_fraction: 0.8,
            },
        ]
    }

    #[test]
    fn every_pattern_produces_events() {
        let mut rng = StdRng::seed_from_u64(9);
        for p in patterns() {
            let stream = p.render(geometry(), 0.3, &mut rng);
            assert!(stream.spike_count() > 0, "pattern {p:?} produced no events");
            assert!(stream.validate_all().is_ok());
            assert!(stream.is_time_ordered());
        }
    }

    #[test]
    fn flicker_rate_controls_activity() {
        let mut rng = StdRng::seed_from_u64(11);
        let sparse = MotionPattern::RandomFlicker { rate: 0.01 }.render(geometry(), 0.0, &mut rng);
        let dense = MotionPattern::RandomFlicker { rate: 0.2 }.render(geometry(), 0.0, &mut rng);
        assert!(dense.spike_count() > sparse.spike_count());
    }

    #[test]
    fn samples_are_deterministic() {
        let dataset = PatternDataset::new(32, 32, 2, 40, patterns(), 123);
        let a = dataset.sample(5);
        let b = dataset.sample(5);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let dataset = PatternDataset::new(32, 32, 2, 40, patterns(), 123);
        for i in 0..10u64 {
            assert_eq!(dataset.sample(i).label, (i % 5) as usize);
        }
    }

    #[test]
    fn different_indices_give_different_streams() {
        let dataset = PatternDataset::new(32, 32, 2, 40, patterns(), 123);
        let a = dataset.sample(0);
        let b = dataset.sample(5); // same class (5 % 5 == 0), different phase
        assert_eq!(a.label, b.label);
        assert_ne!(a.stream, b.stream);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_pattern_list_panics() {
        let _ = PatternDataset::new(32, 32, 2, 40, Vec::new(), 1);
    }

    #[test]
    fn translating_bar_moves_over_time() {
        let p = MotionPattern::TranslatingBar {
            speed: 1.0,
            width: 2,
        };
        let g = geometry();
        // The bar centre at phase 0 starts at x = 0 and moves right.
        assert!(p.intensity(g, 0, 0, 0, 0.0) > 0.5);
        assert!(p.intensity(g, 10, 0, 10, 0.0) > 0.5);
        assert!(p.intensity(g, 20, 0, 0, 0.0) < 0.5);
    }
}
