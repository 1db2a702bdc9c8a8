//! Sensor noise models for synthetic event streams.
//!
//! Real event-based vision sensors produce background-activity noise (random
//! isolated events), hot pixels (pixels firing far above the mean rate) and
//! timestamp jitter. The synthetic datasets add configurable amounts of each
//! so that the activity statistics driving the energy experiments resemble
//! real DVS recordings rather than perfectly clean trajectories.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::stream::EventStream;
use crate::Event;

/// Configuration of the sensor noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Probability per position per timestep of a spurious background event.
    pub background_rate: f64,
    /// Number of hot pixels (each fires every timestep on a random channel).
    pub hot_pixels: usize,
    /// Maximum absolute timestamp jitter applied to signal events, in timesteps.
    pub jitter: u32,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            background_rate: 1e-4,
            hot_pixels: 0,
            jitter: 0,
        }
    }
}

/// Applies the noise model to a stream, returning a new stream with the same
/// geometry. Signal events are jittered; background and hot-pixel events are
/// added on top. The result is time-sorted.
#[must_use]
pub fn apply_noise<R: Rng>(stream: &EventStream, config: &NoiseConfig, rng: &mut R) -> EventStream {
    let g = stream.geometry();
    let mut out = EventStream::with_geometry(g);

    // Jittered copies of the signal events.
    for e in stream.iter() {
        if !e.is_spike() || config.jitter == 0 {
            out.push_unchecked(*e);
            continue;
        }
        let jitter = rng.gen_range(-(config.jitter as i64)..=config.jitter as i64);
        let t = (i64::from(e.t) + jitter).clamp(0, i64::from(g.timesteps) - 1) as u32;
        out.push_unchecked(Event { t, ..*e });
    }

    // Background activity: Bernoulli per (t, ch, y, x). For efficiency sample
    // the number of noise events from the expected count instead of iterating
    // the full volume when the rate is small.
    if config.background_rate > 0.0 {
        let expected = config.background_rate * g.volume() as f64;
        let count = sample_poisson_like(expected, rng);
        for _ in 0..count {
            let t = rng.gen_range(0..g.timesteps);
            let ch = rng.gen_range(0..g.channels);
            let x = rng.gen_range(0..g.width);
            let y = rng.gen_range(0..g.height);
            out.push_unchecked(Event::update(t, ch, x, y));
        }
    }

    // Hot pixels: fire every timestep at a fixed random location/channel.
    for _ in 0..config.hot_pixels {
        let ch = rng.gen_range(0..g.channels);
        let x = rng.gen_range(0..g.width);
        let y = rng.gen_range(0..g.height);
        for t in 0..g.timesteps {
            out.push_unchecked(Event::update(t, ch, x, y));
        }
    }

    out.sort_by_time();
    out
}

/// Cheap Poisson-like sampler (normal approximation clamped at zero) — good
/// enough for generating noise event counts.
fn sample_poisson_like<R: Rng>(mean: f64, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 16.0 {
        // Direct simulation for small means.
        let mut count = 0usize;
        let l = (-mean).exp();
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                break;
            }
            count += 1;
            if count > 10_000 {
                break;
            }
        }
        count
    } else {
        let std = mean.sqrt();
        // Box–Muller transform.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + std * z).round().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_stream() -> EventStream {
        let mut s = EventStream::new(32, 32, 2, 100);
        for t in 0..50 {
            s.push(Event::update(t, 0, 10, 10)).unwrap();
        }
        s
    }

    #[test]
    fn clean_noise_preserves_events_exactly() {
        let s = base_stream();
        let mut rng = StdRng::seed_from_u64(1);
        let clean = NoiseConfig {
            background_rate: 0.0,
            hot_pixels: 0,
            jitter: 0,
        };
        let noisy = apply_noise(&s, &clean, &mut rng);
        assert_eq!(noisy.spike_count(), s.spike_count());
    }

    #[test]
    fn background_noise_adds_events() {
        let s = base_stream();
        let mut rng = StdRng::seed_from_u64(2);
        let config = NoiseConfig {
            background_rate: 1e-3,
            hot_pixels: 0,
            jitter: 0,
        };
        let noisy = apply_noise(&s, &config, &mut rng);
        assert!(noisy.spike_count() > s.spike_count());
        assert!(noisy.validate_all().is_ok());
    }

    #[test]
    fn hot_pixels_fire_every_timestep() {
        let s = EventStream::new(16, 16, 2, 30);
        let mut rng = StdRng::seed_from_u64(3);
        let config = NoiseConfig {
            background_rate: 0.0,
            hot_pixels: 2,
            jitter: 0,
        };
        let noisy = apply_noise(&s, &config, &mut rng);
        assert_eq!(noisy.spike_count(), 2 * 30);
        assert!(noisy.validate_all().is_ok());
    }

    #[test]
    fn jitter_keeps_timestamps_in_range() {
        let s = base_stream();
        let mut rng = StdRng::seed_from_u64(4);
        let config = NoiseConfig {
            background_rate: 0.0,
            hot_pixels: 0,
            jitter: 3,
        };
        let noisy = apply_noise(&s, &config, &mut rng);
        assert_eq!(noisy.spike_count(), s.spike_count());
        assert!(noisy.validate_all().is_ok());
        assert!(noisy.is_time_ordered());
    }

    #[test]
    fn poisson_sampler_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 2000;
        let mean = 40.0;
        let total: usize = (0..n).map(|_| sample_poisson_like(mean, &mut rng)).sum();
        let empirical = total as f64 / n as f64;
        assert!((empirical - mean).abs() < 2.0, "empirical mean {empirical}");
    }

    #[test]
    fn zero_mean_poisson_is_zero() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(sample_poisson_like(0.0, &mut rng), 0);
        assert_eq!(sample_poisson_like(-1.0, &mut rng), 0);
    }
}
