//! Activity statistics of event streams.
//!
//! The paper's energy-proportionality claim is driven by the *input
//! activity*: the fraction of spatio-temporal positions that carry a spike.
//! The IBM DVS-Gesture samples exhibit 1.2 %–4.9 % activity (paper §IV-B),
//! which bounds the best-/worst-case inference time and energy.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::stream::EventStream;

/// Per-timestep and aggregate activity statistics of an [`EventStream`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityStats {
    /// Number of spikes per timestep.
    pub spikes_per_timestep: Vec<usize>,
    /// Total number of spikes.
    pub total_spikes: usize,
    /// Mean activity (spikes / volume), in `[0, 1]`.
    pub mean_activity: f64,
    /// Maximum single-timestep activity (spikes in the timestep / frame size).
    pub peak_activity: f64,
    /// Number of timesteps without any spike.
    pub idle_timesteps: usize,
    /// Number of positions per timestep (`width * height * channels`).
    pub frame_size: usize,
}

impl ActivityStats {
    /// Computes statistics for a stream.
    #[must_use]
    pub fn from_stream(stream: &EventStream) -> Self {
        let geometry = stream.geometry();
        let frame_size = geometry.frame_size();
        let mut spikes_per_timestep = vec![0usize; geometry.timesteps as usize];
        for event in stream.iter().filter(|e| e.is_spike()) {
            spikes_per_timestep[event.t as usize] += 1;
        }
        let total_spikes: usize = spikes_per_timestep.iter().sum();
        let peak = spikes_per_timestep.iter().copied().max().unwrap_or(0);
        let idle_timesteps = spikes_per_timestep.iter().filter(|&&n| n == 0).count();
        Self {
            total_spikes,
            mean_activity: total_spikes as f64 / geometry.volume() as f64,
            peak_activity: peak as f64 / frame_size as f64,
            idle_timesteps,
            frame_size,
            spikes_per_timestep,
        }
    }

    /// Number of timesteps covered by the statistics.
    #[must_use]
    pub fn timesteps(&self) -> usize {
        self.spikes_per_timestep.len()
    }

    /// Fraction of timesteps that carry no spike at all. The SNE's
    /// time-of-last-update (TLU) mechanism skips membrane updates across such
    /// gaps (paper §III-D.4), so this fraction drives the TLU ablation.
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        if self.spikes_per_timestep.is_empty() {
            0.0
        } else {
            self.idle_timesteps as f64 / self.spikes_per_timestep.len() as f64
        }
    }
}

impl fmt::Display for ActivityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} spikes over {} timesteps (mean activity {:.2} %, peak {:.2} %, {:.0} % idle timesteps)",
            self.total_spikes,
            self.timesteps(),
            self.mean_activity * 100.0,
            self.peak_activity * 100.0,
            self.idle_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn stream_with_spikes(spikes: &[(u32, u16, u16, u16)]) -> EventStream {
        let mut s = EventStream::new(10, 10, 2, 20);
        for &(t, ch, x, y) in spikes {
            s.push(Event::update(t, ch, x, y)).unwrap();
        }
        s
    }

    #[test]
    fn empty_stream_has_zero_activity() {
        let s = EventStream::new(10, 10, 2, 20);
        let stats = s.stats();
        assert_eq!(stats.total_spikes, 0);
        assert_eq!(stats.mean_activity, 0.0);
        assert_eq!(stats.peak_activity, 0.0);
        assert_eq!(stats.idle_timesteps, 20);
        assert_eq!(stats.idle_fraction(), 1.0);
    }

    #[test]
    fn spikes_are_bucketed_per_timestep() {
        let s = stream_with_spikes(&[(0, 0, 1, 1), (0, 1, 2, 2), (5, 0, 3, 3)]);
        let stats = s.stats();
        assert_eq!(stats.spikes_per_timestep[0], 2);
        assert_eq!(stats.spikes_per_timestep[5], 1);
        assert_eq!(stats.total_spikes, 3);
        assert_eq!(stats.idle_timesteps, 18);
    }

    #[test]
    fn mean_activity_matches_stream_activity() {
        let s = stream_with_spikes(&[(0, 0, 1, 1), (3, 1, 2, 2)]);
        let stats = s.stats();
        assert!((stats.mean_activity - s.activity()).abs() < 1e-12);
    }

    #[test]
    fn peak_activity_uses_frame_size() {
        let s = stream_with_spikes(&[(0, 0, 1, 1), (0, 1, 2, 2)]);
        let stats = s.stats();
        // frame size = 10*10*2 = 200, two spikes at t=0.
        assert!((stats.peak_activity - 2.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn fire_and_reset_ops_do_not_count_as_spikes() {
        let mut s = EventStream::new(10, 10, 2, 20);
        s.push(Event::reset(0)).unwrap();
        s.push(Event::fire(5)).unwrap();
        assert_eq!(s.stats().total_spikes, 0);
    }

    #[test]
    fn display_is_human_readable() {
        let s = stream_with_spikes(&[(0, 0, 1, 1)]);
        let text = s.stats().to_string();
        assert!(text.contains("1 spikes"));
        assert!(text.contains("20 timesteps"));
    }
}
