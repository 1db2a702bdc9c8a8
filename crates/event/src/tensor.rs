//! Dense binary spike tensors (`[T, C, H, W]`).
//!
//! The functional reference model (crate `sne-model`) operates on dense
//! binary tensors, while the accelerator consumes sparse event streams.
//! [`EventTensor::from_stream`] builds the dense view of a stream's
//! `UPDATE_OP` events (duplicate events at the same position collapse to a
//! single binary spike, matching the binary input/output feature maps of SNNs
//! described in paper §III-A).

use serde::{Deserialize, Serialize};

use crate::stream::{EventStream, Geometry};
use crate::EventError;

/// A dense binary spike tensor with shape `[timesteps, channels, height, width]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTensor {
    geometry: Geometry,
    /// Row-major bitmap: index = ((t * C + c) * H + y) * W + x.
    data: Vec<bool>,
}

impl EventTensor {
    /// Creates an all-zero tensor with the given geometry.
    #[must_use]
    pub fn zeros(geometry: Geometry) -> Self {
        Self {
            data: vec![false; geometry.volume()],
            geometry,
        }
    }

    /// Geometry (shape) of the tensor.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn index(&self, t: u32, ch: u16, x: u16, y: u16) -> usize {
        let g = self.geometry;
        (((t as usize * usize::from(g.channels) + usize::from(ch)) * usize::from(g.height)
            + usize::from(y))
            * usize::from(g.width))
            + usize::from(x)
    }

    /// Returns the spike bit at `(t, ch, x, y)`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, t: u32, ch: u16, x: u16, y: u16) -> Option<bool> {
        let g = self.geometry;
        if t >= g.timesteps || ch >= g.channels || x >= g.width || y >= g.height {
            return None;
        }
        Some(self.data[self.index(t, ch, x, y)])
    }

    /// Sets the spike bit at `(t, ch, x, y)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the position is outside the tensor geometry.
    pub fn set(&mut self, t: u32, ch: u16, x: u16, y: u16, value: bool) -> Result<(), EventError> {
        let g = self.geometry;
        if t >= g.timesteps {
            return Err(EventError::TimestampOutOfRange {
                t,
                timesteps: g.timesteps,
            });
        }
        if ch >= g.channels {
            return Err(EventError::ChannelOutOfRange {
                ch,
                channels: g.channels,
            });
        }
        if x >= g.width || y >= g.height {
            return Err(EventError::CoordinateOutOfRange {
                x,
                y,
                width: g.width,
                height: g.height,
            });
        }
        let idx = self.index(t, ch, x, y);
        self.data[idx] = value;
        Ok(())
    }

    /// Number of set spike bits.
    #[must_use]
    pub fn spike_count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Fraction of set bits (activity of the dense view).
    #[must_use]
    pub fn activity(&self) -> f64 {
        self.spike_count() as f64 / self.data.len() as f64
    }

    /// Builds a dense tensor from an event stream (duplicate events collapse).
    #[must_use]
    pub fn from_stream(stream: &EventStream) -> Self {
        let mut tensor = Self::zeros(stream.geometry());
        for e in stream.iter().filter(|e| e.is_spike()) {
            let idx = tensor.index(e.t, e.ch, e.x, e.y);
            tensor.data[idx] = true;
        }
        tensor
    }

    /// Sums spikes over time per `(ch, y, x)` position, producing a spike-count
    /// map that is used as the rate-coded output of the reference model.
    #[must_use]
    pub fn spike_counts_per_position(&self) -> Vec<u32> {
        let g = self.geometry;
        let mut counts = vec![0u32; g.frame_size()];
        for t in 0..g.timesteps {
            for ch in 0..g.channels {
                for y in 0..g.height {
                    for x in 0..g.width {
                        if self.data[self.index(t, ch, x, y)] {
                            let pos = (usize::from(ch) * usize::from(g.height) + usize::from(y))
                                * usize::from(g.width)
                                + usize::from(x);
                            counts[pos] += 1;
                        }
                    }
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn geometry() -> Geometry {
        Geometry::new(4, 3, 2, 5).unwrap()
    }

    #[test]
    fn zeros_has_no_spikes() {
        let t = EventTensor::zeros(geometry());
        assert_eq!(t.spike_count(), 0);
        assert_eq!(t.activity(), 0.0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = EventTensor::zeros(geometry());
        t.set(2, 1, 3, 2, true).unwrap();
        assert_eq!(t.get(2, 1, 3, 2), Some(true));
        assert_eq!(t.get(2, 1, 3, 1), Some(false));
        assert_eq!(t.get(5, 0, 0, 0), None);
    }

    #[test]
    fn set_out_of_range_is_rejected() {
        let mut t = EventTensor::zeros(geometry());
        assert!(t.set(0, 0, 4, 0, true).is_err());
        assert!(t.set(0, 2, 0, 0, true).is_err());
        assert!(t.set(5, 0, 0, 0, true).is_err());
    }

    #[test]
    fn stream_round_trip_collapses_duplicates() {
        let mut s = EventStream::with_geometry(geometry());
        s.push(Event::update(0, 0, 1, 1)).unwrap();
        s.push(Event::update(0, 0, 1, 1)).unwrap();
        s.push(Event::update(3, 1, 2, 0)).unwrap();
        let tensor = EventTensor::from_stream(&s);
        assert_eq!(tensor.spike_count(), 2);
        assert_eq!(tensor.get(0, 0, 1, 1), Some(true));
        assert_eq!(tensor.get(3, 1, 2, 0), Some(true));
    }

    #[test]
    fn spike_counts_accumulate_over_time() {
        let mut t = EventTensor::zeros(geometry());
        for time in 0..5 {
            t.set(time, 0, 2, 1, true).unwrap();
        }
        let counts = t.spike_counts_per_position();
        let (ch, y, x) = (0usize, 1usize, 2usize);
        let pos = (ch * 3 + y) * 4 + x;
        assert_eq!(counts[pos], 5);
        assert_eq!(counts.iter().sum::<u32>(), 5);
    }
}
