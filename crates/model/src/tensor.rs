//! Small dense tensor types used by the functional model.
//!
//! The reference model operates on per-timestep *frames*: binary spike frames
//! ([`Frame`]) for spiking inference and real-valued rate maps ([`RateMap`])
//! for the rate-based surrogate trainer. Both are row-major `[C, H, W]`
//! volumes with a shared [`Shape`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of a `[channels, height, width]` volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Number of channels.
    pub channels: u16,
    /// Height in neurons/pixels.
    pub height: u16,
    /// Width in neurons/pixels.
    pub width: u16,
}

impl Shape {
    /// Creates a shape.
    #[must_use]
    pub fn new(channels: u16, height: u16, width: u16) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.channels) * usize::from(self.height) * usize::from(self.width)
    }

    /// Returns `true` if any dimension is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels == 0 || self.height == 0 || self.width == 0
    }

    /// Row-major linear index of `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are out of range.
    #[must_use]
    pub fn index(&self, c: u16, y: u16, x: u16) -> usize {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        (usize::from(c) * usize::from(self.height) + usize::from(y)) * usize::from(self.width)
            + usize::from(x)
    }

    /// Shape as the `(channels, height, width)` tuple used in error messages.
    #[must_use]
    pub fn as_tuple(&self) -> (u16, u16, u16) {
        (self.channels, self.height, self.width)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

/// A binary spike frame (one timestep of a feature map).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    shape: Shape,
    data: Vec<bool>,
}

impl Frame {
    /// Creates an all-zero frame.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![false; shape.len()],
            shape,
        }
    }

    /// Shape of the frame.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Spike bit at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn get(&self, c: u16, y: u16, x: u16) -> bool {
        self.data[self.shape.index(c, y, x)]
    }

    /// Sets the spike bit at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set(&mut self, c: u16, y: u16, x: u16, value: bool) {
        let idx = self.shape.index(c, y, x);
        self.data[idx] = value;
    }

    /// Number of set bits.
    #[must_use]
    pub fn spike_count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Fraction of set bits.
    #[must_use]
    pub fn activity(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.spike_count() as f64 / self.data.len() as f64
        }
    }

    /// Iterates over the coordinates of set bits as `(c, y, x)`.
    pub fn spikes(&self) -> impl Iterator<Item = (u16, u16, u16)> + '_ {
        let shape = self.shape;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| {
                let x = (i % usize::from(shape.width)) as u16;
                let rest = i / usize::from(shape.width);
                let y = (rest % usize::from(shape.height)) as u16;
                let c = (rest / usize::from(shape.height)) as u16;
                (c, y, x)
            })
    }

    /// Underlying data as a slice (row-major `[C, H, W]`).
    #[must_use]
    pub fn as_slice(&self) -> &[bool] {
        &self.data
    }
}

/// A real-valued activation map used by the rate-based trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateMap {
    shape: Shape,
    data: Vec<f32>,
}

impl RateMap {
    /// Creates an all-zero map.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Shape of the map.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Value at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn get(&self, c: u16, y: u16, x: u16) -> f32 {
        self.data[self.shape.index(c, y, x)]
    }

    /// Sets the value at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set(&mut self, c: u16, y: u16, x: u16, value: f32) {
        let idx = self.shape.index(c, y, x);
        self.data[idx] = value;
    }

    /// Underlying data as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_len_and_index() {
        let s = Shape::new(2, 3, 4);
        assert_eq!(s.len(), 24);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 3), 3);
        assert_eq!(s.index(0, 1, 0), 4);
        assert_eq!(s.index(1, 0, 0), 12);
        assert!(!s.is_empty());
        assert!(Shape::new(0, 3, 4).is_empty());
    }

    #[test]
    fn frame_set_get_and_counts() {
        let mut f = Frame::zeros(Shape::new(2, 3, 4));
        f.set(1, 2, 3, true);
        f.set(0, 0, 0, true);
        assert!(f.get(1, 2, 3));
        assert!(!f.get(0, 1, 1));
        assert_eq!(f.spike_count(), 2);
        assert!((f.activity() - 2.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn frame_spikes_iterates_coordinates() {
        let mut f = Frame::zeros(Shape::new(2, 3, 4));
        f.set(1, 2, 3, true);
        f.set(0, 1, 2, true);
        let spikes: Vec<_> = f.spikes().collect();
        assert_eq!(spikes.len(), 2);
        assert!(spikes.contains(&(1, 2, 3)));
        assert!(spikes.contains(&(0, 1, 2)));
    }

    #[test]
    fn display_shape() {
        assert_eq!(Shape::new(32, 16, 8).to_string(), "32x16x8");
    }
}
