//! Quantization utilities: 4-bit synaptic weights and 8-bit membrane state.
//!
//! The SNE stores synaptic weights on 4 bits (two's complement, `-8..=7`) and
//! the membrane potential on 8 bits (`-128..=127`), see paper §III-D.4 and
//! Table II. Training happens in floating point (in the `train` module); the
//! helpers here map trained weights to the hardware integer grid with a
//! per-layer scale.

use serde::{Deserialize, Serialize};

use crate::ModelError;

/// Smallest representable 4-bit weight.
pub const WEIGHT_MIN: i8 = -8;
/// Largest representable 4-bit weight.
pub const WEIGHT_MAX: i8 = 7;
/// Smallest representable 8-bit membrane state.
pub const STATE_MIN: i8 = i8::MIN;
/// Largest representable 8-bit membrane state.
pub const STATE_MAX: i8 = i8::MAX;

/// Clamps a 64-bit value into an arbitrary `[lo, hi]` interval and narrows it
/// to 32 bits.
#[must_use]
pub fn clamp_i64(value: i64, lo: i64, hi: i64) -> i32 {
    value.clamp(lo, hi) as i32
}

/// Quantizes a single floating-point weight to the 4-bit grid with the given
/// scale (`w_q = round(w / scale)` clamped to `[-8, 7]`).
///
/// # Errors
///
/// Returns [`ModelError::InvalidScale`] if `scale` is not positive and finite.
pub fn quantize_weight(weight: f32, scale: f32) -> Result<i8, ModelError> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(ModelError::InvalidScale(scale));
    }
    let q = (weight / scale).round();
    Ok(q.clamp(f32::from(WEIGHT_MIN), f32::from(WEIGHT_MAX)) as i8)
}

/// Reconstructs the floating-point value of a quantized weight.
#[must_use]
pub fn dequantize_weight(weight: i8, scale: f32) -> f32 {
    f32::from(weight) * scale
}

/// Chooses the per-layer quantization scale that maps the largest absolute
/// weight onto the edge of the 4-bit grid (symmetric max-abs calibration).
///
/// Returns 1.0 for an all-zero weight set so that quantization is still
/// well defined.
#[must_use]
pub fn calibrate_scale(weights: &[f32]) -> f32 {
    let max_abs = weights.iter().fold(0.0f32, |acc, &w| acc.max(w.abs()));
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / f32::from(WEIGHT_MAX)
    }
}

/// A set of weights quantized to the 4-bit hardware grid, together with the
/// scale needed to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedWeights {
    /// Quantized values on the `[-8, 7]` grid.
    pub values: Vec<i8>,
    /// Scale such that `float ≈ value * scale`.
    pub scale: f32,
}

impl QuantizedWeights {
    /// Quantizes a float weight vector with max-abs calibration.
    #[must_use]
    pub fn from_floats(weights: &[f32]) -> Self {
        let scale = calibrate_scale(weights);
        let values = weights
            .iter()
            .map(|&w| quantize_weight(w, scale).expect("calibrated scale is positive"))
            .collect();
        Self { values, scale }
    }

    /// Reconstructed floating-point weights.
    #[must_use]
    pub fn to_floats(&self) -> Vec<f32> {
        self.values
            .iter()
            .map(|&v| dequantize_weight(v, self.scale))
            .collect()
    }

    /// Worst-case absolute quantization error over the original weights.
    #[must_use]
    pub fn max_error(&self, original: &[f32]) -> f32 {
        self.to_floats()
            .iter()
            .zip(original)
            .map(|(q, o)| (q - o).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_grid_is_4_bits() {
        assert_eq!(i32::from(WEIGHT_MAX) - i32::from(WEIGHT_MIN) + 1, 16);
    }

    #[test]
    fn quantize_rounds_and_clamps() {
        assert_eq!(quantize_weight(0.26, 0.1).unwrap(), 3);
        assert_eq!(quantize_weight(-0.26, 0.1).unwrap(), -3);
        assert_eq!(quantize_weight(10.0, 0.1).unwrap(), WEIGHT_MAX);
        assert_eq!(quantize_weight(-10.0, 0.1).unwrap(), WEIGHT_MIN);
    }

    #[test]
    fn invalid_scales_are_rejected() {
        assert!(quantize_weight(1.0, 0.0).is_err());
        assert!(quantize_weight(1.0, -1.0).is_err());
        assert!(quantize_weight(1.0, f32::NAN).is_err());
        assert!(quantize_weight(1.0, f32::INFINITY).is_err());
    }

    #[test]
    fn calibration_maps_max_to_grid_edge() {
        let weights = [0.5, -1.4, 0.7];
        let scale = calibrate_scale(&weights);
        assert_eq!(quantize_weight(-1.4, scale).unwrap(), -7);
        // Zero weights quantize to zero.
        assert_eq!(quantize_weight(0.0, scale).unwrap(), 0);
    }

    #[test]
    fn zero_weights_calibrate_to_unit_scale() {
        assert_eq!(calibrate_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(calibrate_scale(&[]), 1.0);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let weights: Vec<f32> = (-20..=20).map(|i| i as f32 * 0.05).collect();
        let q = QuantizedWeights::from_floats(&weights);
        // Max-abs calibration bounds the error of in-range weights by scale/2.
        assert!(q.max_error(&weights) <= q.scale / 2.0 + 1e-6);
    }

    #[test]
    fn dequantize_inverts_quantize_on_grid_points() {
        let scale = 0.25;
        for v in WEIGHT_MIN..=WEIGHT_MAX {
            let f = dequantize_weight(v, scale);
            assert_eq!(quantize_weight(f, scale).unwrap(), v);
        }
    }
}
