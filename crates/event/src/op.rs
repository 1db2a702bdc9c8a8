//! Event operation codes understood by the SNE engine.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::EventError;

/// Operation carried by an event word (paper §III-C).
///
/// The SNE execution model distinguishes three event operations:
///
/// * [`EventOp::Reset`] (`RST_OP`) resets the membrane potential of every
///   neuron in the addressed slice to zero; it marks the start of a new
///   inference.
/// * [`EventOp::Update`] (`UPDATE_OP`) accumulates the synaptic contribution
///   of an input spike into the membrane potential of every output neuron
///   whose receptive field contains the event address.
/// * [`EventOp::Fire`] (`FIRE_OP`) closes a timestep: every neuron whose
///   membrane potential exceeds the firing threshold emits an output event
///   and its potential is reset.
///
/// # Example
///
/// ```
/// use sne_event::EventOp;
///
/// let op = EventOp::from_code(1)?;
/// assert_eq!(op, EventOp::Update);
/// assert_eq!(op.code(), 1);
/// # Ok::<(), sne_event::EventError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventOp {
    /// `RST_OP`: reset all neuron state variables to zero.
    Reset,
    /// `UPDATE_OP`: accumulate the event into the receptive-field neurons.
    Update,
    /// `FIRE_OP`: emit output events for neurons above threshold.
    Fire,
}

impl EventOp {
    /// All operation codes, in encoding order.
    pub const ALL: [EventOp; 3] = [EventOp::Reset, EventOp::Update, EventOp::Fire];

    /// Numeric code used in the packed 32-bit event word.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            EventOp::Reset => 0,
            EventOp::Update => 1,
            EventOp::Fire => 2,
        }
    }

    /// Decodes a numeric operation code.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnknownOpCode`] if `code` is not 0, 1 or 2.
    pub fn from_code(code: u8) -> Result<Self, EventError> {
        match code {
            0 => Ok(EventOp::Reset),
            1 => Ok(EventOp::Update),
            2 => Ok(EventOp::Fire),
            other => Err(EventError::UnknownOpCode(other)),
        }
    }

    /// Returns `true` for operations that carry a spatial address
    /// (only [`EventOp::Update`] does).
    #[must_use]
    pub fn carries_address(self) -> bool {
        matches!(self, EventOp::Update)
    }
}

impl fmt::Display for EventOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EventOp::Reset => "RST_OP",
            EventOp::Update => "UPDATE_OP",
            EventOp::Fire => "FIRE_OP",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_round_trips() {
        for op in EventOp::ALL {
            assert_eq!(EventOp::from_code(op.code()).unwrap(), op);
        }
    }

    #[test]
    fn unknown_code_is_rejected() {
        assert_eq!(EventOp::from_code(3), Err(EventError::UnknownOpCode(3)));
        assert_eq!(EventOp::from_code(255), Err(EventError::UnknownOpCode(255)));
    }

    #[test]
    fn only_update_carries_address() {
        assert!(EventOp::Update.carries_address());
        assert!(!EventOp::Reset.carries_address());
        assert!(!EventOp::Fire.carries_address());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(EventOp::Reset.to_string(), "RST_OP");
        assert_eq!(EventOp::Update.to_string(), "UPDATE_OP");
        assert_eq!(EventOp::Fire.to_string(), "FIRE_OP");
    }
}
