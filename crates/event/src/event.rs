//! The logical event quadruple `(OP, t, ch, x, y)`.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::EventOp;

/// A single event as defined by the SNE data format (paper Fig. 1).
///
/// An event is the quadruple `E := (OP, t, x, y)` extended with the input
/// channel `ch` that selects the weight set inside the filter buffer. The
/// fields are kept at their logical width here; [`EventFormat`] packs them
/// into the 32-bit memory word consumed by the streamer DMAs.
///
/// [`EventFormat`]: crate::format::EventFormat
///
/// # Example
///
/// ```
/// use sne_event::{Event, EventOp};
///
/// let spike = Event::update(4, 1, 10, 20);
/// assert_eq!(spike.op, EventOp::Update);
/// assert_eq!((spike.t, spike.ch, spike.x, spike.y), (4, 1, 10, 20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Event {
    /// Timestamp (timestep index within the inference window).
    pub t: u32,
    /// Operation code.
    pub op: EventOp,
    /// Input channel (selects a weight set in the filter buffer).
    pub ch: u16,
    /// Horizontal address within the feature map.
    pub x: u16,
    /// Vertical address within the feature map.
    pub y: u16,
}

impl Event {
    /// Creates an event with an explicit operation code.
    #[must_use]
    pub fn new(op: EventOp, t: u32, ch: u16, x: u16, y: u16) -> Self {
        Self { op, t, ch, x, y }
    }

    /// Creates an `UPDATE_OP` event (an input spike at `(ch, x, y)` at time `t`).
    #[must_use]
    pub fn update(t: u32, ch: u16, x: u16, y: u16) -> Self {
        Self::new(EventOp::Update, t, ch, x, y)
    }

    /// Creates a `RST_OP` event at time `t`; the address fields are zero.
    #[must_use]
    pub fn reset(t: u32) -> Self {
        Self::new(EventOp::Reset, t, 0, 0, 0)
    }

    /// Creates a `FIRE_OP` event at time `t`; the address fields are zero.
    #[must_use]
    pub fn fire(t: u32) -> Self {
        Self::new(EventOp::Fire, t, 0, 0, 0)
    }

    /// Returns `true` if this is an input spike (`UPDATE_OP`).
    #[must_use]
    pub fn is_spike(&self) -> bool {
        self.op == EventOp::Update
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@t={} ch={} ({}, {})",
            self.op, self.t, self.ch, self.x, self.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_expected_op() {
        assert_eq!(Event::update(1, 2, 3, 4).op, EventOp::Update);
        assert_eq!(Event::reset(1).op, EventOp::Reset);
        assert_eq!(Event::fire(1).op, EventOp::Fire);
    }

    #[test]
    fn reset_and_fire_have_zero_address() {
        for e in [Event::reset(7), Event::fire(7)] {
            assert_eq!((e.ch, e.x, e.y), (0, 0, 0));
        }
    }

    #[test]
    fn ordering_is_time_major() {
        let a = Event::update(1, 5, 5, 5);
        let b = Event::update(2, 0, 0, 0);
        assert!(a < b);
    }

    #[test]
    fn display_mentions_op_and_coordinates() {
        let e = Event::update(3, 1, 10, 20);
        let s = e.to_string();
        assert!(s.contains("UPDATE_OP"));
        assert!(s.contains("10"));
        assert!(s.contains("20"));
    }
}
