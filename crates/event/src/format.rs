//! Packing of events into the 32-bit memory word of Fig. 1.
//!
//! The paper stores events linearly in memory as 32-bit words partitioned
//! into a control field (the operation) and address/time fields. The exact
//! bit allocation is configurable in the RTL; the default chosen here
//! (`2 + 8 + 6 + 8 + 8 = 32` bits) covers the feature-map geometries used in
//! the evaluation (128×128 DVS-Gesture frames downscaled to 32×32, 34×34
//! NMNIST frames, up to 64 input channels, 256 timesteps).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Event, EventError, EventOp};

/// A 32-bit packed event word as stored in memory and moved by the streamers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedEvent(pub u32);

impl PackedEvent {
    /// Raw 32-bit word.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::LowerHex for PackedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for PackedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for PackedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<PackedEvent> for u32 {
    fn from(value: PackedEvent) -> Self {
        value.0
    }
}

impl From<u32> for PackedEvent {
    fn from(value: u32) -> Self {
        PackedEvent(value)
    }
}

/// Bit allocation of the 32-bit event word (Fig. 1).
///
/// Fields are packed MSB-first in the order `op`, `t`, `ch`, `x`, `y`.
/// The widths must sum to exactly 32 bits.
///
/// # Example
///
/// ```
/// use sne_event::{Event, EventFormat};
///
/// let format = EventFormat::default();
/// let event = Event::update(12, 1, 30, 31);
/// let word = format.pack(&event)?;
/// assert_eq!(format.unpack(word)?, event);
/// # Ok::<(), sne_event::EventError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventFormat {
    op_bits: u8,
    t_bits: u8,
    ch_bits: u8,
    x_bits: u8,
    y_bits: u8,
}

impl Default for EventFormat {
    fn default() -> Self {
        // 2 op + 8 time + 6 channel + 8 x + 8 y = 32 bits.
        Self {
            op_bits: 2,
            t_bits: 8,
            ch_bits: 6,
            x_bits: 8,
            y_bits: 8,
        }
    }
}

impl EventFormat {
    /// Creates a format with explicit field widths.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidFormat`] if the widths do not sum to 32
    /// bits or any width is zero.
    pub fn new(
        op_bits: u8,
        t_bits: u8,
        ch_bits: u8,
        x_bits: u8,
        y_bits: u8,
    ) -> Result<Self, EventError> {
        let total = op_bits + t_bits + ch_bits + x_bits + y_bits;
        if total != 32 || [op_bits, t_bits, ch_bits, x_bits, y_bits].contains(&0) {
            return Err(EventError::InvalidFormat { total_bits: total });
        }
        Ok(Self {
            op_bits,
            t_bits,
            ch_bits,
            x_bits,
            y_bits,
        })
    }

    /// Packs a logical event into a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::FieldOverflow`] if any field does not fit into
    /// its allotted width.
    pub fn pack(&self, event: &Event) -> Result<PackedEvent, EventError> {
        let op = u32::from(event.op.code());
        check_fit("op", op, self.op_bits)?;
        check_fit("t", event.t, self.t_bits)?;
        check_fit("ch", u32::from(event.ch), self.ch_bits)?;
        check_fit("x", u32::from(event.x), self.x_bits)?;
        check_fit("y", u32::from(event.y), self.y_bits)?;

        let mut word = 0u32;
        word = (word << self.op_bits) | op;
        word = (word << self.t_bits) | event.t;
        word = (word << self.ch_bits) | u32::from(event.ch);
        word = (word << self.x_bits) | u32::from(event.x);
        word = (word << self.y_bits) | u32::from(event.y);
        Ok(PackedEvent(word))
    }

    /// Unpacks a 32-bit word into a logical event.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnknownOpCode`] if the operation field carries a
    /// code that is not defined.
    pub fn unpack(&self, word: PackedEvent) -> Result<Event, EventError> {
        let mut raw = word.0;
        let y = (raw & mask(self.y_bits)) as u16;
        raw >>= self.y_bits;
        let x = (raw & mask(self.x_bits)) as u16;
        raw >>= self.x_bits;
        let ch = (raw & mask(self.ch_bits)) as u16;
        raw >>= self.ch_bits;
        let t = raw & mask(self.t_bits);
        raw >>= self.t_bits;
        let op = EventOp::from_code((raw & mask(self.op_bits)) as u8)?;
        Ok(Event { op, t, ch, x, y })
    }
}

fn mask(bits: u8) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

fn check_fit(field: &'static str, value: u32, bits: u8) -> Result<(), EventError> {
    if value > mask(bits) {
        Err(EventError::FieldOverflow { field, value, bits })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_format_uses_all_32_bits() {
        let f = EventFormat::default();
        assert_eq!(f.op_bits + f.t_bits + f.ch_bits + f.x_bits + f.y_bits, 32);
    }

    #[test]
    fn invalid_width_sum_is_rejected() {
        assert!(matches!(
            EventFormat::new(2, 8, 6, 8, 4),
            Err(EventError::InvalidFormat { total_bits: 28 })
        ));
    }

    #[test]
    fn zero_width_field_is_rejected() {
        assert!(EventFormat::new(0, 10, 6, 8, 8).is_err());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let f = EventFormat::default();
        let events = [
            Event::update(0, 0, 0, 0),
            Event::update(255, 63, 255, 255),
            Event::reset(17),
            Event::fire(100),
        ];
        for e in events {
            assert_eq!(f.unpack(f.pack(&e).unwrap()).unwrap(), e);
        }
    }

    #[test]
    fn overflow_is_reported_with_field_name() {
        let f = EventFormat::default();
        let e = Event::update(300, 0, 0, 0);
        match f.pack(&e) {
            Err(EventError::FieldOverflow { field, value, bits }) => {
                assert_eq!(field, "t");
                assert_eq!(value, 300);
                assert_eq!(bits, 8);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn unknown_op_code_in_word_is_rejected() {
        let f = EventFormat::default();
        // Craft a word whose op field is 3 (undefined).
        let word = PackedEvent(0b11 << 30);
        assert_eq!(f.unpack(word), Err(EventError::UnknownOpCode(3)));
    }

    #[test]
    fn packed_event_converts_to_u32() {
        let w: u32 = PackedEvent(0xdead_beef).into();
        assert_eq!(w, 0xdead_beef);
        assert_eq!(PackedEvent::from(5u32).raw(), 5);
    }
}
