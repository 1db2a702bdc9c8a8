use std::error::Error;
use std::fmt;

/// Errors produced while constructing or manipulating events and streams.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// The event's spatial coordinates fall outside the stream geometry.
    CoordinateOutOfRange {
        /// Horizontal coordinate of the offending event.
        x: u16,
        /// Vertical coordinate of the offending event.
        y: u16,
        /// Width of the feature map the event was pushed into.
        width: u16,
        /// Height of the feature map the event was pushed into.
        height: u16,
    },
    /// The event's channel index falls outside the stream geometry.
    ChannelOutOfRange {
        /// Channel index of the offending event.
        ch: u16,
        /// Number of channels of the feature map.
        channels: u16,
    },
    /// The event's timestamp falls outside the stream's time window.
    TimestampOutOfRange {
        /// Timestamp of the offending event.
        t: u32,
        /// Number of timesteps of the stream.
        timesteps: u32,
    },
    /// A field does not fit into the bit width allotted by an [`EventFormat`].
    ///
    /// [`EventFormat`]: crate::format::EventFormat
    FieldOverflow {
        /// Name of the overflowing field (`"op"`, `"t"`, `"ch"`, `"x"` or `"y"`).
        field: &'static str,
        /// Value that did not fit.
        value: u32,
        /// Number of bits available for the field.
        bits: u8,
    },
    /// The bit widths of an [`EventFormat`] do not sum to 32.
    ///
    /// [`EventFormat`]: crate::format::EventFormat
    InvalidFormat {
        /// Total number of bits requested by the format.
        total_bits: u8,
    },
    /// A packed word carries an operation code that is not defined.
    UnknownOpCode(u8),
    /// A stream geometry parameter is zero.
    EmptyGeometry,
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CoordinateOutOfRange {
                x,
                y,
                width,
                height,
            } => write!(
                f,
                "event coordinate ({x}, {y}) outside feature map {width}x{height}"
            ),
            Self::ChannelOutOfRange { ch, channels } => {
                write!(f, "event channel {ch} outside {channels} channels")
            }
            Self::TimestampOutOfRange { t, timesteps } => {
                write!(f, "event timestamp {t} outside {timesteps} timesteps")
            }
            Self::FieldOverflow { field, value, bits } => {
                write!(
                    f,
                    "value {value} of field `{field}` does not fit in {bits} bits"
                )
            }
            Self::InvalidFormat { total_bits } => {
                write!(
                    f,
                    "event format bit widths sum to {total_bits}, expected 32"
                )
            }
            Self::UnknownOpCode(code) => write!(f, "unknown event operation code {code}"),
            Self::EmptyGeometry => write!(f, "stream geometry must be non-zero"),
        }
    }
}

impl Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            EventError::CoordinateOutOfRange {
                x: 40,
                y: 2,
                width: 32,
                height: 32,
            },
            EventError::ChannelOutOfRange { ch: 3, channels: 2 },
            EventError::TimestampOutOfRange {
                t: 200,
                timesteps: 100,
            },
            EventError::FieldOverflow {
                field: "x",
                value: 300,
                bits: 8,
            },
            EventError::InvalidFormat { total_bits: 30 },
            EventError::UnknownOpCode(7),
            EventError::EmptyGeometry,
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EventError>();
    }
}
