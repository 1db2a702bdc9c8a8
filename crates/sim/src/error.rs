use std::error::Error;
use std::fmt;

/// Errors produced by the hardware simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// The layer mapping does not fit the configured engine.
    MappingDoesNotFit {
        /// Neurons required by the mapped layer (per pass).
        required_neurons: usize,
        /// Neurons available per slice.
        available_neurons: usize,
    },
    /// The weight buffer of a slice cannot hold the requested weight sets.
    WeightBufferOverflow {
        /// Requested number of weight sets.
        requested: usize,
        /// Capacity of the filter buffer.
        capacity: usize,
    },
    /// An input event does not match the mapped layer geometry.
    EventOutOfRange {
        /// The offending event, rendered for the error message.
        event: String,
        /// Description of the expected geometry.
        expected: String,
    },
    /// The input event stream is not a valid SNE operation sequence.
    MalformedOpSequence(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { name, reason } => write!(f, "invalid configuration `{name}`: {reason}"),
            Self::MappingDoesNotFit { required_neurons, available_neurons } => write!(
                f,
                "layer needs {required_neurons} neurons per pass but a slice provides {available_neurons}"
            ),
            Self::WeightBufferOverflow { requested, capacity } => {
                write!(f, "weight buffer overflow: {requested} weight sets requested, capacity {capacity}")
            }
            Self::EventOutOfRange { event, expected } => {
                write!(f, "event {event} outside mapped layer geometry ({expected})")
            }
            Self::MalformedOpSequence(reason) => write!(f, "malformed operation sequence: {reason}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            SimError::InvalidConfig {
                name: "num_slices",
                reason: "must be non-zero".into(),
            },
            SimError::MappingDoesNotFit {
                required_neurons: 2048,
                available_neurons: 1024,
            },
            SimError::WeightBufferOverflow {
                requested: 300,
                capacity: 256,
            },
            SimError::EventOutOfRange {
                event: "(1,2)".into(),
                expected: "32x32".into(),
            },
            SimError::MalformedOpSequence("missing reset".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
