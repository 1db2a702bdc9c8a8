use std::error::Error;
use std::fmt;

use sne_event::EventError;
use sne_model::ModelError;
use sne_sim::SimError;
use sne_store::StoreError;

/// Errors of the top-level SNE API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SneError {
    /// An error raised by the functional model.
    Model(ModelError),
    /// An error raised by the hardware simulator.
    Sim(SimError),
    /// An error raised while manipulating event streams.
    Event(EventError),
    /// The compiled network and the input stream disagree on geometry.
    GeometryMismatch {
        /// Expected `(channels, height, width)` of the network input.
        expected: (u16, u16, u16),
        /// Geometry of the provided stream.
        found: (u16, u16, u16),
    },
    /// The compiled network contains no accelerated stage.
    EmptyNetwork,
    /// A batch runner was requested with zero lanes.
    EmptyBatch,
    /// A durable snapshot could not be written, read or decoded (torn
    /// write, digest mismatch, wrong artifact, unsupported format, I/O).
    Snapshot(StoreError),
    /// The network cannot run in the pipelined layer-per-slice mode because a
    /// layer does not fit in the slices allocated to it.
    PipelineDoesNotFit {
        /// Description of the offending layer.
        layer: String,
        /// Neurons the layer needs.
        required_neurons: usize,
        /// Neurons available in the slices allocated to the layer.
        available_neurons: usize,
    },
}

impl fmt::Display for SneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::Sim(e) => write!(f, "simulator error: {e}"),
            Self::Event(e) => write!(f, "event error: {e}"),
            Self::GeometryMismatch { expected, found } => write!(
                f,
                "input stream geometry {}x{}x{} does not match the network input {}x{}x{}",
                found.0, found.1, found.2, expected.0, expected.1, expected.2
            ),
            Self::EmptyNetwork => write!(f, "compiled network has no accelerated stage"),
            Self::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Self::EmptyBatch => write!(f, "a batch runner needs at least one lane"),
            Self::PipelineDoesNotFit { layer, required_neurons, available_neurons } => write!(
                f,
                "layer `{layer}` needs {required_neurons} neurons but its pipeline allocation provides {available_neurons}; use the time-multiplexed mode"
            ),
        }
    }
}

impl Error for SneError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Event(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SneError {
    fn from(value: ModelError) -> Self {
        Self::Model(value)
    }
}

impl From<SimError> for SneError {
    fn from(value: SimError) -> Self {
        Self::Sim(value)
    }
}

impl From<EventError> for SneError {
    fn from(value: EventError) -> Self {
        Self::Event(value)
    }
}

impl From<StoreError> for SneError {
    fn from(value: StoreError) -> Self {
        Self::Snapshot(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_the_source_error() {
        let err: SneError = ModelError::EmptyNetwork.into();
        assert!(matches!(err, SneError::Model(_)));
        assert!(err.source().is_some());
        let err: SneError = SimError::MalformedOpSequence("missing reset".into()).into();
        assert!(matches!(err, SneError::Sim(_)));
        let err: SneError = EventError::EmptyGeometry.into();
        assert!(matches!(err, SneError::Event(_)));
        let err: SneError = StoreError::BadMagic.into();
        assert!(matches!(err, SneError::Snapshot(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn display_is_nonempty() {
        let errors = [
            SneError::Model(ModelError::EmptyNetwork),
            SneError::GeometryMismatch {
                expected: (2, 32, 32),
                found: (2, 16, 16),
            },
            SneError::EmptyNetwork,
            SneError::EmptyBatch,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SneError>();
    }
}
