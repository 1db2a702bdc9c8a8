//! Workspace-level facade of the SNE reproduction.
//!
//! This crate exists to host the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`); it simply re-exports the
//! member crates so the examples read naturally:
//!
//! * [`sne`] — top-level accelerator API (compile, run, report),
//! * [`sne_event`] — events, streams and synthetic datasets,
//! * [`sne_model`] — functional eCNN reference model and trainer,
//! * [`sne_sim`] — cycle-approximate hardware simulator,
//! * [`sne_energy`] — calibrated GF22FDX area/power/energy models,
//! * [`sne_serve`] — the HTTP serving front-end (model registry, streaming
//!   sessions, stats).
//!
//! # Example
//!
//! ```
//! use sne_repro::prelude::*;
//! # use rand::SeedableRng;
//!
//! # fn main() -> Result<(), SneError> {
//! let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let network = CompiledNetwork::random(&topology, &mut rng)?;
//! let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
//! let stream = sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, 3);
//! let result = accelerator.run(&network, &stream)?;
//! assert!(result.energy.energy_uj > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use sne;
pub use sne_energy;
pub use sne_event;
pub use sne_model;
pub use sne_serve;
pub use sne_sim;

/// Commonly used types, re-exported for examples and tests.
pub mod prelude {
    pub use sne::artifact::{ClientState, RuntimeArtifact};
    pub use sne::batch::{BatchReport, BatchRunner, EnginePool, LatencySummary, Scheduler};
    pub use sne::compile::CompiledNetwork;
    pub use sne::proportionality;
    pub use sne::session::{ChunkOutput, InferenceSession};
    pub use sne::{InferenceResult, SneAccelerator, SneError};
    pub use sne_energy::{AreaModel, EnergyModel, PerformanceModel, PowerModel};
    pub use sne_event::datasets::{EventDataset, GestureDataset, NmnistDataset};
    pub use sne_event::{Event, EventOp, EventStream};
    pub use sne_model::topology::Topology;
    pub use sne_model::train::{train, TrainConfig};
    pub use sne_model::Shape;
    pub use sne_serve::ServerBuilder;
    pub use sne_sim::{Engine, LayerMapping, SneConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let config = SneConfig::with_slices(8);
        assert_eq!(config.total_neurons(), 8192);
    }
}
