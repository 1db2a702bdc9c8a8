//! Event representation, streams, tensors and synthetic event-based datasets
//! for the SNE reproduction.
//!
//! The SNE accelerator (Di Mauro et al., DATE 2022) consumes *explicitly
//! encoded* events: each event is a 32-bit word carrying an operation code,
//! a timestamp and a spatial address `(ch, x, y)`. This crate provides:
//!
//! * [`Event`], [`EventOp`] — the logical event quadruple of the paper
//!   (§III-C, Fig. 1), plus [`format::EventFormat`] for packing events into
//!   the 32-bit memory word used by the streamer DMAs.
//! * [`stream::EventStream`] — a time-ordered collection of events with the
//!   geometry of the feature map that produced them, plus activity statistics
//!   ([`stats::ActivityStats`]) that drive the energy-proportionality
//!   experiments.
//! * [`tensor::EventTensor`] — the dense binary `[T, C, H, W]` view used by
//!   the functional reference model.
//! * [`datasets`] — synthetic surrogates of the IBM DVS-Gesture and NMNIST
//!   datasets used by the paper's accuracy benchmark (§IV-B). The real
//!   datasets are not redistributable here, so parametric generators with the
//!   same geometry and activity statistics are provided instead (see
//!   `DESIGN.md` §4).
//!
//! # Example
//!
//! ```
//! use sne_event::{Event, EventOp, stream::EventStream};
//!
//! let mut stream = EventStream::new(32, 32, 2, 10);
//! stream.push(Event::update(3, 0, 12, 17))?;
//! stream.push(Event::fire(3))?;
//! assert_eq!(stream.len(), 2);
//! assert!(stream.is_time_ordered());
//! # Ok::<(), sne_event::EventError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datasets;
pub mod event;
pub mod format;
pub mod noise;
pub mod op;
pub mod stats;
pub mod stream;
pub mod tensor;

mod error;

pub use error::EventError;
pub use event::Event;
pub use format::{EventFormat, PackedEvent};
pub use op::EventOp;
pub use stream::EventStream;
pub use tensor::EventTensor;
