//! `sne_serve` — the HTTP serving front-end of the SNE reproduction.
//!
//! The paper's deployment story (§III-D.5: configure once, then stream
//! events continuously) is a long-lived service. This crate is that service,
//! built from the serving runtime's three tiers (DESIGN.md §10):
//!
//! 1. [`sne::artifact::RuntimeArtifact`] — one immutable compiled artifact
//!    per model, shared by every engine and client;
//! 2. [`sne::batch::EnginePool`] — a fleet of warm engines per model, each
//!    owned by one worker of the model's work-stealing
//!    [`sne::batch::Scheduler`];
//! 3. this crate — a std-only HTTP/1.1 server (nonblocking sockets driven
//!    by a hand-rolled [`reactor`] — epoll on Linux, `poll(2)` elsewhere — a
//!    hand-rolled [`json`] codec, no new dependencies) exposing one-shot
//!    inference, session-keyed streaming whose neuron state survives between
//!    requests, HTTP/1.1 keep-alive with slow-loris read deadlines,
//!    per-model admission control with 429 load-shedding, request-id
//!    propagation, live latency/throughput/per-route stats, `GET /healthz`,
//!    and graceful shutdown that drains in-flight requests.
//!
//! The [`server`] module's reactors own sockets, timers and HTTP framing;
//! every decision about a request — routing, admission, the handlers, the
//! session table and the counters — belongs to one crate-private,
//! socket-free service (DESIGN.md §13), whose unit tests answer every
//! status without a socket.
//!
//! With [`ServerBuilder::durable_store`] the session table grows a disk
//! tier (DESIGN.md §14): every push parks a versioned, digest-checked
//! snapshot in an `sne_store::SessionStore`, idle sessions are demoted to
//! disk instead of refused at capacity, and a restart — including after
//! `kill -9` — recovers every parked session bit-identically.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sne::compile::CompiledNetwork;
//! use sne_model::topology::Topology;
//! use sne_model::Shape;
//! use sne_serve::{client, ServerBuilder};
//! use sne_sim::{ExecStrategy, SneConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let network =
//!     CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng)?;
//! let server = ServerBuilder::new()
//!     .register("tiny", network, SneConfig::with_slices(2), 2, ExecStrategy::Sequential)?
//!     .start("127.0.0.1:0")?;
//!
//! let (status, body) = client::post(
//!     server.addr(),
//!     "/v1/infer",
//!     r#"{"model": "tiny", "timesteps": 4, "events": [[0, 0, 3, 4], [2, 1, 5, 1]]}"#,
//! )?;
//! assert_eq!(status, 200);
//! assert!(body.contains("predicted_class"));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod json;
pub mod reactor;
pub mod server;
mod service;
mod sessions;

pub use json::{Json, JsonError};
pub use server::{DurabilityStats, Server, ServerBuilder};
// The store's fsync policy is part of the builder surface
// ([`ServerBuilder::fsync_policy`]).
pub use sne_store::FsyncPolicy;
