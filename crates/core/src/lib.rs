//! # InfiniCache
//!
//! A Rust reproduction of *InfiniCache: Exploiting Ephemeral Serverless
//! Functions to Build a Cost-Effective Memory Cache* (Wang et al., USENIX
//! FAST 2020): an in-memory object cache built entirely on ephemeral FaaS
//! functions, combining erasure coding, anticipatory billed-duration
//! control, and delta-sync backups to cache large objects at a fraction of
//! the cost of a managed cache like ElastiCache.
//!
//! This crate is the top of the workspace: it wires the client library
//! (`ic-client`), proxy (`ic-proxy`), Lambda function runtime
//! (`ic-lambda`), erasure coding (`ic-ec`), analytical models
//! (`ic-analytics`), baselines (`ic-baselines`) and the
//! serverless-platform simulator (`ic-simfaas`) into the **simulation**
//! ([`world::SimWorld`]): a deterministic discrete-event deployment that
//! every `reproduce` artifact runs on (README, "Reproducing the paper").
//! The 50-hour production-trace replay drives it through `ic-trace`'s
//! `replay_sim`; the microbenchmark, co-location, scalability and
//! reclaim studies drive it from `ic-bench`.
//!
//! The other substrate lives downstream in the `ic-net` crate: the same
//! state machines across real TCP sockets and OS processes, with real
//! bytes through the real Reed–Solomon codec, registered against the
//! identical [`dispatch`] engines (it cannot live here — `ic-net`
//! depends on this crate for the dispatch layer). The substrate-parity
//! tests in the workspace root replay one [`schedule::Schedule`] through
//! both and demand identical outcomes; `examples/quickstart.rs` runs the socket
//! cluster in-process.

#![warn(missing_docs)]

pub mod chaos;
pub mod dispatch;
pub mod event;
pub mod metrics;
pub mod nodehost;
pub mod params;
pub mod schedule;
pub mod scheduler;
pub mod world;

pub use event::Op;
pub use metrics::{FtKind, Metrics, OpKind, Outcome, RequestRecord};
pub use params::SimParams;
pub use world::SimWorld;
