//! Shared vocabulary of the InfiniCache reproduction.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: identifiers ([`ids`]), virtual time ([`time`]), object payloads
//! ([`payload`]), the wire protocol between clients, proxies and Lambda
//! function runtimes ([`msg`]), deployment configuration ([`config`]),
//! cloud pricing constants ([`pricing`]), stable hashing ([`hash`]), the
//! consistent-hash ring used by the client library ([`ring`]), and the
//! length-prefixed binary framing for the real-socket substrate
//! ([`frame`]), and the workspace-wide error type ([`error`]).
//!
//! Nothing in this crate performs I/O or simulation; it is pure data and
//! pure functions, which keeps the protocol crates (`ic-lambda`,
//! `ic-proxy`, `ic-client`) transport-agnostic: the same state machines run
//! inside the discrete-event simulator and across real sockets.
//!
//! The workspace-level architecture book lives in `docs/ARCHITECTURE.md`;
//! the normative wire-protocol specification, rendered from
//! `docs/WIRE.md`, is embedded as [`frame::wire_spec`] (its worked
//! example is a doc-test, so the spec's bytes cannot drift from the
//! codec).
//!
//! # Example
//!
//! ```
//! use ic_common::{EcConfig, payload::Payload, time::SimDuration};
//!
//! let ec = EcConfig::new(10, 2).unwrap();
//! assert_eq!(ec.shards(), 12);
//! // A 100 MiB object splits into 10 MiB data chunks (rounded up).
//! let chunk = ec.chunk_len(100 * 1024 * 1024);
//! assert_eq!(chunk, 10 * 1024 * 1024);
//! let p = Payload::synthetic(chunk);
//! assert_eq!(p.len(), chunk);
//! assert!(SimDuration::from_millis(100) > SimDuration::from_micros(99_999));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod error;
pub mod frame;
pub mod hash;
pub mod ids;
pub mod msg;
pub mod payload;
pub mod pricing;
pub mod ring;
pub mod time;
pub mod units;

pub use config::{DeploymentConfig, EcConfig};
pub use error::{Error, Result};
pub use ids::{ChunkId, ClientId, InstanceId, LambdaId, ObjectKey, ProxyId, RelayId};
pub use payload::Payload;
pub use time::{SimDuration, SimTime};
