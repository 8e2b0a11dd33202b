//! The trace engine: a compact, versioned trace format, a synthetic
//! production-trace generator calibrated to the paper's workload
//! characterization, and a replay engine that drives the *same* trace
//! deterministically against the sim substrate (virtual time, billing)
//! and the net substrate (real loopback sockets, paced arrivals).
//!
//! This is the load source of the paper's §5.2 evaluation — the 50-hour
//! production replay behind the 31×–96× cost-vs-ElastiCache headline —
//! packaged so every consumer (the `reproduce` figures, the `tracebench`
//! binary, the workspace parity tests, the chaos harness's trace-sourced
//! schedule mode, the elasticity/multi-tenancy roadmap items) reads one
//! format and speaks one outcome language.
//!
//! * [`mod@format`] — the `ICTR` binary format: streaming reader/writer,
//!   typed decode errors, canonical round-trips;
//! * [`synth`] — trace synthesis calibrated to the paper's
//!   Docker-registry workload (Zipfian popularity, diurnal arrivals,
//!   heavy-tailed sizes from [`model`]; first-touch-PUT and tenant knobs);
//! * [`stats`] — the Fig 1 / Table 1 statistics of a trace;
//! * [`replay`] — the sim replay (hit/availability/cost curves, baseline
//!   comparison) and the net replay (paced, byte-verified), plus
//!   projections into the chaos/parity script languages.
//!
//! # Example
//!
//! ```
//! use ic_trace::format::TraceData;
//! use ic_trace::synth::{synthesize, TraceGenConfig};
//!
//! let trace = synthesize(&TraceGenConfig::sample(), 7);
//! let bytes = trace.to_bytes().expect("encodes");
//! assert_eq!(TraceData::from_bytes(&bytes).expect("decodes"), trace);
//! ```

#![warn(missing_docs)]

pub mod format;
pub mod model;
pub mod replay;
pub mod stats;
pub mod synth;

pub use format::{TraceData, TraceError, TraceOp, TraceReader, TraceRecord, TraceWriter};
pub use replay::{
    compare_baselines, replay_net, replay_sim, NetReplayConfig, NetReplayReport, SimReplayConfig,
    SimReplayReport,
};
pub use stats::TraceStats;
pub use synth::{synthesize, TraceGenConfig};

/// The paper's "large object" threshold: 10 MB (decimal, as in the paper's
/// axis labels).
pub const LARGE_OBJECT_BYTES: u64 = 10_000_000;
