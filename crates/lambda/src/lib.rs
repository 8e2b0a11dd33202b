//! The InfiniCache Lambda function runtime (§3.3, Fig 7, Fig 10).
//!
//! This crate is the code that "executes inside each Lambda instance": a
//! chunk store whose recency stamps order the backup metadata MRU→LRU
//! ([`store`]), the
//! anticipatory billed-duration controller and runtime state machine
//! ([`runtime`]), and both roles of the delta-sync backup protocol
//! ([`backup`]).
//!
//! It is a *pure state machine*: every entry point
//! ([`runtime::Runtime::on_invoke`], [`runtime::Runtime::on_message`],
//! [`runtime::Runtime::on_timer`], [`runtime::Runtime::on_served`]) takes
//! the current instant and returns a list of [`runtime::Action`]s for the
//! embedding transport to execute. The discrete-event simulator and the
//! socket substrate's node daemons both embed this same type, which is
//! what makes the protocol testable without any I/O.

pub mod backup;
pub mod runtime;
pub mod store;

pub use runtime::{Action, RunState, Runtime, RuntimeConfig};
pub use store::ChunkStore;
