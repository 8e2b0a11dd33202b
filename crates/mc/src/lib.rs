//! # ic-mc — protocol model checker for the InfiniCache reproduction
//!
//! Bounded, exhaustive exploration of protocol interleavings over the
//! deterministic sim substrate. Where the chaos harness samples *one*
//! randomized schedule per seed, the checker enumerates *every* order
//! in which the currently-deliverable events — plus injected instance
//! reclaims and client disconnects — can be applied, up to a depth
//! bound, and runs the protocol auditors at every reached state:
//!
//! * `SimWorld::check_invariants` (byte accounting, mapping
//!   consistency, counter sanity) at **every** state;
//! * `chaos::audit_termination` (every request concludes) at every
//!   **terminal** state.
//!
//! The exploration is *stateless*: the protocol state machines are not
//! snapshotable, so each node is reconstructed by replaying its choice
//! path into a fresh world — which works because choices are
//! deterministic (`infinicache::scheduler::Choice`), and which is also
//! what makes a counterexample a plain replayable list of choices.
//! State-fingerprint dedup (`SimWorld::fingerprint`) keeps the search
//! from re-expanding states reached via commuting orders; optional
//! sleep-set pruning ([`McConfig::prune_commuting`]) skips such orders
//! before paying for the replay.
//!
//! On a violation the trace is shrunk (shortest violating prefix, then
//! per-choice elision, each candidate re-verified by replay) and saved
//! in a text format that `mc replay` re-executes choice-for-choice and
//! `dbg_replay --trace` replays — as an operation schedule — through
//! the sim and socket substrates.
//!
//! ## Quick start
//!
//! ```
//! use ic_mc::{explore, McConfig};
//!
//! let report = explore(&McConfig::tiny(1));
//! assert!(report.ok(), "violations: {:?}", report.violations);
//! assert!(report.states > 100); // genuinely explored a state space
//! ```

pub mod config;
pub mod explore;
pub mod trace;

pub use config::{BugHooks, McConfig, SearchMode};
pub use explore::{enabled_choices, explore, replay_violates, run_time_ordered, Report, Spent};
pub use trace::{load_trace, minimize, parse_trace, Trace, Violation, ViolationKind};
