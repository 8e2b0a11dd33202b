//! Shared substrate-parity harness for the workspace tests.
//!
//! The actual implementation lives in `ic_net::replay` — one definition
//! of the deployment shape, payload pattern, and outcome mapping shared
//! by these tests and the `dbg_replay` reproduction binary, so a
//! divergence reported here replays bit-for-bit with
//! `cargo run -p ic-bench --bin dbg_replay -- --seed N --mode all`.

#[allow(unused_imports)] // each test binary uses a different subset
pub use ic_net::replay::{replay_net, replay_sim, StepOutcome};
