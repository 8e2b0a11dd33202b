//! Shared substrate-parity driver for the workspace tests.
//!
//! The implementation lives in `ic_net::replay` — one [`run`] over one
//! `Schedule` language, shared by these tests, the trace engine and the
//! `dbg_replay` binary — so a divergence reported here replays
//! bit-for-bit: a failing leg prints its schedule, and
//! `cargo run -p ic-bench --bin dbg_replay -- --script FILE --mode all`
//! (plus the leg's `--proxies N`) replays it from that text.

use ic_net::replay::{run, StepOutcome, Substrate};
use infinicache::schedule::Schedule;

/// Outcomes of `schedule` on a `proxies`-proxy deployment: the
/// simulator's first, the sockets' (steps back to back) second.
pub fn sim_and_net(schedule: &Schedule, proxies: u16) -> (Vec<StepOutcome>, Vec<StepOutcome>) {
    (
        run(schedule, proxies, Substrate::Sim).outcomes,
        run(schedule, proxies, Substrate::Net { time_scale: 0.0 }).outcomes,
    )
}
