//! The chaos suite: seeded fault-injection schedules driven through the
//! full stack with the invariant auditor checking request termination,
//! byte accounting, and mapping consistency throughout (see
//! `infinicache::chaos` for the harness itself).
//!
//! The seed matrix is fixed so CI failures replay locally:
//! `run_chaos(&ChaosConfig::small(seed))` with the reported seed
//! reproduces the exact schedule. `CHAOS_SEEDS` widens the matrix (e.g.
//! `CHAOS_SEEDS=500 cargo test --test chaos`) for soak runs.
//!
//! Counterexample promotion: when the model checker (`ic-mc`) finds an
//! interleaving this sampled matrix missed, don't widen the matrix and
//! hope — commit the minimized trace under `tests/data/` and pin it in
//! `tests/mc.rs` (`mc explore ... --trace-out` writes the file;
//! `committed_counterexample_traces_reproduce_their_violations` keeps
//! it replaying). A chaos seed covers a *distribution*; a committed
//! trace covers the exact order that broke.

use ic_net::replay::{run, StepOutcome, Substrate};
use infinicache::chaos::{run_chaos, ChaosConfig, ChaosReport};
use infinicache::schedule::Schedule;
use proptest::prelude::*;

mod common;
use common::sim_and_net;

fn seed_matrix() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
}

/// The headline test: ≥ 50 seeded schedules over 2 proxies / 4 clients
/// mixing reclaims, delivery failures, evictions, and overwrites, with
/// every audited invariant holding on each — and the fault classes
/// actually exercised in aggregate (a chaos harness that injects nothing
/// proves nothing).
#[test]
fn chaos_seed_matrix_holds_all_invariants() {
    // Half the seeds run the paced schedule, half the tight one whose
    // overlapping operations land evictions/overwrites inside open
    // request windows (the interleavings that caught the lifecycle bugs).
    let reports: Vec<ChaosReport> = (0..seed_matrix())
        .map(|seed| {
            if seed % 2 == 0 {
                run_chaos(&ChaosConfig::small(seed))
            } else {
                run_chaos(&ChaosConfig::tight(seed))
            }
        })
        .collect();

    let failing: Vec<String> = reports
        .iter()
        .filter(|r| !r.ok())
        .map(|r| format!("seed {}: {:#?}", r.seed, r.violations))
        .collect();
    assert!(
        failing.is_empty(),
        "invariant violations:\n{}",
        failing.join("\n")
    );

    let total = |f: fn(&ChaosReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(
        total(|r| r.evictions) > 0,
        "schedules must trigger CLOCK evictions"
    );
    assert!(
        total(|r| r.overwrites) > 0,
        "schedules must trigger overwrites"
    );
    assert!(
        total(|r| r.injected_reclaims as u64) > 0,
        "schedules must reclaim instances"
    );
    assert!(
        total(|r| r.delivery_failures) > 0,
        "reclaims must hit messages in flight (connection resets)"
    );
    assert!(
        total(|r| r.data_first_gets) > 0,
        "overlapping GETs must meet healthy stripes and read them data-first"
    );
    assert!(
        total(|r| r.parity_releases) > 0,
        "faults must land inside data-first GETs and release their parity"
    );
    assert!(
        total(|r| r.failed_puts) > 0,
        "evictions/overwrites must race open PUTs"
    );
    assert!(
        total(|r| r.recoveries + r.unrecoverable) > 0,
        "reclaims must cost chunks mid-GET"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Short randomized schedules from arbitrary seeds — beyond the fixed
    /// matrix — also keep every invariant.
    #[test]
    fn chaos_short_schedules_hold_invariants(seed in 0u64..1_000_000) {
        let mut cfg = ChaosConfig::small(seed);
        cfg.steps = 40;
        let report = run_chaos(&cfg);
        prop_assert!(report.ok(), "seed {}: {:?}", seed, report.violations);
    }
}

/// Parity leg of the chaos harness: a *sampled* (not hand-written)
/// PUT/GET/overwrite schedule replayed against a loopback `ic-net`
/// cluster (real TCP between proxy, node daemons, and client) produces
/// the same outcomes as the discrete-event world — a net GET that
/// returns anything but the key's last stored version is `Corrupt`, so
/// the one comparison covers the bytes too. A failure prints the
/// schedule; `dbg_replay --seed <seed> --mode all` replays it as well.
#[test]
fn sampled_schedule_agrees_between_sim_and_net() {
    for seed in [11u64, 42, 1234] {
        let schedule = Schedule::sample(seed, 24, 6);
        let (sim, net) = sim_and_net(&schedule, 1);
        assert_eq!(sim, net, "seed {seed} diverged on:\n{schedule}");
        assert!(
            sim.contains(&StepOutcome::Hit),
            "seed {seed}: schedule must produce hits"
        );
    }
}

/// The same parity on longer schedules over a wider key space, so the
/// live socket cluster serves more overwrites and reads of older
/// objects between its PUTs.
#[test]
fn sampled_schedule_agrees_between_sim_and_live() {
    for seed in [11u64, 42] {
        let schedule = Schedule::sample(seed, 48, 12);
        let (sim, live) = sim_and_net(&schedule, 1);
        assert_eq!(sim, live, "seed {seed} diverged on:\n{schedule}");
        assert!(
            sim.contains(&StepOutcome::Hit),
            "seed {seed}: schedule must produce hits"
        );
    }
}

/// Multi-proxy sim-vs-net parity: the same sampled schedules replayed
/// against a 2-proxy loopback fleet (keys ring-routed across both rings,
/// one TCP connection per proxy) still match the discrete-event world
/// step for step.
#[test]
fn sampled_schedule_agrees_between_sim_and_multiproxy_net() {
    for seed in [11u64, 42] {
        let schedule = Schedule::sample(seed, 24, 8);
        let (sim, net) = sim_and_net(&schedule, 2);
        assert_eq!(sim, net, "seed {seed} diverged on 2 proxies:\n{schedule}");
        assert!(
            sim.contains(&StepOutcome::Hit),
            "seed {seed}: schedule must produce hits"
        );
    }
}

/// The fleet-level fault leg: seeded schedules against a 2-proxy socket
/// cluster with one proxy killed mid-run (no goodbye — its listener and
/// node daemons just die). Every later op on a key the victim owns is
/// `Unavailable` — on the sockets a fast transport error, in the
/// simulator the same ring route — and every other op still matches
/// the simulator, bytes included. A failure prints the schedule;
/// `dbg_replay --script FILE --proxies 2 --mode all` replays it.
#[test]
fn multiproxy_schedule_survives_a_proxy_kill() {
    let mut survivor_total = 0;
    let mut victim_total = 0;
    for seed in [5u64, 23, 77] {
        let schedule = Schedule::sample_proxy_kill(seed, 30, 8, 2);
        let (sim, net) = sim_and_net(&schedule, 2);
        assert_eq!(sim, net, "seed {seed} diverged on 2 proxies:\n{schedule}");
        let (survivors, victims) = after_the_kill(&sim);
        survivor_total += survivors;
        victim_total += victims;
    }
    // The matrix as a whole must exercise both sides of the partition
    // (any single seed might, by ring luck, skew heavily one way).
    assert!(
        survivor_total > 0,
        "no post-kill traffic landed on surviving proxies"
    );
    assert!(
        victim_total > 0,
        "no post-kill traffic landed on the killed proxy"
    );
}

/// `tests/data/proxy_kill.txt` (which CI replays through `dbg_replay`)
/// is `Schedule::sample_proxy_kill(5, 30, 8, 2)`, and in the simulator
/// ops land on both sides of the kill.
#[test]
fn committed_proxy_kill_schedule_is_the_sampled_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/proxy_kill.txt");
    let text = std::fs::read_to_string(path).expect("committed schedule");
    let committed: Schedule = text.parse().expect("committed schedule parses");
    assert_eq!(committed, Schedule::sample_proxy_kill(5, 30, 8, 2));
    let (survivors, victims) = after_the_kill(&run(&committed, 2, Substrate::Sim).outcomes);
    assert!(survivors > 0 && victims > 0, "{survivors} / {victims}");
}

/// Ops after a schedule's kill step: `(survivor, victim)` counts.
fn after_the_kill(outcomes: &[StepOutcome]) -> (usize, usize) {
    let kill = outcomes
        .iter()
        .position(|o| *o == StepOutcome::Killed)
        .expect("the schedule kills a proxy");
    let after = &outcomes[kill + 1..];
    let victims = after
        .iter()
        .filter(|o| **o == StepOutcome::Unavailable)
        .count();
    (after.len() - victims, victims)
}
