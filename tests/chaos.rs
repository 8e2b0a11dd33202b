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

use infinicache::chaos::{
    run_chaos, sample_proxy_kill_plan, sample_schedule, ChaosConfig, ChaosReport,
};
use proptest::prelude::*;

mod common;
use common::{replay_net, replay_sim, StepOutcome};

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
/// the same outcomes as the discrete-event world, and every net GET is
/// byte-identical to what was stored (asserted inside `replay_net`).
/// Failures replay with
/// `cargo run -p ic-bench --bin dbg_replay -- --seed <seed> --mode all`.
#[test]
fn sampled_schedule_agrees_between_sim_and_net() {
    for seed in [11u64, 42, 1234] {
        let script = sample_schedule(seed, 24, 6);
        let sim = replay_sim(&script);
        let net = replay_net(&script);
        assert_eq!(sim, net, "seed {seed}: sim and net outcomes diverged");
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
        let script = sample_schedule(seed, 48, 12);
        let sim = replay_sim(&script);
        let live = replay_net(&script);
        assert_eq!(sim, live, "seed {seed}: sim and live outcomes diverged");
        assert!(
            sim.contains(&StepOutcome::Hit),
            "seed {seed}: schedule must produce hits"
        );
    }
}

/// Multi-proxy sim-vs-net parity: the same sampled schedules replayed
/// against a 2-proxy loopback fleet (keys ring-routed across both rings,
/// one TCP connection per proxy) still match the discrete-event world
/// step for step, with byte-identity asserted inside `replay_net_proxies`.
#[test]
fn sampled_schedule_agrees_between_sim_and_multiproxy_net() {
    for seed in [11u64, 42] {
        let script = sample_schedule(seed, 24, 8);
        let sim = ic_net::replay::replay_sim_proxies(&script, 2);
        let net = ic_net::replay::replay_net_proxies(&script, 2);
        assert_eq!(
            sim, net,
            "seed {seed}: sim and 2-proxy net outcomes diverged"
        );
        assert!(
            sim.contains(&StepOutcome::Hit),
            "seed {seed}: schedule must produce hits"
        );
    }
}

/// The fleet-level fault leg: seeded schedules against a 2-proxy socket
/// cluster with one proxy killed mid-run (no goodbye — its listener and
/// node daemons just die). Keys owned by the survivor must keep matching
/// the simulator byte-for-byte; the victim's keys must fail fast with a
/// transport error; and the client must mark exactly the victim down.
/// All asserted inside `replay_net_proxy_kill`; a failing seed replays
/// locally with `sample_proxy_kill_plan(seed, 30, 8, 2)`.
#[test]
fn multiproxy_schedule_survives_a_proxy_kill() {
    let mut survivor_total = 0;
    let mut victim_total = 0;
    for seed in [5u64, 23, 77] {
        let plan = sample_proxy_kill_plan(seed, 30, 8, 2);
        let report = ic_net::replay::replay_net_proxy_kill(&plan, 2);
        survivor_total += report.survivor_steps;
        victim_total += report.victim_steps;
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
