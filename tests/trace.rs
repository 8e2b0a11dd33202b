//! Trace-engine integration tests: replay determinism on the sim
//! substrate, sim-vs-net outcome parity on the committed sample trace,
//! canonicality of the committed sample, and the chaos harness's
//! trace-sourced schedule mode.

use std::time::Duration;

use ic_common::SimDuration;
use ic_net::replay::{run, Substrate};
use ic_trace::replay::{schedule, NetReplayConfig, SimReplayConfig};
use ic_trace::synth::{synthesize, TraceGenConfig};
use ic_trace::{replay_net, replay_sim, TraceData};
use infinicache::chaos::{run_chaos, ChaosConfig};

const SAMPLE_PATH: &str = "tests/data/sample.ictrace";
/// The seed `tracebench` defaults to, which generated the committed sample.
const BENCH_SEED: u64 = 2020;

fn sample() -> TraceData {
    TraceData::load(SAMPLE_PATH).expect("committed sample trace loads")
}

/// Two sim replays of the same trace under the same config produce
/// identical reports — the replay path has no wall clocks and no
/// map-iteration order.
#[test]
fn sim_replay_is_byte_deterministic() {
    let data = synthesize(&TraceGenConfig::smoke(), BENCH_SEED);
    let cfg = SimReplayConfig::smoke(BENCH_SEED);
    let a = replay_sim(&data, &cfg);
    let b = replay_sim(&data, &cfg);
    assert_eq!(a, b, "sim replay reports must be identical");
}

/// The committed sample decodes, re-encodes byte-identically (canonical
/// form), and is exactly what the generator produces at the bench seed —
/// so regenerating it can never silently drift.
#[test]
fn committed_sample_is_canonical() {
    let data = sample();
    assert!(!data.records.is_empty());
    let bytes = std::fs::read(SAMPLE_PATH).expect("sample bytes");
    assert_eq!(
        data.to_bytes().expect("re-encodes"),
        bytes,
        "sample must re-encode byte-identically"
    );
    let regenerated = synthesize(&TraceGenConfig::sample(), BENCH_SEED);
    assert_eq!(
        data, regenerated,
        "committed sample must match the generator at seed {BENCH_SEED}"
    );
}

/// The same committed trace drives the net substrate (real loopback
/// sockets, paced arrivals, byte verification) to the *same outcome
/// sequence* as the simulator running the same schedule.
#[test]
fn sim_net_parity_on_committed_sample() {
    let data = sample();
    let cfg = NetReplayConfig {
        target_wall: Duration::from_millis(800), // keep the test quick
    };
    let net = replay_net(&data, &cfg).expect("net replay verifies");
    let oracle = schedule(&data, SimDuration::from_millis(800));
    let sim = run(&oracle, 1, Substrate::Sim).outcomes;
    assert_eq!(net.verify_failures, 0);
    assert_eq!(net.ops, data.records.len());
    assert_eq!(net.outcomes, sim, "net replay outcomes must match the sim");
}

/// Chaos regression: a trace-sourced schedule replays deterministically
/// (same seed → identical report), holds every audited invariant, and
/// still exercises the fault injector.
#[test]
fn chaos_trace_schedule_is_deterministic_and_clean() {
    let data = sample();
    let steps = schedule(&data.prefix(64), SimDuration::from_millis(4_000));
    assert_eq!(steps.steps.len(), 64.min(data.records.len()));
    let mut cfg = ChaosConfig::from_trace(BENCH_SEED, steps);
    cfg.reclaim_prob = 0.5; // make injected reclaims a certainty at 64 steps
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "trace-mode chaos must be deterministic"
    );
    assert!(a.ok(), "invariant violations: {:?}", a.violations);
    assert_eq!(a.ops, 64);
    assert!(
        a.injected_reclaims > 0,
        "trace-mode schedules must still inject faults"
    );
}
