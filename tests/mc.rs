//! Model-checker integration tests: exhaustive exploration of the
//! small presets stays violation-free, the revert-detection hooks are
//! each re-found with a minimal counterexample, and the committed
//! counterexample traces in `tests/data/` keep reproducing (and keep
//! replaying cleanly — as schedules — across both execution
//! substrates).
//!
//! Exploration here runs in debug mode, so every leg uses a preset
//! whose state space is a few thousand states; the uncapped soak runs
//! live in CI against the release binary (`mc explore`).

use std::path::PathBuf;

use ic_mc::{
    explore, load_trace, parse_trace, replay_violates, McConfig, SearchMode, ViolationKind,
};
use ic_net::replay::StepOutcome;

mod common;
use common::sim_and_net;

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

fn uncapped(mut cfg: McConfig) -> McConfig {
    cfg.max_states = 0;
    cfg
}

/// Why the presets' exact state and transition counts are pinned: the
/// protocol fingerprint decides which states merge, so a change to what
/// a runtime, store or proxy hashes (or to what a step does) moves the
/// counts even when every explored state stays clean.
const PINNED: &str = "exact count moved: a fingerprint or a protocol step changed";

/// The tiny preset (settled PUT, explored GET) is exhaustively
/// explorable: the search hits neither the state cap nor the depth
/// bound, visits a real state space, and finds nothing wrong.
#[test]
fn tiny_preset_explores_exhaustively_with_no_violations() {
    let report = explore(&uncapped(McConfig::tiny(1)));
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(!report.capped, "tiny must be exhaustible");
    assert_eq!(
        (report.states, report.transitions),
        (757, 2_625),
        "{PINNED}"
    );
    assert_eq!(report.depth_cutoffs, 0, "tiny must terminate within depth");
    assert!(
        report.states > 500,
        "state space too small: {}",
        report.states
    );
    assert!(report.terminals >= 1, "no terminal state audited");
    assert!(report.deduped > 0, "commuting orders should converge");
}

/// The acceptance-criteria config — 1 proxy, 2 clients, an injected
/// instance reclaim available to the scheduler — is exhaustively
/// explored with zero violations, and the reclaim branches genuinely
/// widen the space (a fault budget that changes nothing checks
/// nothing).
#[test]
fn small_preset_with_injected_reclaim_is_clean_and_exhaustive() {
    let with_reclaim = explore(&uncapped(McConfig::small(1)));
    assert!(
        with_reclaim.ok(),
        "violations: {:#?}",
        with_reclaim.violations
    );
    assert!(!with_reclaim.capped);
    assert_eq!(with_reclaim.depth_cutoffs, 0);
    assert_eq!(
        (with_reclaim.states, with_reclaim.transitions),
        (2_647, 8_607),
        "{PINNED}"
    );

    let mut no_faults = uncapped(McConfig::small(1));
    no_faults.max_reclaims = 0;
    let without = explore(&no_faults);
    assert!(
        with_reclaim.states > without.states,
        "reclaim branches must add states ({} vs {})",
        with_reclaim.states,
        without.states
    );
}

/// The write path with nothing settled away: a whole PUT onto a cold
/// pool — invokes, PONG flushes, chunk stores, acks — is exhaustively
/// explorable and clean.
#[test]
fn unsettled_put_preset_is_clean_and_exhaustive() {
    let report = explore(&uncapped(McConfig::put(1)));
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(!report.capped, "put must be exhaustible");
    assert_eq!(
        (report.states, report.transitions),
        (1_664, 3_973),
        "{PINNED}"
    );
    assert_eq!(report.depth_cutoffs, 0, "put must terminate within depth");
    assert!(
        report.states > 1000,
        "state space too small: {}",
        report.states
    );
    assert!(report.terminals >= 1, "no terminal state audited");
}

/// The data-first read path: the PUT settled only as far as its
/// `PutDone`, so the GET meets `Active` homes; one billing cycle may end
/// and one instance be reclaimed under it. Exhaustive and clean — and
/// the fault budgets genuinely reach the release path: without them the
/// GET is two queries and two answers.
#[test]
fn read_preset_explores_data_first_gets_exhaustively() {
    let report = explore(&uncapped(McConfig::read(1)));
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(!report.capped, "read must be exhaustible");
    assert_eq!(
        (report.states, report.transitions),
        (6_951, 25_394),
        "{PINNED}"
    );
    assert_eq!(report.depth_cutoffs, 0, "read must terminate within depth");
    assert!(report.terminals >= 1, "no terminal state audited");

    let mut healthy = uncapped(McConfig::read(1));
    healthy.max_timer_fires = 0;
    healthy.max_reclaims = 0;
    let without = explore(&healthy);
    assert!(without.ok(), "violations: {:#?}", without.violations);
    assert!(
        without.states < 100 && report.states > 50 * without.states,
        "a healthy data-first GET is a handful of states ({}); returns and \
         reclaims under it must add the rest ({})",
        without.states,
        report.states
    );
    // The explored worlds really are warm: the time-ordered run of the
    // same config admits its GET data-first and releases nothing.
    let world = ic_mc::run_time_ordered(&McConfig::read(1));
    let stats = world.proxy_stats(ic_common::ProxyId(0));
    assert_eq!(
        (stats.data_first_gets, stats.parity_releases_admission),
        (1, 0)
    );
    assert_eq!(world.proxies()[0].held_parity_total(), 0);
}

/// DFS and BFS visit the same deduped state space (they disagree only
/// on order), so the two searches cross-check each other's frontier
/// bookkeeping.
#[test]
fn dfs_and_bfs_agree_on_the_tiny_state_space() {
    let dfs = explore(&uncapped(McConfig::tiny(1)));
    let mut bfs_cfg = uncapped(McConfig::tiny(1));
    bfs_cfg.mode = SearchMode::Bfs;
    let bfs = explore(&bfs_cfg);
    assert_eq!(dfs.states, bfs.states);
    assert_eq!(dfs.terminals, bfs.terminals);
}

/// Sleep-set pruning actually prunes (the report's `pruned` count is
/// nonzero), visits no more states than the unpruned search, and still
/// finds nothing wrong on the clean preset.
#[test]
fn sleep_set_pruning_shrinks_the_search_and_stays_clean() {
    let full = explore(&uncapped(McConfig::tiny(1)));
    let mut pruned_cfg = uncapped(McConfig::tiny(1));
    pruned_cfg.prune_commuting = true;
    let pruned = explore(&pruned_cfg);
    assert!(pruned.ok(), "violations: {:#?}", pruned.violations);
    assert!(pruned.pruned > 0, "pruning must skip some commuting orders");
    assert!(
        pruned.transitions < full.transitions,
        "pruning must take fewer transitions ({} vs {})",
        pruned.transitions,
        full.transitions
    );
}

/// Revert detection, leg 1: with the client's pre-accept answer buffer
/// disabled (the historical "answer overtakes `GetAccepted`" loss bug),
/// the checker finds a termination counterexample, minimizes it to a
/// locally-minimal choice list, and the counterexample replays.
#[test]
fn reverted_early_answer_fix_is_redetected_with_minimal_counterexample() {
    let mut cfg = uncapped(McConfig::tiny(1));
    cfg.hooks.drop_early_answers = true;
    let report = explore(&cfg);
    let v = report
        .violations
        .first()
        .expect("the resurrected bug must be found");
    assert_eq!(v.kind, ViolationKind::Termination);
    assert!(
        v.trace.choices.len() <= 16,
        "counterexample not small: {} choices",
        v.trace.choices.len()
    );
    assert!(
        replay_violates(&cfg, &v.trace.choices).is_some(),
        "minimized counterexample must replay to the violation"
    );
    // Local minimality: the minimizer ran elision to fixpoint, so no
    // single choice can be dropped without losing the violation.
    for i in 0..v.trace.choices.len() {
        let mut shorter = v.trace.choices.clone();
        shorter.remove(i);
        assert!(
            replay_violates(&cfg, &shorter).is_none(),
            "choice {i} is elidable — trace was not minimal"
        );
    }
}

/// Revert detection, leg 2: with the proxy's stale-answer re-query
/// disabled (the historical "stale chunk answer swallowed" bug), the
/// overwrite-race preset yields a termination counterexample — the
/// reader's GET strands along with the proxy-side waiter.
#[test]
fn reverted_stale_requery_fix_is_redetected() {
    let mut cfg = McConfig::race(1);
    cfg.hooks.drop_stale_requery = true;
    // The race space is too large to exhaust in debug mode; the bug
    // sits close to the production order, so DFS finds it early.
    cfg.max_states = 50_000;
    let report = explore(&cfg);
    let v = report
        .violations
        .first()
        .expect("the resurrected bug must be found");
    assert_eq!(v.kind, ViolationKind::Termination);
    assert!(
        replay_violates(&cfg, &v.trace.choices).is_some(),
        "minimized counterexample must replay to the violation"
    );
}

/// The committed counterexamples stay live: each trace in `tests/data/`
/// replays choice-for-choice to exactly the violation recorded in the
/// file. If a protocol change makes one replay cleanly, the regression
/// it documents is gone — regenerate the trace (see `tests/chaos.rs`
/// for the promotion workflow).
#[test]
fn committed_counterexample_traces_reproduce_their_violations() {
    for file in ["counterexample_early.mc", "counterexample_stale.mc"] {
        let (cfg, choices, recorded) =
            load_trace(&data(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!recorded.is_empty(), "{file}: no recorded violation");
        let (kind, messages) = replay_violates(&cfg, &choices)
            .unwrap_or_else(|| panic!("{file}: recorded violation no longer reproduces"));
        assert_eq!(kind, ViolationKind::Termination, "{file}");
        assert_eq!(messages, recorded, "{file}: violation drifted");
    }
}

/// A violation's trace file round-trips: rendering and re-parsing
/// yields the same deployment, workload, hooks, and choice list.
#[test]
fn trace_file_text_round_trips() {
    let mut cfg = uncapped(McConfig::tiny(7));
    cfg.hooks.drop_early_answers = true;
    let report = explore(&cfg);
    let v = report.violations.first().expect("violation expected");
    let text = v.to_file_text();
    let (parsed, choices, recorded) = parse_trace(&text).expect("rendered trace must parse");
    assert_eq!(choices, v.trace.choices);
    assert_eq!(recorded.len(), v.messages.len());
    assert_eq!(parsed.proxies, cfg.proxies);
    assert_eq!(parsed.clients, cfg.clients);
    assert_eq!(parsed.lambdas_per_proxy, cfg.lambdas_per_proxy);
    assert_eq!(parsed.seed, cfg.seed);
    assert_eq!(parsed.settle_prefix, cfg.settle_prefix);
    assert_eq!(parsed.hooks, cfg.hooks);
    assert_eq!(parsed.ops, cfg.ops);
}

/// The committed traces' `op` lines are the `Schedule` text form: they
/// parse, and the parsed schedule re-renders them byte for byte.
#[test]
fn committed_counterexample_op_lines_re_render_byte_for_byte() {
    for file in ["counterexample_early.mc", "counterexample_stale.mc"] {
        let text = std::fs::read_to_string(data(file)).expect("committed trace");
        let (cfg, _, _) = parse_trace(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let op_lines: String = text
            .lines()
            .filter(|l| l.starts_with("op "))
            .map(|l| format!("{}\n", &l["op ".len()..]))
            .collect();
        assert!(!op_lines.is_empty(), "{file}: no op lines");
        assert_eq!(cfg.ops.to_string(), op_lines, "{file}");
    }
}

/// The committed traces' *schedules* (their `op` lines) replay
/// identically through the discrete-event world and the loopback socket
/// cluster — the in-test equivalent of
/// `dbg_replay --trace tests/data/<file> --mode all`. The adversarial
/// interleaving only exists under the sim scheduler (that is `mc
/// replay`'s job); this guards the portability of the workload itself.
#[test]
fn counterexample_schedules_replay_identically_across_substrates() {
    for file in ["counterexample_early.mc", "counterexample_stale.mc"] {
        let (cfg, _, _) = load_trace(&data(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (sim, net) = sim_and_net(&cfg.ops, 1);
        assert_eq!(sim, net, "{file}: sim and net diverged");
        assert!(
            sim.contains(&StepOutcome::Hit),
            "{file}: schedule must produce a hit"
        );
    }
}
