//! The bounded search over protocol interleavings.
//!
//! The checker is *stateless* in the model-checking sense: protocol
//! state machines are not snapshotable, so each visited node rebuilds
//! its world from the config and replays the choice path that reaches
//! it. Choices are deterministic — event sequence numbers depend only
//! on the choices applied so far — so a path is a perfect recipe for a
//! state, which is also what makes counterexample traces replayable.
//!
//! At every state the checker runs the structural invariant auditor
//! (`SimWorld::check_invariants`); at terminal states — no deliverable
//! protocol event, fault budget exhausted or unused — it additionally
//! runs the request-termination auditor (`chaos::audit_termination`).
//! Duplicate states are recognized by protocol fingerprint
//! (`SimWorld::fingerprint`) and not re-expanded; optional sleep-set
//! pruning skips one of two delivery orders whose effects commute.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

use ic_common::{ClientId, SimTime};
use infinicache::chaos::audit_termination;
use infinicache::event::Ev;
use infinicache::scheduler::Choice;
use infinicache::SimWorld;

use crate::config::{McConfig, SearchMode};
use crate::trace::{minimize, Trace, Violation, ViolationKind};

/// What one exploration did and found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct protocol states expanded.
    pub states: u64,
    /// Transitions (state → state edges) taken.
    pub transitions: u64,
    /// States reached again via a different interleaving and not
    /// re-expanded (fingerprint dedup).
    pub deduped: u64,
    /// Enabled choices skipped by sleep-set pruning of commuting
    /// deliveries (always 0 unless [`McConfig::prune_commuting`]).
    pub pruned: u64,
    /// Terminal states reached (every one passed through the
    /// termination auditor).
    pub terminals: u64,
    /// Paths cut by the depth bound before reaching a terminal.
    pub depth_cutoffs: u64,
    /// `true` when [`McConfig::max_states`] stopped the search early.
    pub capped: bool,
    /// Violations found, each with a minimized counterexample trace.
    pub violations: Vec<Violation>,
}

impl Report {
    /// `true` when the explored space contained no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How a scheduling choice's effects localize, for the independence
/// relation behind sleep-set pruning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    Client(u16),
    Proxy(u16),
    Instance(u64),
    /// Touches cross-cutting state (platform, multiple components);
    /// never independent of anything.
    Global,
}

/// Two choices are independent when their deliveries mutate disjoint
/// protocol components — applying them in either order converges on the
/// same protocol state (both may append to the shared event queue and
/// network, but the fingerprint abstracts queue positions and flow
/// timing away, which is exactly the equivalence the checker explores
/// modulo).
fn independent(a: Target, b: Target) -> bool {
    a != Target::Global && b != Target::Global && a != b
}

fn choice_target(world: &SimWorld, c: Choice) -> Target {
    let Choice::Deliver { seq } = c else {
        // Reclaims touch platform + proxy + runtime; disconnects touch
        // client + every proxy + world tables.
        return Target::Global;
    };
    let ev = world
        .pending_events()
        .into_iter()
        .find_map(|(s, _, ev)| (s == seq).then_some(ev));
    match ev {
        Some(Ev::Submit { client, .. })
        | Some(Ev::ClientRx { client, .. })
        | Some(Ev::ResetDone { client, .. }) => Target::Client(client.0),
        Some(Ev::ProxyRx { proxy, .. }) => Target::Proxy(proxy.0),
        Some(Ev::InstanceRx { instance, .. })
        | Some(Ev::InvokeReady { instance, .. })
        | Some(Ev::LambdaTimer { instance, .. }) => Target::Instance(instance.0),
        _ => Target::Global,
    }
}

/// How much of each injected-event budget a path has used up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spent {
    /// Instance reclaims injected.
    pub reclaims: usize,
    /// Client disconnects injected.
    pub disconnects: usize,
    /// `LambdaTimer` events delivered.
    pub timers: usize,
}

impl Spent {
    /// Every budget used up: only protocol events remain deliverable.
    pub const ALL: Spent = Spent {
        reclaims: usize::MAX,
        disconnects: usize::MAX,
        timers: usize::MAX,
    };
}

/// The scheduling choices enabled in `world`, in deterministic order:
/// deliverable protocol events first (time order), then injectable
/// reclaims, then injectable disconnects.
///
/// Deliberately *not* enabled:
///
/// * housekeeping ticks (`WarmupTick`, platform minute/idle ticks) —
///   they reschedule themselves forever, so a search that delivered
///   them would never reach a terminal state;
/// * stale `FlowTick`s (epoch ≠ current) — delivering one is a no-op;
/// * `LambdaTimer`s beyond [`McConfig::max_timer_fires`] —
///   billing-cycle returns don't gate request progress;
/// * a client's *later* submissions while an earlier one is still
///   queued — program order within a session is real, only the
///   interleaving *across* components is free.
pub fn enabled_choices(world: &SimWorld, cfg: &McConfig, spent: Spent) -> Vec<Choice> {
    let mut out = Vec::new();
    let flow_epoch = world.flow_epoch();
    let mut submitted: BTreeSet<ClientId> = BTreeSet::new();
    for (seq, _, ev) in world.pending_events() {
        match ev {
            Ev::WarmupTick | Ev::Platform(_) => continue,
            Ev::FlowTick { epoch } if *epoch != flow_epoch => continue,
            Ev::LambdaTimer { .. } if spent.timers >= cfg.max_timer_fires => continue,
            // Program order: a client's earliest queued submission only.
            Ev::Submit { client, .. } if !submitted.insert(*client) => continue,
            _ => {}
        }
        out.push(Choice::Deliver { seq });
    }
    if spent.reclaims < cfg.max_reclaims {
        for instance in world.platform.reclaimable_instances() {
            out.push(Choice::Reclaim { instance });
        }
    }
    if spent.disconnects < cfg.max_disconnects {
        for c in 0..cfg.clients {
            if !world.is_client_dead(ClientId(c)) {
                out.push(Choice::Disconnect {
                    client: ClientId(c),
                });
            }
        }
    }
    out
}

/// Rebuilds the world `path` describes: fresh world, replay every
/// choice. Panics if a choice fails to apply — paths produced by the
/// explorer always replay exactly (determinism is what makes the whole
/// stateless scheme work).
fn rebuild(cfg: &McConfig, path: &[Choice]) -> SimWorld {
    let mut world = cfg.build_world();
    for &c in path {
        let applied = world.apply(c);
        assert!(applied, "explorer path must replay: `{c}` not applicable");
    }
    world
}

/// Replays `choices` against a fresh world with skip-if-inapplicable
/// semantics (edited or minimized traces may contain gaps), then — if
/// the world violated nothing yet — drains every remaining deliverable
/// protocol event in time order and audits request termination.
///
/// This is the single violation predicate shared by the explorer's
/// minimizer, the `mc replay` command, and the regression tests: a
/// trace "violates" iff this returns `Some`.
pub fn replay_violates(cfg: &McConfig, choices: &[Choice]) -> Option<(ViolationKind, Vec<String>)> {
    let mut world = cfg.build_world();
    for &c in choices {
        world.apply(c); // inapplicable choices skip harmlessly
        let inv = world.check_invariants();
        if !inv.is_empty() {
            return Some((ViolationKind::Invariant, inv));
        }
    }
    // Deterministic completion: whatever the trace left pending is
    // delivered in time order (no further fault injection — every
    // budget reads as already spent). A stranded request
    // stays stranded through any completion — that is what "stranded"
    // means — so this both closes partial traces and lets the minimizer
    // elide choices that only mattered for reaching a literal terminal,
    // not for the bug.
    loop {
        let deliverable = enabled_choices(&world, cfg, Spent::ALL);
        let Some(&first) = deliverable.first() else {
            break;
        };
        world.apply(first);
        let inv = world.check_invariants();
        if !inv.is_empty() {
            return Some((ViolationKind::Invariant, inv));
        }
    }
    let term = audit_termination(&world);
    if !term.is_empty() {
        return Some((ViolationKind::Termination, term));
    }
    None
}

struct Node {
    path: Vec<Choice>,
    /// `LambdaTimer` deliveries along `path` (a `Deliver` choice does not
    /// say what it delivers, so this is counted as the path is built).
    timers: usize,
    /// Sleep set: choices enabled here whose exploration a sibling
    /// already covers (empty unless pruning is on).
    sleep: Vec<Choice>,
}

/// Explores every interleaving of `cfg`'s workload up to the depth
/// bound, checking invariants at each state and request termination at
/// each terminal state.
pub fn explore(cfg: &McConfig) -> Report {
    let mut report = Report::default();
    // fingerprint → shallowest depth expanded at. Re-expanding a state
    // reached again *shallower* keeps the depth bound honest: the first
    // (deeper) visit had less remaining budget and may have cut subtrees
    // the shallower visit can afford.
    let mut visited: HashMap<u64, usize> = HashMap::new();
    let mut frontier: VecDeque<Node> = VecDeque::new();
    frontier.push_back(Node {
        path: Vec::new(),
        timers: 0,
        sleep: Vec::new(),
    });

    while let Some(node) = match cfg.mode {
        SearchMode::Dfs => frontier.pop_back(),
        SearchMode::Bfs => frontier.pop_front(),
    } {
        if cfg.max_states != 0 && report.states >= cfg.max_states {
            report.capped = true;
            break;
        }
        let world = rebuild(cfg, &node.path);
        let depth = node.path.len();
        // A state reached again at *strictly shallower* depth is
        // re-expanded (more remaining depth budget may uncover subtrees
        // the first, deeper visit cut) but not re-counted: `states` and
        // `terminals` count distinct states, so DFS and BFS agree on
        // them whenever the depth bound never binds.
        let first_visit = match visited.entry(world.fingerprint()) {
            Entry::Occupied(mut e) => {
                if *e.get() <= depth {
                    report.deduped += 1;
                    continue;
                }
                e.insert(depth);
                false
            }
            Entry::Vacant(e) => {
                e.insert(depth);
                true
            }
        };
        if first_visit {
            report.states += 1;
        }

        let inv = world.check_invariants();
        if !inv.is_empty() {
            record_violation(cfg, &mut report, ViolationKind::Invariant, inv, &node.path);
            if cfg.stop_at_first {
                break;
            }
            continue; // don't expand past a corrupted state
        }

        let spent = Spent {
            reclaims: count(&node.path, |c| matches!(c, Choice::Reclaim { .. })),
            disconnects: count(&node.path, |c| matches!(c, Choice::Disconnect { .. })),
            timers: node.timers,
        };
        let enabled = enabled_choices(&world, cfg, spent);
        let timer_seqs: BTreeSet<u64> = if cfg.max_timer_fires == 0 {
            BTreeSet::new() // never enabled, so never chosen
        } else {
            world
                .pending_events()
                .into_iter()
                .filter(|(_, _, ev)| matches!(ev, Ev::LambdaTimer { .. }))
                .map(|(seq, _, _)| seq)
                .collect()
        };
        if enabled.is_empty() {
            if first_visit {
                report.terminals += 1;
            }
            let term = audit_termination(&world);
            if !term.is_empty() {
                record_violation(
                    cfg,
                    &mut report,
                    ViolationKind::Termination,
                    term,
                    &node.path,
                );
                if cfg.stop_at_first {
                    break;
                }
            }
            continue;
        }
        if depth >= cfg.depth {
            report.depth_cutoffs += 1;
            continue;
        }

        let sleep: Vec<Choice> = node
            .sleep
            .iter()
            .copied()
            .filter(|s| enabled.contains(s))
            .collect();
        let explore_list: Vec<Choice> = enabled
            .iter()
            .copied()
            .filter(|c| !sleep.contains(c))
            .collect();
        report.pruned += (enabled.len() - explore_list.len()) as u64;

        let targets: Vec<(Choice, Target)> = if cfg.prune_commuting {
            enabled
                .iter()
                .map(|&c| (c, choice_target(&world, c)))
                .collect()
        } else {
            Vec::new()
        };
        let target_of = |c: Choice| {
            targets
                .iter()
                .find_map(|&(tc, t)| (tc == c).then_some(t))
                .unwrap_or(Target::Global)
        };

        // DFS pops from the back: push children in reverse so the
        // time-ordered (production-like) branch explores first.
        let indices: Vec<usize> = match cfg.mode {
            SearchMode::Dfs => (0..explore_list.len()).rev().collect(),
            SearchMode::Bfs => (0..explore_list.len()).collect(),
        };
        for i in indices {
            let c = explore_list[i];
            let mut child_sleep = Vec::new();
            if cfg.prune_commuting {
                let tc = target_of(c);
                for &s in sleep.iter().chain(&explore_list[..i]) {
                    if independent(target_of(s), tc) {
                        child_sleep.push(s);
                    }
                }
            }
            let mut path = node.path.clone();
            path.push(c);
            report.transitions += 1;
            let fires = matches!(c, Choice::Deliver { seq } if timer_seqs.contains(&seq));
            frontier.push_back(Node {
                path,
                timers: node.timers + usize::from(fires),
                sleep: child_sleep,
            });
        }
    }
    report
}

fn count(path: &[Choice], pred: impl Fn(&Choice) -> bool) -> usize {
    path.iter().filter(|c| pred(c)).count()
}

fn record_violation(
    cfg: &McConfig,
    report: &mut Report,
    kind: ViolationKind,
    messages: Vec<String>,
    path: &[Choice],
) {
    let minimized = minimize(cfg, path);
    // The minimizer re-verifies via the shared predicate; its kind and
    // messages (possibly an earlier manifestation) supersede the
    // search's when they differ.
    let (kind, messages) = replay_violates(cfg, &minimized).unwrap_or((kind, messages));
    report.violations.push(Violation {
        kind,
        messages,
        trace: Trace {
            cfg: cfg.clone(),
            choices: minimized,
        },
    });
}

/// Runs a world to a quiet horizon under the production time-ordered
/// scheduler — a sanity baseline the tests use to confirm a config's
/// workload completes cleanly outside the checker.
pub fn run_time_ordered(cfg: &McConfig) -> SimWorld {
    let mut world = cfg.build_world();
    world.run_until(SimTime::from_secs(120));
    world
}
