//! Counterexample traces: minimization, and a text format that both
//! `mc replay` and `dbg_replay --trace` consume.
//!
//! A trace file is self-contained: it embeds the deployment shape, the
//! workload (as `op` lines: each is `op ` followed by one line of the
//! `Schedule` text form, so the cross-substrate harness can replay the
//! *schedule* through the sim and real sockets), the choice sequence
//! that reaches the violation, and the violation messages for the
//! record. Lines:
//!
//! ```text
//! # free-form comments
//! config proxies=1 clients=2 nodes=4 ec=2+1 seed=1 settle=1 warm=0 hooks=early
//! op 0 put k0 6000
//! op 1 get k0
//! choice deliver 12
//! choice reclaim 3
//! choice disconnect 1
//! violation termination: GET of k0 by client1 never concluded
//! ```

use std::fmt::Write as _;
use std::path::Path;

use ic_common::{ClientId, EcConfig, InstanceId};
use infinicache::scheduler::Choice;

use crate::config::{BugHooks, McConfig};
use crate::explore::replay_violates;

/// Which auditor a counterexample falsifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A structural invariant broke (byte accounting, mapping
    /// consistency, request-counter sanity) — checked at every state.
    Invariant,
    /// A request never concludes — checked at terminal states.
    Termination,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Invariant => write!(f, "invariant"),
            ViolationKind::Termination => write!(f, "termination"),
        }
    }
}

/// A replayable counterexample: the config that builds the world plus
/// the choice sequence that reaches the violation.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The exploration config (embedded so a saved trace replays
    /// without out-of-band context).
    pub cfg: McConfig,
    /// The minimized choice sequence.
    pub choices: Vec<Choice>,
}

/// One violation the explorer found.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which auditor fired.
    pub kind: ViolationKind,
    /// The auditor's messages (one line per broken property).
    pub messages: Vec<String>,
    /// Minimized counterexample.
    pub trace: Trace,
}

/// Shrinks a violating choice path to a locally-minimal counterexample:
/// first truncate to the shortest violating prefix, then repeatedly try
/// dropping individual choices (choice elision) until no single elision
/// preserves the violation.
///
/// Elision is well-defined because replay skips inapplicable choices —
/// removing a choice can only make later ones inapplicable, never
/// reinterpret them — and every candidate is re-verified by actual
/// replay, so the result is always a true counterexample.
pub fn minimize(cfg: &McConfig, path: &[Choice]) -> Vec<Choice> {
    let mut best: Vec<Choice> = path.to_vec();
    // Shortest violating prefix (linear from the front: violations are
    // typically carried forward once introduced, so the first hit wins).
    for len in 0..best.len() {
        if replay_violates(cfg, &best[..len]).is_some() {
            best.truncate(len);
            break;
        }
    }
    // Choice elision to fixpoint, scanning back-to-front so indices
    // stay valid across removals within one pass.
    loop {
        let mut changed = false;
        let mut i = best.len();
        while i > 0 {
            i -= 1;
            let mut candidate = best.clone();
            candidate.remove(i);
            if replay_violates(cfg, &candidate).is_some() {
                best = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    best
}

impl Violation {
    /// Renders the trace-file text (see the module docs for the
    /// format).
    pub fn to_file_text(&self) -> String {
        let cfg = &self.trace.cfg;
        let mut s = String::new();
        let _ = writeln!(s, "# ic-mc counterexample trace");
        let _ = writeln!(
            s,
            "# replay:  mc replay --trace <this file>   (full interleaving, sim)"
        );
        let _ = writeln!(
            s,
            "# cross-substrate schedule replay:  dbg_replay --trace <this file> --mode all"
        );
        let hooks = match (cfg.hooks.drop_early_answers, cfg.hooks.drop_stale_requery) {
            (false, false) => "none",
            (true, false) => "early",
            (false, true) => "stale",
            (true, true) => "early,stale",
        };
        let _ = writeln!(
            s,
            "config proxies={} clients={} nodes={} ec={}+{} seed={} settle={} warm={} hooks={hooks}",
            cfg.proxies,
            cfg.clients,
            cfg.lambdas_per_proxy,
            cfg.ec.data,
            cfg.ec.parity,
            cfg.seed,
            cfg.settle_prefix,
            u8::from(cfg.settle_warm),
        );
        for line in cfg.ops.to_string().lines() {
            let _ = writeln!(s, "op {line}");
        }
        for c in &self.trace.choices {
            let _ = writeln!(s, "choice {c}");
        }
        for m in &self.messages {
            // Auditor messages are already kind-prefixed ("termination:
            // ..."); don't double the prefix.
            let prefix = format!("{}: ", self.kind);
            let m = m.strip_prefix(&prefix).unwrap_or(m);
            let _ = writeln!(s, "violation {}: {m}", self.kind);
        }
        s
    }

    /// Writes the trace file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_file_text())
    }
}

/// Parses a trace file back into a replayable `(config, choices)` pair
/// plus the recorded violation lines. Search-bound fields of the
/// returned config take the defaults of [`McConfig::tiny`]; replay only
/// needs the deployment, workload, seed, and hooks.
pub fn parse_trace(text: &str) -> Result<(McConfig, Vec<Choice>, Vec<String>), String> {
    let mut cfg: Option<McConfig> = None;
    let mut ops = String::new();
    let mut choices = Vec::new();
    let mut recorded = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
        let mut words = line.split_whitespace();
        match words.next() {
            Some("config") => {
                let mut c = McConfig::tiny(0);
                c.ops.steps.clear();
                for kv in words {
                    let (k, v) = kv.split_once('=').ok_or_else(|| err("bad config field"))?;
                    match k {
                        "proxies" => c.proxies = v.parse().map_err(|_| err("bad proxies"))?,
                        "clients" => c.clients = v.parse().map_err(|_| err("bad clients"))?,
                        "nodes" => {
                            c.lambdas_per_proxy = v.parse().map_err(|_| err("bad nodes"))?;
                        }
                        "ec" => {
                            let (d, p) = v.split_once('+').ok_or_else(|| err("bad ec"))?;
                            c.ec = EcConfig::new(
                                d.parse().map_err(|_| err("bad ec data"))?,
                                p.parse().map_err(|_| err("bad ec parity"))?,
                            )
                            .map_err(|e| err(&format!("invalid ec: {e}")))?;
                        }
                        "seed" => c.seed = v.parse().map_err(|_| err("bad seed"))?,
                        "settle" => {
                            c.settle_prefix = v.parse().map_err(|_| err("bad settle"))?;
                        }
                        "warm" => c.settle_warm = v == "1",
                        "hooks" => {
                            c.hooks = BugHooks {
                                drop_early_answers: v.contains("early"),
                                drop_stale_requery: v.contains("stale"),
                            };
                        }
                        _ => return Err(err("unknown config field")),
                    }
                }
                cfg = Some(c);
            }
            Some("op") => {
                ops.push_str(&line["op".len()..]);
                ops.push('\n');
            }
            Some("choice") => {
                let kind = words.next().ok_or_else(|| err("empty choice"))?;
                let arg: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("choice needs a numeric argument"))?;
                choices.push(match kind {
                    "deliver" => Choice::Deliver { seq: arg },
                    "reclaim" => Choice::Reclaim {
                        instance: InstanceId(arg),
                    },
                    "disconnect" => Choice::Disconnect {
                        client: ClientId(arg as u16),
                    },
                    _ => return Err(err("choice must be deliver|reclaim|disconnect")),
                });
            }
            Some("violation") => {
                recorded.push(line["violation ".len()..].to_string());
            }
            _ => return Err(err("unknown line")),
        }
    }
    let mut cfg = cfg.ok_or("trace has no config line")?;
    cfg.ops = ops.parse().map_err(|e| format!("op {e}"))?;
    Ok((cfg, choices, recorded))
}

/// Loads a trace file (see [`parse_trace`]).
pub fn load_trace(path: &Path) -> Result<(McConfig, Vec<Choice>, Vec<String>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_trace(&text)
}
