//! One schedule language for every replay: an ordered list of timed
//! steps, each a client's PUT or GET or a fault.
//!
//! Every source of traffic the harnesses replay becomes a [`Schedule`]:
//! the seeded samplers ([`Schedule::sample`],
//! [`Schedule::sample_proxy_kill`]), a trace file
//! (`ic_trace::replay::schedule`), a model-checker counterexample (its
//! `op` lines) and a hand-written script. One driver,
//! `ic_net::replay::run`, pushes a schedule through the simulator or the
//! sockets, and [`Schedule::ops`] is the one place a GET learns the size
//! it should expect.
//!
//! The text form is one step per line, `[@SECS] [CLIENT] ACTION`, where
//! `ACTION` is `put KEY SIZE`, `get KEY` or `kill-proxy PROXY`; `#`
//! starts a comment. A line without `@SECS` arrives [`Schedule::GAP`]
//! after the previous step (the first at `GAP`), a line without a client
//! is client 0. [`Display`](std::fmt::Display) prints the client always
//! and the time only where it differs from that default, so parsing the
//! printed text gives back the same schedule:
//!
//! ```text
//! 0 put k0 6000
//! 1 get k0
//! @35.500000 0 kill-proxy 1
//! 0 get k1
//! ```

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use ic_common::{ObjectKey, Payload, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::Op;

/// What one step does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Store `size` bytes under `key` (an overwrite if the key exists).
    Put {
        /// Object key.
        key: String,
        /// Object size in bytes.
        size: u64,
    },
    /// Read `key`; misses if it was never stored.
    Get {
        /// Object key.
        key: String,
    },
    /// Kill this proxy, with no goodbye: every later op on a key it owns
    /// is unavailable.
    KillProxy(u16),
}

/// One timed step of a [`Schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// When the step arrives (a lower bound: a driver that runs its
    /// steps one at a time starts a step no earlier than the previous
    /// one concluded).
    pub at: SimTime,
    /// The client that issues the step (ignored by faults).
    pub client: u16,
    /// What the step does.
    pub action: Action,
}

/// An ordered list of timed steps (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The steps, in the order they are issued.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// The arrival gap of an untimed step: long enough that a fault-free
    /// operation concludes and its nodes go back to sleep before the
    /// next one arrives.
    pub const GAP: SimDuration = SimDuration::from_secs(10);

    /// Client 0 issues `actions` one [`GAP`](Self::GAP) apart, the first
    /// at `GAP`.
    fn untimed(actions: impl IntoIterator<Item = Action>) -> Self {
        let gap = Self::GAP.as_micros();
        let steps = (1..).zip(actions).map(|(i, action)| Step {
            at: SimTime::from_micros(i * gap),
            client: 0,
            action,
        });
        Schedule {
            steps: steps.collect(),
        }
    }

    /// Samples a deterministic PUT/GET/overwrite schedule over a small
    /// key space: client 0, untimed. The chaos suite replays it through
    /// the simulator and the sockets and asserts the outcomes agree.
    pub fn sample(seed: u64, steps: usize, key_space: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5c71_0700);
        let mut known = Vec::new();
        Self::untimed((0..steps).map(|_| {
            let k = rng.gen_range(0..key_space);
            let key = format!("pk{k}");
            // Bias early steps toward PUTs so later GETs mostly hit, but
            // keep never-written keys possible (miss coverage).
            let first = !known.contains(&k) && rng.gen::<f64>() < 0.7;
            if first {
                known.push(k);
            }
            if first || rng.gen::<f64>() < 0.35 {
                Action::Put {
                    key,
                    size: rng.gen_range(10_000..120_000),
                }
            } else {
                Action::Get { key }
            }
        }))
    }

    /// [`Schedule::sample`] with one of `proxies` proxies killed
    /// mid-run: the kill step lands before op `kill_after`, drawn from
    /// the middle half of the ops so every ring holds data by then.
    /// Same seed, same schedule.
    pub fn sample_proxy_kill(seed: u64, steps: usize, key_space: usize, proxies: u16) -> Self {
        assert!(proxies > 0, "a deployment needs at least one proxy");
        let ops = Self::sample(seed, steps, key_space);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9bad_c0de);
        let lo = (steps / 4).max(1);
        let hi = (steps * 3 / 4).max(lo + 1);
        let kill_after = rng.gen_range(lo..hi);
        let victim = rng.gen_range(0..proxies);
        let mut actions: Vec<Action> = ops.steps.into_iter().map(|s| s.action).collect();
        actions.insert(kill_after.min(actions.len()), Action::KillProxy(victim));
        Self::untimed(actions)
    }

    /// Each step with the world operation it submits, `None` for a
    /// fault. A GET carries the size of its key's last PUT before it
    /// (0 when the key was never written: the GET will miss).
    pub fn ops(&self) -> impl Iterator<Item = (&Step, Option<Op>)> {
        let mut sizes: HashMap<&str, u64> = HashMap::new();
        self.steps.iter().map(move |step| {
            let op = match &step.action {
                Action::Put { key, size } => {
                    sizes.insert(key, *size);
                    Some(Op::Put {
                        key: ObjectKey::new(key),
                        payload: Payload::synthetic(*size),
                    })
                }
                Action::Get { key } => Some(Op::Get {
                    key: ObjectKey::new(key),
                    size: sizes.get(key.as_str()).copied().unwrap_or(0),
                }),
                Action::KillProxy(_) => None,
            };
            (step, op)
        })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Put { key, size } => write!(f, "put {key} {size}"),
            Action::Get { key } => write!(f, "get {key}"),
            Action::KillProxy(p) => write!(f, "kill-proxy {p}"),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut prev = SimTime::ZERO;
        for step in &self.steps {
            if step.at != prev + Self::GAP {
                let us = step.at.as_micros();
                write!(f, "@{}.{:06} ", us / 1_000_000, us % 1_000_000)?;
            }
            writeln!(f, "{} {}", step.client, step.action)?;
            prev = step.at;
        }
        Ok(())
    }
}

/// Parses `SECS[.FRACTION]` (at most six fraction digits).
fn parse_time(text: &str) -> Option<SimTime> {
    let (secs, frac) = text.split_once('.').unwrap_or((text, ""));
    let frac = format!("{frac:0<6}");
    if frac.len() != 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let micros = secs.parse::<u64>().ok()?.checked_mul(1_000_000)?;
    Some(SimTime::from_micros(
        micros.checked_add(frac.parse().ok()?)?,
    ))
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        let mut steps = Vec::new();
        let mut prev = SimTime::ZERO;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", n + 1);
            let mut words = line.split_whitespace().peekable();
            let mut at = prev + Self::GAP;
            if let Some(t) = words.peek().and_then(|w| w.strip_prefix('@')) {
                at = parse_time(t).ok_or_else(|| err("bad @time"))?;
                words.next();
            }
            let mut client = 0;
            if let Some(c) = words.peek().and_then(|w| w.parse().ok()) {
                client = c;
                words.next();
            }
            let action = match (words.next(), words.next(), words.next(), words.next()) {
                (Some("put"), Some(key), Some(size), None) => Action::Put {
                    key: key.to_string(),
                    size: size.parse().map_err(|_| err("bad size"))?,
                },
                (Some("get"), Some(key), None, None) => Action::Get {
                    key: key.to_string(),
                },
                (Some("kill-proxy"), Some(p), None, None) => {
                    Action::KillProxy(p.parse().map_err(|_| err("bad proxy"))?)
                }
                _ => {
                    return Err(err(
                        "expected `put KEY SIZE`, `get KEY` or `kill-proxy PROXY`",
                    ))
                }
            };
            steps.push(Step { at, client, action });
            prev = at;
        }
        Ok(Schedule { steps })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn sample_is_deterministic_and_mixed() {
        let s1 = Schedule::sample(3, 40, 6);
        assert_eq!(s1, Schedule::sample(3, 40, 6));
        let has = |f: fn(&Action) -> bool| s1.steps.iter().any(|s| f(&s.action));
        assert!(has(|a| matches!(a, Action::Put { .. })));
        assert!(has(|a| matches!(a, Action::Get { .. })));
    }

    #[test]
    fn proxy_kill_is_deterministic_and_mid_run() {
        let a = Schedule::sample_proxy_kill(9, 40, 8, 2);
        assert_eq!(a, Schedule::sample_proxy_kill(9, 40, 8, 2));
        assert_eq!(a.steps.len(), 41);
        let is_kill = |s: &Step| matches!(s.action, Action::KillProxy(p) if p < 2);
        let at = a.steps.iter().position(is_kill).expect("a kill step");
        assert!((10..30).contains(&at), "kill before op {at}");
        assert_eq!(a.steps.iter().filter(|s| is_kill(s)).count(), 1);
    }

    #[test]
    fn a_get_expects_the_size_of_its_keys_last_put_before_it() {
        let s: Schedule = "get k\nput k 5\nget k\nput k 7\nget k".parse().unwrap();
        let sizes: Vec<_> = s
            .ops()
            .filter_map(|(_, op)| match op {
                Some(Op::Get { size, .. }) => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, [0, 5, 7]);
    }

    #[test]
    fn untimed_lines_arrive_one_gap_apart_and_comments_are_skipped() {
        let s: Schedule = "# header\nput a 1\n\n1 get a  # trailing\n@2.5 kill-proxy 3\nget a"
            .parse()
            .unwrap();
        let at: Vec<u64> = s.steps.iter().map(|s| s.at.as_micros()).collect();
        assert_eq!(at, [10_000_000, 20_000_000, 2_500_000, 12_500_000]);
        let text = "0 put a 1\n1 get a\n@2.500000 0 kill-proxy 3\n0 get a\n";
        assert_eq!(s.to_string(), text);
        for bad in ["put k", "get", "put k x", "get k x", "@x get k", "fetch k"] {
            let err = format!("get ok\n{bad}").parse::<Schedule>().unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Print then parse is the identity, for timed and untimed steps,
        /// every client and every action.
        #[test]
        fn print_then_parse_is_the_identity(raw in proptest::collection::vec(
            (any::<bool>(), 0u64..1 << 40, 0u16..4, 0u8..3, "[a-z0-9_.-]{1,8}", any::<u16>()),
            0..24,
        )) {
            let mut schedule = Schedule::default();
            for (timed, us, client, kind, key, n) in raw {
                let prev = schedule.steps.last().map_or(SimTime::ZERO, |s| s.at);
                let at = if timed { SimTime::from_micros(us) } else { prev + Schedule::GAP };
                let action = match kind {
                    0 => Action::Put { key, size: u64::from(n) * 977 },
                    1 => Action::Get { key },
                    _ => Action::KillProxy(n),
                };
                schedule.steps.push(Step { at, client, action });
            }
            let parsed: Schedule = schedule.to_string().parse().expect("printed text parses");
            prop_assert_eq!(parsed, schedule);
        }
    }
}
