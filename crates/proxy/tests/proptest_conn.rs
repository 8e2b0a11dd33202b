//! Property tests for the answer-validated Fig 6 connection state
//! machine: under arbitrary event interleavings nothing sent is lost,
//! duplicated or left waiting, and over a FIFO transport requests reach
//! the node in the order they were sent, behind at most one invocation.

use std::collections::{BTreeSet, VecDeque};

use ic_common::msg::Msg;
use ic_common::{ChunkId, InstanceId, LambdaId, ObjectKey};
use ic_proxy::{ConnEffect, LambdaConn, Liveness};
use proptest::collection::vec;
use proptest::prelude::*;

fn get(i: usize) -> Msg {
    Msg::ChunkGet {
        id: ChunkId::new(ObjectKey::new(format!("k{i}")), 0),
    }
}

fn index_of(msg: &Msg) -> usize {
    match msg {
        Msg::ChunkGet { id } => id.key.as_str()[1..].parse().expect("built by get()"),
        other => panic!("only ChunkGets are sent here, got {}", other.kind()),
    }
}

/// The two conditions `LambdaConn` keeps between its fields.
fn check_structure(conn: &LambdaConn) {
    if conn.invoke_in_flight() {
        assert_eq!(
            conn.liveness(),
            Liveness::Sleeping,
            "only sleepers are invoked"
        );
    }
    if conn.queued() > 0 {
        assert!(
            conn.invoke_in_flight(),
            "queued work must have an invoke coming"
        );
    }
}

// ---------------------------------------------------------------------
// Any interleaving of the raw entry points
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Call {
    Send,
    Pong(u8),
    Bye(u8),
    /// The oldest message in flight bounces (a bare reset when none is).
    Reset,
    ConnectionLost,
    Warmup,
    Replace(u8),
}

fn call_strategy() -> impl Strategy<Value = Call> {
    prop_oneof![
        Just(Call::Send),
        Just(Call::Send),
        (0u8..4).prop_map(Call::Pong),
        (0u8..4).prop_map(Call::Bye),
        Just(Call::Reset),
        Just(Call::ConnectionLost),
        Just(Call::Warmup),
        (0u8..4).prop_map(Call::Replace),
    ]
}

/// Moves emitted messages into `in_flight`; a message may only be emitted
/// while the connection does not hold it.
fn emit_all(effects: Vec<ConnEffect>, in_flight: &mut VecDeque<usize>, held: &mut BTreeSet<usize>) {
    for fx in effects {
        if let ConnEffect::Emit(msg) = fx {
            let i = index_of(&msg);
            assert!(held.remove(&i), "message {i} emitted twice");
            in_flight.push_back(i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the order of sends, PONGs, BYEs, bounces, connection
    /// losses, warm-ups and backup take-overs, a message is always in
    /// exactly one place — held by the connection or in flight — and one
    /// PONG from the answering (or a fresh) instance empties the queue.
    #[test]
    fn every_send_is_emitted_exactly_once(calls in vec(call_strategy(), 1..80)) {
        let mut conn = LambdaConn::new(LambdaId(0));
        let mut sent = 0usize;
        let mut held = BTreeSet::new();
        let mut in_flight = VecDeque::new();
        for call in calls {
            let effects = match call {
                Call::Send => {
                    held.insert(sent);
                    sent += 1;
                    conn.send(get(sent - 1))
                }
                Call::Pong(i) => conn.on_pong(InstanceId(1 + i as u64)),
                Call::Bye(i) => {
                    conn.on_bye(InstanceId(1 + i as u64));
                    Vec::new()
                }
                Call::Reset => {
                    let failed = in_flight.pop_front();
                    held.extend(failed);
                    conn.on_reset(failed.map(get))
                }
                Call::ConnectionLost => conn.on_connection_lost(),
                Call::Warmup => conn.warmup(),
                Call::Replace(i) => conn.replace_with(InstanceId(100 + i as u64)),
            };
            emit_all(effects, &mut in_flight, &mut held);
            check_structure(&conn);
            prop_assert_eq!(conn.queued(), held.len(), "the queue is exactly what is held");
        }
        let inst = conn.instance().unwrap_or(InstanceId(999));
        let effects = conn.on_pong(inst);
        emit_all(effects, &mut in_flight, &mut held);
        prop_assert_eq!(conn.queued(), 0, "a PONG drains the queue");
        prop_assert!(held.is_empty());
        let mut all: Vec<usize> = in_flight.into_iter().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..sent).collect::<Vec<_>>(), "each send is in flight once");
    }

    /// The Maybe state (backup takeover) ignores the replaced source's
    /// lifecycle messages no matter the prior history.
    #[test]
    fn maybe_state_is_sticky_for_old_instances(history in vec(call_strategy(), 0..40)) {
        let mut conn = LambdaConn::new(LambdaId(1));
        for (i, call) in history.into_iter().enumerate() {
            match call {
                Call::Send => { conn.send(get(i)); }
                Call::Pong(i) => { conn.on_pong(InstanceId(1 + i as u64)); }
                Call::Bye(i) => { conn.on_bye(InstanceId(1 + i as u64)); }
                Call::Reset => { conn.on_reset(None); }
                Call::ConnectionLost => { conn.on_connection_lost(); }
                Call::Warmup => { conn.warmup(); }
                Call::Replace(i) => { conn.replace_with(InstanceId(100 + i as u64)); }
            }
        }
        conn.replace_with(InstanceId(777));
        prop_assert_eq!(conn.liveness(), Liveness::Maybe);
        // Any bye from a *different* instance is ignored.
        conn.on_bye(InstanceId(5));
        prop_assert_eq!(conn.liveness(), Liveness::Maybe);
        prop_assert_eq!(conn.instance(), Some(InstanceId(777)));
        // The destination's own bye ends the episode.
        conn.on_bye(InstanceId(777));
        prop_assert_eq!(conn.liveness(), Liveness::Sleeping);
    }
}

// ---------------------------------------------------------------------
// A node behind a FIFO transport
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    Send,
    /// The node handles the next proxy → node frame.
    Node,
    /// The proxy handles the next node → proxy frame.
    Proxy,
    /// The running instance returns (BYE).
    Return,
    Warmup,
    /// The socket dies with everything in flight; the daemon restarts.
    ConnectionLost,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Arms repeat to weight traffic over lifecycle events.
    prop_oneof![
        Just(Step::Send),
        Just(Step::Send),
        Just(Step::Send),
        Just(Step::Node),
        Just(Step::Node),
        Just(Step::Node),
        Just(Step::Proxy),
        Just(Step::Proxy),
        Just(Step::Proxy),
        Just(Step::Return),
        Just(Step::Return),
        Just(Step::Warmup),
        Just(Step::ConnectionLost),
    ]
}

enum ToNode {
    Invoke,
    Request(InstanceId, usize),
}

enum ToProxy {
    Pong(InstanceId),
    Bye(InstanceId),
    Bounce(usize),
}

/// The connection, one node daemon, and the ordered byte streams between
/// them — what every substrate's transport amounts to.
struct Rig {
    conn: LambdaConn,
    to_node: VecDeque<ToNode>,
    to_proxy: VecDeque<ToProxy>,
    running: Option<InstanceId>,
    instances: u64,
    sent: usize,
    /// Requests the node served, in service order.
    served: Vec<usize>,
    /// Requests that died in flight with the socket.
    lost: BTreeSet<usize>,
}

impl Rig {
    fn apply(&mut self, effects: Vec<ConnEffect>) {
        for fx in effects {
            match fx {
                ConnEffect::Invoke => self.to_node.push_back(ToNode::Invoke),
                ConnEffect::Emit(msg) => {
                    let to = self
                        .conn
                        .instance()
                        .expect("a live connection knows its instance");
                    self.to_node.push_back(ToNode::Request(to, index_of(&msg)));
                }
            }
        }
        let invokes = self
            .to_node
            .iter()
            .filter(|f| matches!(f, ToNode::Invoke))
            .count()
            + self
                .to_proxy
                .iter()
                .filter(|f| matches!(f, ToProxy::Pong(_)))
                .count();
        assert!(invokes <= 1, "{invokes} invocations outstanding");
        check_structure(&self.conn);
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Send => {
                self.sent += 1;
                let effects = self.conn.send(get(self.sent - 1));
                self.apply(effects);
            }
            Step::Node => match self.to_node.pop_front() {
                Some(ToNode::Invoke) => {
                    assert!(self.running.is_none(), "invoke hit a running instance");
                    self.instances += 1;
                    let woken = InstanceId(self.instances);
                    self.running = Some(woken);
                    self.to_proxy.push_back(ToProxy::Pong(woken));
                }
                Some(ToNode::Request(to, i)) if self.running == Some(to) => self.served.push(i),
                Some(ToNode::Request(_, i)) => self.to_proxy.push_back(ToProxy::Bounce(i)),
                None => {}
            },
            Step::Proxy => {
                let effects = match self.to_proxy.pop_front() {
                    Some(ToProxy::Pong(i)) => self.conn.on_pong(i),
                    Some(ToProxy::Bye(i)) => {
                        self.conn.on_bye(i);
                        Vec::new()
                    }
                    Some(ToProxy::Bounce(i)) => self.conn.on_reset(Some(get(i))),
                    None => Vec::new(),
                };
                self.apply(effects);
            }
            Step::Return => {
                if let Some(i) = self.running.take() {
                    self.to_proxy.push_back(ToProxy::Bye(i));
                }
            }
            Step::Warmup => {
                let effects = self.conn.warmup();
                self.apply(effects);
            }
            Step::ConnectionLost => {
                for frame in self.to_node.drain(..) {
                    if let ToNode::Request(_, i) = frame {
                        self.lost.insert(i);
                    }
                }
                for frame in self.to_proxy.drain(..) {
                    if let ToProxy::Bounce(i) = frame {
                        self.lost.insert(i);
                    }
                }
                self.running = None;
                let effects = self.conn.on_connection_lost();
                self.apply(effects);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With the instance returning, bouncing and being re-invoked at any
    /// point, every request that did not die with a socket is served
    /// exactly once, in the order it was sent, and never more than one
    /// invocation is outstanding.
    #[test]
    fn fifo_transport_serves_every_request_once_in_send_order(
        steps in vec(step_strategy(), 1..120)
    ) {
        let mut rig = Rig {
            conn: LambdaConn::new(LambdaId(0)),
            to_node: VecDeque::new(),
            to_proxy: VecDeque::new(),
            running: None,
            instances: 0,
            sent: 0,
            served: Vec::new(),
            lost: BTreeSet::new(),
        };
        for step in &steps {
            rig.step(step);
        }
        // Quiesce: the node stays up and both streams drain.
        while !(rig.to_node.is_empty() && rig.to_proxy.is_empty()) {
            rig.step(&Step::Node);
            rig.step(&Step::Proxy);
        }
        prop_assert_eq!(rig.conn.queued(), 0, "nothing may be left waiting");
        let expected: Vec<usize> = (0..rig.sent).filter(|i| !rig.lost.contains(i)).collect();
        prop_assert_eq!(rig.served, expected);
    }
}
