//! The per-node connection state machine (Fig 6, answer-validated).
//!
//! The paper's proxy PINGs a node before every request because a Lambda
//! that has returned swallows bytes silently. Every substrate here turns
//! that case into an explicit bounce ([`LambdaConn::on_reset`]), so the
//! request is its own preflight: on a live connection a send goes out
//! immediately and the node's answer — or its bounce — is the
//! validation. Only a sleeping node queues requests, behind the one
//! invocation whose piggy-backed PONG flushes them. During a backup round
//! the connection is *replaced* by the destination replica and enters the
//! `Maybe` state, in which the source's return is ignored.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use ic_common::msg::Msg;
use ic_common::{ChunkId, InstanceId, LambdaId};

/// Fig 6 liveness axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Liveness {
    /// Node not running (cached or cold).
    Sleeping,
    /// Node actively running and connected.
    Active,
    /// Connection replaced during backup; the source's return is ignored.
    Maybe,
}

/// What the proxy must do after a connection-state step.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnEffect {
    /// Invoke the Lambda function (it is sleeping), with a piggybacked
    /// PING so it answers PONG on wake-up.
    Invoke,
    /// Deliver a message on the live connection.
    Emit(Msg),
}

/// One node's connection bookkeeping.
///
/// Two conditions hold between the fields after every step: an invoke is
/// only ever in flight toward a `Sleeping` node, and requests are only
/// queued while an invoke is in flight (so nothing queued can wait
/// forever).
#[derive(Clone, Debug)]
pub struct LambdaConn {
    /// The node this connection belongs to.
    pub lambda: LambdaId,
    liveness: Liveness,
    /// An `Invoke` is in flight; its PONG flushes the queue.
    invoking: bool,
    /// Instance currently answering for this node (None before first PONG).
    active_instance: Option<InstanceId>,
    /// Requests awaiting the in-flight invoke's PONG.
    queue: VecDeque<Msg>,
    /// Length of the queue's prefix that bounced off a dead instance since
    /// the last flush. Bounces come back in send order and were all sent
    /// before anything that was merely queued, so each is inserted behind
    /// the earlier bounces and ahead of the never-sent messages.
    bounced: usize,
    /// Lazy deletions flushed ahead of the next request.
    pending_deletes: Vec<ChunkId>,
}

impl LambdaConn {
    /// A fresh, never-connected node: sleeping, nothing in flight.
    pub fn new(lambda: LambdaId) -> Self {
        LambdaConn {
            lambda,
            liveness: Liveness::Sleeping,
            invoking: false,
            active_instance: None,
            queue: VecDeque::new(),
            bounced: 0,
            pending_deletes: Vec::new(),
        }
    }

    /// Current Fig 6 liveness.
    pub fn liveness(&self) -> Liveness {
        self.liveness
    }

    /// An invocation is in flight right now: its PONG will arrive and
    /// flush the queue, so issuing another invoke is not only redundant —
    /// the platform would route it to a *concurrent fresh instance*
    /// (the woken one is already executing), whose empty cache would
    /// then take over the connection and orphan every chunk the woken
    /// instance holds.
    pub fn invoke_in_flight(&self) -> bool {
        self.invoking
    }

    /// The instance the proxy believes is answering.
    pub fn instance(&self) -> Option<InstanceId> {
        self.active_instance
    }

    /// Queued messages not yet flushed (tests/metrics).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `true` while `msg` sits in the queue awaiting the in-flight
    /// invoke's PONG.
    pub fn is_queued(&self, msg: &Msg) -> bool {
        self.queue.contains(msg)
    }

    /// Feeds this connection's protocol state into a state hash (model
    /// checking). Everything here is protocol-relevant: the Fig 6 state,
    /// the answering instance, and queued and lazily-deleted work.
    pub fn fingerprint(&self, h: &mut impl Hasher) {
        self.lambda.hash(h);
        self.liveness.hash(h);
        self.invoking.hash(h);
        self.active_instance.hash(h);
        self.queue.len().hash(h);
        for msg in &self.queue {
            // Only requests are ever queued; anything else is told apart
            // by its discriminant alone.
            std::mem::discriminant(msg).hash(h);
            match msg {
                Msg::ChunkGet { id } => id.hash(h),
                Msg::ChunkPut { id, payload, epoch } => {
                    id.hash(h);
                    payload.len().hash(h);
                    epoch.hash(h);
                }
                Msg::BackupCmd { relay } => relay.hash(h),
                _ => {}
            }
        }
        self.bounced.hash(h);
        self.pending_deletes.hash(h);
    }

    /// Wants to deliver `msg` to the node. A live connection carries it
    /// at once, lazy deletions first; a sleeping node is invoked (once)
    /// and the message waits for the PONG.
    pub fn send(&mut self, msg: Msg) -> Vec<ConnEffect> {
        match self.liveness {
            Liveness::Sleeping => {
                self.queue.push_back(msg);
                self.invoke_once()
            }
            Liveness::Active | Liveness::Maybe => {
                let mut out = self.drain_deletes();
                out.push(ConnEffect::Emit(msg));
                out
            }
        }
    }

    /// Warm-up tick: make sure the node stays cached. Invokes only if
    /// sleeping and nothing is already in flight.
    pub fn warmup(&mut self) -> Vec<ConnEffect> {
        if self.liveness == Liveness::Sleeping {
            self.invoke_once()
        } else {
            Vec::new()
        }
    }

    /// PONG received (an invocation's wake-up answer): the node is live;
    /// flush the queue.
    pub fn on_pong(&mut self, instance: InstanceId) -> Vec<ConnEffect> {
        if self.liveness == Liveness::Maybe && Some(instance) != self.active_instance {
            // An unexpected PONG from the replaced source: ignore content,
            // the destination owns the connection now.
            return Vec::new();
        }
        self.active_instance = Some(instance);
        if self.liveness != Liveness::Maybe {
            self.liveness = Liveness::Active;
        }
        self.invoking = false;
        self.flush()
    }

    /// BYE received (steps 13–14): the instance returned voluntarily.
    /// Requests that crossed the BYE on the wire bounce and re-invoke
    /// through [`LambdaConn::on_reset`].
    pub fn on_bye(&mut self, instance: InstanceId) {
        if self.liveness == Liveness::Maybe && Some(instance) != self.active_instance {
            // The replaced source says bye: ignored (Fig 6 Maybe row).
            return;
        }
        // While an invoke is in flight this is a stale BYE racing the
        // re-invocation, and the node already counts as sleeping.
        self.liveness = Liveness::Sleeping;
    }

    /// Delivery failure (a message addressed to an instance that no
    /// longer runs; the node itself is reachable): requeue the failed
    /// message and re-invoke (Fig 6 "timeout || returned / reinvoke").
    pub fn on_reset(&mut self, failed: Option<Msg>) -> Vec<ConnEffect> {
        if let Some(m) = failed {
            self.queue.insert(self.bounced, m);
            self.bounced += 1;
        }
        if self.invoking {
            // A second bounce while the re-invocation is still in
            // flight (messages sent to the previous instance keep
            // bouncing until the fresh PONG): requeue only.
            return Vec::new();
        }
        self.reset_and_revalidate()
    }

    /// The node's transport connection itself died (daemon process
    /// killed, socket reset). Unlike [`LambdaConn::on_reset`], any
    /// in-flight invocation died *with* the connection, so this always
    /// re-validates from scratch — suppressing the invoke here would
    /// stall the queue forever.
    pub fn on_connection_lost(&mut self) -> Vec<ConnEffect> {
        self.reset_and_revalidate()
    }

    fn reset_and_revalidate(&mut self) -> Vec<ConnEffect> {
        self.active_instance = None;
        self.liveness = Liveness::Sleeping;
        self.invoking = !(self.queue.is_empty() && self.pending_deletes.is_empty());
        if self.invoking {
            vec![ConnEffect::Invoke]
        } else {
            Vec::new()
        }
    }

    /// Backup step 10: the destination replica took over the connection.
    pub fn replace_with(&mut self, instance: InstanceId) -> Vec<ConnEffect> {
        self.active_instance = Some(instance);
        self.liveness = Liveness::Maybe;
        self.invoking = false;
        self.flush()
    }

    /// Queues a lazy chunk deletion (flushed ahead of the next request).
    pub fn queue_delete(&mut self, id: ChunkId) {
        self.pending_deletes.push(id);
    }

    fn invoke_once(&mut self) -> Vec<ConnEffect> {
        if std::mem::replace(&mut self.invoking, true) {
            Vec::new()
        } else {
            vec![ConnEffect::Invoke]
        }
    }

    fn drain_deletes(&mut self) -> Vec<ConnEffect> {
        if self.pending_deletes.is_empty() {
            return Vec::new();
        }
        let ids = std::mem::take(&mut self.pending_deletes);
        vec![ConnEffect::Emit(Msg::ChunkDelete { ids })]
    }

    /// Emits everything queued: bounced messages in their original send
    /// order, then the never-sent ones.
    fn flush(&mut self) -> Vec<ConnEffect> {
        let mut out = self.drain_deletes();
        out.extend(self.queue.drain(..).map(ConnEffect::Emit));
        self.bounced = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ObjectKey, Payload};

    fn get(key: &str) -> Msg {
        Msg::ChunkGet {
            id: ChunkId::new(ObjectKey::new(key), 0),
        }
    }

    fn put(key: &str, len: u64, epoch: u64) -> Msg {
        Msg::ChunkPut {
            id: ChunkId::new(ObjectKey::new(key), 0),
            payload: Payload::synthetic(len),
            epoch,
        }
    }

    fn emits<const N: usize>(msgs: [Msg; N]) -> Vec<ConnEffect> {
        msgs.map(ConnEffect::Emit).to_vec()
    }

    /// A connection whose node answered its first invoke as `instance`.
    fn active(lambda: u32, instance: u64) -> LambdaConn {
        let mut c = LambdaConn::new(LambdaId(lambda));
        assert_eq!(c.warmup(), vec![ConnEffect::Invoke]);
        assert!(c.on_pong(InstanceId(instance)).is_empty());
        assert_eq!(c.liveness(), Liveness::Active);
        c
    }

    #[test]
    fn cold_send_invokes_and_queues_then_sends_directly() {
        let mut c = LambdaConn::new(LambdaId(0));
        assert_eq!(c.liveness(), Liveness::Sleeping);
        assert_eq!(c.send(get("a")), vec![ConnEffect::Invoke]);
        assert!(c.invoke_in_flight());
        // A second send while invoking only queues.
        assert!(c.send(get("b")).is_empty());
        assert_eq!(c.queued(), 2);

        // PONG flushes both in order and the connection is live: from
        // here every send goes straight out.
        assert_eq!(c.on_pong(InstanceId(7)), emits([get("a"), get("b")]));
        assert_eq!(c.liveness(), Liveness::Active);
        assert!(!c.invoke_in_flight());
        assert_eq!(c.instance(), Some(InstanceId(7)));
        for key in ["c", "d"] {
            assert_eq!(c.send(get(key)), emits([get(key)]));
            assert_eq!(c.queued(), 0);
        }
    }

    #[test]
    fn bye_sleeps_and_a_request_that_crossed_it_reinvokes() {
        let mut c = active(3, 1);
        assert_eq!(c.send(get("a")), emits([get("a")]));
        c.on_bye(InstanceId(1));
        assert_eq!(c.liveness(), Liveness::Sleeping);
        assert!(!c.invoke_in_flight(), "nothing queued: no invoke yet");
        // The request crossed the BYE on the wire and bounces: that, not
        // the BYE, re-invokes.
        assert_eq!(c.on_reset(Some(get("a"))), vec![ConnEffect::Invoke]);
        assert_eq!(c.on_pong(InstanceId(1)), emits([get("a")]));
        // After an idle BYE the next send invokes.
        c.on_bye(InstanceId(1));
        assert_eq!(c.send(get("b")), vec![ConnEffect::Invoke]);
    }

    #[test]
    fn reset_requeues_failed_message_first() {
        let mut c = active(4, 1);
        c.send(get("b")); // emitted directly
                          // ...but the instance died; world reports the failure.
        assert_eq!(c.on_reset(Some(get("b"))), vec![ConnEffect::Invoke]);
        assert_eq!(c.instance(), None);
        // A request that arrives meanwhile queues *behind* the bounce.
        assert!(c.send(get("c")).is_empty());
        assert_eq!(c.on_pong(InstanceId(2)), emits([get("b"), get("c")]));
        assert_eq!(c.instance(), Some(InstanceId(2)));
    }

    /// The double-invoke regression (found by the netbench 4 MiB sweep):
    /// while a re-invocation is in flight, further bounces and stale
    /// BYEs must requeue/no-op, never issue a second Invoke — the
    /// platform would route it to a concurrent *empty* instance whose
    /// PONG then orphans the woken instance's entire cache.
    #[test]
    fn resets_and_byes_during_an_inflight_invoke_do_not_double_invoke() {
        let mut c = active(9, 1);
        c.send(get("b"));
        c.send(get("c")); // both emitted directly
        let fx = c.on_reset(Some(get("b")));
        assert_eq!(fx, vec![ConnEffect::Invoke], "first reset re-invokes");
        // The second message in flight to the dead instance bounces while
        // the invoke is pending: requeue only.
        assert!(c.on_reset(Some(get("c"))).is_empty());
        // The dead instance's stale BYE arrives too: no-op.
        c.on_bye(InstanceId(1));
        assert_eq!(c.liveness(), Liveness::Sleeping);
        assert!(c.invoke_in_flight());
        // The invoke's PONG flushes everything in send order.
        assert_eq!(c.on_pong(InstanceId(2)), emits([get("b"), get("c")]));
    }

    /// The bounce-order regression: an overwrite landing on the same node
    /// has two `ChunkPut`s of one chunk id in flight; replayed
    /// newest-first the *older* bytes would win the store.
    #[test]
    fn double_bounce_replays_in_send_order() {
        let mut c = active(10, 1);
        let (v1, v2, read) = (put("k", 10, 1), put("k", 20, 2), get("k"));
        for m in [&v1, &v2, &read] {
            assert_eq!(c.send(m.clone()), emits([m.clone()]));
        }
        // The instance had returned: all three bounce, in send order,
        // with a never-sent request arriving in between.
        assert_eq!(c.on_reset(Some(v1.clone())), vec![ConnEffect::Invoke]);
        assert!(c.send(get("late")).is_empty());
        assert!(c.on_reset(Some(v2.clone())).is_empty());
        assert!(c.on_reset(Some(read.clone())).is_empty());
        let fx = c.on_pong(InstanceId(2));
        assert_eq!(fx, emits([v1, v2, read, get("late")]));
        // The next episode starts a fresh bounce prefix.
        c.send(get("x"));
        c.on_reset(Some(get("x")));
        assert!(c.send(get("y")).is_empty());
        assert_eq!(c.on_pong(InstanceId(3)), emits([get("x"), get("y")]));
    }

    #[test]
    fn warmup_only_touches_sleeping_idle_connections() {
        let mut c = LambdaConn::new(LambdaId(5));
        assert_eq!(c.warmup(), vec![ConnEffect::Invoke]);
        // Invoke already in flight: no duplicate.
        assert!(c.warmup().is_empty());
        c.on_pong(InstanceId(1));
        // Active: nothing to warm.
        assert!(c.warmup().is_empty());
    }

    #[test]
    fn maybe_state_ignores_the_replaced_source() {
        let mut c = active(6, 1); // source λs active
                                  // Backup replaces the connection with λd (instance 2).
        assert!(c.replace_with(InstanceId(2)).is_empty());
        assert_eq!(c.liveness(), Liveness::Maybe);
        // The old source's BYE and PONG are ignored.
        c.on_bye(InstanceId(1));
        assert!(c.on_pong(InstanceId(1)).is_empty());
        assert_eq!(c.liveness(), Liveness::Maybe);
        assert_eq!(c.instance(), Some(InstanceId(2)));
        // Requests flow to the destination.
        assert_eq!(c.send(get("b")), emits([get("b")]));
        // The destination's BYE ends the Maybe episode.
        c.on_bye(InstanceId(2));
        assert_eq!(c.liveness(), Liveness::Sleeping);
    }

    #[test]
    fn lazy_deletes_flush_before_traffic() {
        let dead = ChunkId::new(ObjectKey::new("dead"), 0);
        let delete = || Msg::ChunkDelete {
            ids: vec![dead.clone()],
        };
        let mut c = LambdaConn::new(LambdaId(7));
        c.queue_delete(dead.clone());
        assert_eq!(c.send(get("live")), vec![ConnEffect::Invoke]);
        assert_eq!(c.on_pong(InstanceId(1)), emits([delete(), get("live")]));
        // On a live connection too: the delete rides ahead of the request.
        c.queue_delete(dead.clone());
        assert_eq!(c.send(get("live")), emits([delete(), get("live")]));
    }

    #[test]
    fn put_data_queues_like_any_request() {
        let mut c = LambdaConn::new(LambdaId(8));
        c.send(put("p", 64, 1));
        assert_eq!(c.on_pong(InstanceId(1)), emits([put("p", 64, 1)]));
    }
}
