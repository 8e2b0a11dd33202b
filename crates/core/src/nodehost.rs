//! The shared node-daemon core: one logical cache node's instances,
//! timers, invoke routing, and backup-relay plumbing, independent of how
//! bytes reach the proxy.
//!
//! Every byte-level host of a node — the `ic-net` daemon, and the
//! scripted daemons tests and probes drive by hand — is a container of
//! [`Runtime`] instances driven by invokes, messages, and real timers,
//! and differs only in the proxy channel (the daemon's is a framed TCP
//! socket). [`NodeHost`] owns everything channel-independent and
//! implements the [`dispatch::LambdaTransport`] role once; the host
//! supplies a [`NodeIo`] for the single byte-moving hook. Fixes and
//! protocol changes land here exactly once.
//!
//! Peer replicas created by the backup protocol (Fig 10) live in the
//! same host, so relay traffic short-circuits locally. The host tracks
//! each round's `(source instance, destination instance)` pair by
//! [`RelayId`] — relay messages are delivered to *the other end of that
//! pair*, never to an arbitrary third instance that happens to be
//! cached in the host.

use std::collections::HashMap;

use ic_common::msg::{InvokePayload, Msg};
use ic_common::pricing::CostCategory;
use ic_common::{InstanceId, LambdaId, ProxyId, RelayId, SimTime};
use ic_lambda::runtime::{Runtime, RuntimeConfig};
use ic_lambda::RunState;

use crate::dispatch::{self, LambdaTransport};

/// The one substrate-specific operation of a node daemon: shipping an
/// instance's message to the managing proxy.
pub trait NodeIo {
    /// Delivers a node → proxy message (control or bulk; the substrate
    /// decides how, and is responsible for noticing its own transport
    /// failures).
    fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg);
}

/// One logical node's instances and their shared lifecycle state.
pub struct NodeHost<IO> {
    /// The logical node this host serves.
    pub lambda: LambdaId,
    /// The substrate's proxy channel.
    pub io: IO,
    rt_cfg: RuntimeConfig,
    instances: HashMap<InstanceId, Runtime>,
    next_instance: u64,
    timers: HashMap<InstanceId, (u64, SimTime)>,
    /// Active backup rounds: relay → `(source instance, dest instance)`.
    relay_peers: HashMap<RelayId, (InstanceId, InstanceId)>,
}

impl<IO: NodeIo> NodeHost<IO> {
    /// A host with no instances (they cold-start on demand).
    pub fn new(lambda: LambdaId, rt_cfg: RuntimeConfig, io: IO) -> Self {
        NodeHost {
            lambda,
            io,
            rt_cfg,
            instances: HashMap::new(),
            next_instance: 0,
            timers: HashMap::new(),
            relay_peers: HashMap::new(),
        }
    }

    /// The earliest armed duration-control timer, for the embedding's
    /// wait loop.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.timers.values().map(|&(_, at)| at).min()
    }

    /// Fires every timer due at `now`.
    pub fn fire_due_timers(&mut self, now: SimTime) {
        let due: Vec<(InstanceId, u64)> = self
            .timers
            .iter()
            .filter(|(_, &(_, at))| at <= now)
            .map(|(&i, &(tok, _))| (i, tok))
            .collect();
        for (instance, token) in due {
            self.timers.remove(&instance);
            if let Some(rt) = self.instances.get_mut(&instance) {
                let acts = rt.on_timer(now, token);
                self.execute(now, instance, acts);
            }
        }
    }

    /// The platform invoked this node's function: route to an idle
    /// instance (or cold-start one) and run the invocation.
    pub fn invoke(&mut self, now: SimTime, payload: &InvokePayload) {
        let instance = self.route_invoke(now);
        let acts = self
            .instances
            .get_mut(&instance)
            .expect("just routed")
            .on_invoke(now, payload);
        self.execute(now, instance, acts);
    }

    /// Delivers a proxy message to a specific instance.
    ///
    /// # Errors
    ///
    /// Returns the message back when the instance is not running
    /// (reclaimed, returned, or never existed) so the substrate can
    /// bounce it to the proxy's delivery-failure path.
    pub fn deliver(
        &mut self,
        now: SimTime,
        instance: InstanceId,
        msg: Msg,
    ) -> std::result::Result<(), Msg> {
        let alive = self
            .instances
            .get(&instance)
            .is_some_and(|rt| rt.state() != RunState::Sleeping);
        if !alive {
            return Err(msg);
        }
        let acts = self
            .instances
            .get_mut(&instance)
            .expect("alive")
            .on_message(now, msg);
        self.execute(now, instance, acts);
        Ok(())
    }

    /// Provider-style reclaim: every instance and cached chunk vanishes.
    ///
    /// Returns `true` when an instance was *running*: its connection to
    /// the proxy broke with it, and the substrate must say so
    /// ([`ic_proxy::Proxy::on_connection_lost`]) — on a real Lambda the
    /// proxy would see the instance's TCP connection drop. A reclaim of
    /// idle instances is silent: they said BYE when they returned.
    pub fn reclaim(&mut self) -> bool {
        let running = self
            .instances
            .values()
            .any(|rt| rt.state() != RunState::Sleeping);
        self.instances.clear();
        self.timers.clear();
        self.relay_peers.clear();
        running
    }

    /// Platform-style invoke routing: most recently armed idle instance,
    /// else a fresh cold one.
    fn route_invoke(&mut self, now: SimTime) -> InstanceId {
        let idle = self
            .instances
            .iter()
            .filter(|(_, rt)| rt.state() == RunState::Sleeping)
            .map(|(&i, _)| i)
            .max();
        match idle {
            Some(i) => i,
            None => {
                self.next_instance += 1;
                let id = InstanceId(self.next_instance | ((self.lambda.0 as u64) << 32));
                self.instances
                    .insert(id, Runtime::new(self.lambda, id, self.rt_cfg, now));
                id
            }
        }
    }

    /// Runs runtime actions through the shared dispatch engine.
    fn execute(
        &mut self,
        now: SimTime,
        instance: InstanceId,
        actions: Vec<ic_lambda::runtime::Action>,
    ) {
        let lambda = self.lambda;
        dispatch::run_lambda_actions(self, now, lambda, instance, actions);
    }

    /// Ships a node → proxy message; chunk data and put acks count as
    /// served work once handed to the substrate (neither byte-level
    /// substrate models bandwidth of its own — channels are instant,
    /// TCP is the bandwidth model).
    fn forward_to_proxy(&mut self, now: SimTime, instance: InstanceId, msg: Msg) {
        let served = matches!(msg, Msg::ChunkData { .. } | Msg::PutAck { .. });
        self.io.send_to_proxy(instance, msg);
        if served {
            if let Some(rt) = self.instances.get_mut(&instance) {
                let acts = rt.on_served(now);
                self.execute(now, instance, acts);
            }
        }
    }

    /// The other end of `relay` relative to `instance` (source ↔ dest).
    fn relay_peer_of(&self, instance: InstanceId, relay: RelayId) -> Option<InstanceId> {
        let &(src, dst) = self.relay_peers.get(&relay)?;
        if instance == src {
            Some(dst)
        } else if instance == dst {
            Some(src)
        } else {
            None
        }
    }

    /// Peer replicas share this host: short-circuit the relay, delivering
    /// to the recorded peer of this round. `BackupDone` ends the round
    /// and drops the pair.
    fn forward_to_peer(&mut self, now: SimTime, instance: InstanceId, relay: RelayId, msg: Msg) {
        let done = matches!(msg, Msg::BackupDone { .. });
        if let Some(peer) = self.relay_peer_of(instance, relay) {
            if let Some(rt) = self.instances.get_mut(&peer) {
                let acts = rt.on_message(now, msg);
                self.execute(now, peer, acts);
            }
        }
        if done {
            self.relay_peers.remove(&relay);
        }
    }
}

impl<IO: NodeIo> LambdaTransport for NodeHost<IO> {
    fn lambda_send(&mut self, now: SimTime, _lambda: LambdaId, instance: InstanceId, msg: Msg) {
        self.forward_to_proxy(now, instance, msg);
    }

    fn lambda_stream(&mut self, now: SimTime, _lambda: LambdaId, instance: InstanceId, msg: Msg) {
        self.forward_to_proxy(now, instance, msg);
    }

    fn relay_send(
        &mut self,
        now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    ) {
        self.forward_to_peer(now, instance, relay, msg);
    }

    fn relay_stream(
        &mut self,
        now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    ) {
        self.forward_to_peer(now, instance, relay, msg);
    }

    fn set_timer(
        &mut self,
        _now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        token: u64,
        at: SimTime,
    ) {
        self.timers.insert(instance, (token, at));
    }

    fn invoke_peer(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
    ) {
        // Concurrent invocation of our own function: route to an idle
        // instance or cold-start the peer replica locally, and record
        // the round's (source, dest) pair for relay delivery.
        let peer = self.route_invoke(now);
        self.relay_peers.insert(relay, (instance, peer));
        let payload = InvokePayload {
            proxy: ProxyId(0),
            piggyback_ping: false,
            backup: Some(ic_common::msg::BackupInvoke {
                relay,
                source: lambda,
            }),
        };
        let acts = self
            .instances
            .get_mut(&peer)
            .expect("routed")
            .on_invoke(now, &payload);
        self.execute(now, peer, acts);
    }

    fn end_execution(
        &mut self,
        _now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        _bye: bool,
        _category: CostCategory,
    ) {
        // The byte-level substrates have no billing meter; ending the
        // execution just disarms the duration-control timer.
        self.timers.remove(&instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ChunkId, ObjectKey, Payload};

    /// Collects proxy-bound messages for assertions.
    #[derive(Default)]
    struct SinkIo(Vec<(InstanceId, Msg)>);

    impl NodeIo for SinkIo {
        fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg) {
            self.0.push((instance, msg));
        }
    }

    fn host() -> NodeHost<SinkIo> {
        let rt_cfg = RuntimeConfig {
            backup_enabled: false,
            ..RuntimeConfig::paper()
        };
        NodeHost::new(LambdaId(0), rt_cfg, SinkIo::default())
    }

    #[test]
    fn invoke_pongs_and_serves_chunks() {
        let mut h = host();
        let t = SimTime::from_secs(1);
        h.invoke(t, &InvokePayload::ping(ProxyId(0)));
        assert!(matches!(h.io.0.last(), Some((_, Msg::Pong { .. }))));
        let instance = h.io.0.last().expect("ponged").0;
        let id = ChunkId::new(ObjectKey::new("k"), 0);
        h.deliver(
            t,
            instance,
            Msg::ChunkPut {
                id: id.clone(),
                payload: Payload::synthetic(10),
                epoch: 1,
            },
        )
        .expect("instance runs");
        assert!(matches!(h.io.0.last(), Some((_, Msg::PutAck { .. }))));
        h.deliver(t, instance, Msg::ChunkGet { id })
            .expect("instance runs");
        assert!(matches!(h.io.0.last(), Some((_, Msg::ChunkData { .. }))));
    }

    #[test]
    fn deliver_to_sleeping_or_unknown_instance_bounces() {
        let mut h = host();
        let t = SimTime::from_secs(1);
        let get = || Msg::ChunkGet {
            id: ChunkId::new(ObjectKey::new("k"), 0),
        };
        assert!(h.deliver(t, InstanceId(99), get()).is_err());
        h.invoke(t, &InvokePayload::ping(ProxyId(0)));
        let instance = h.io.0.last().expect("ponged").0;
        // Fire the return timer: the instance goes back to sleeping.
        let at = h.next_timer_at().expect("armed");
        h.fire_due_timers(at);
        assert!(h.deliver(at, instance, get()).is_err());
    }

    /// The regression the relay map exists for: with a *third* instance
    /// cached in the host, relay delivery must follow the recorded
    /// `(source, dest)` pair, never an arbitrary other instance.
    #[test]
    fn relay_delivery_follows_the_recorded_pair_not_a_bystander() {
        let mut h = host();
        let t = SimTime::from_secs(1);
        // Three concurrent invokes cold-start three distinct instances.
        for _ in 0..3 {
            h.invoke(t, &InvokePayload::ping(ProxyId(0)));
        }
        let ids: Vec<InstanceId> = h.instances.keys().copied().collect();
        assert_eq!(ids.len(), 3);
        let (src, dst, bystander) = (ids[0], ids[1], ids[2]);
        h.relay_peers.insert(RelayId(7), (src, dst));
        assert_eq!(h.relay_peer_of(src, RelayId(7)), Some(dst));
        assert_eq!(h.relay_peer_of(dst, RelayId(7)), Some(src));
        assert_eq!(
            h.relay_peer_of(bystander, RelayId(7)),
            None,
            "a third instance must never be chosen as a relay endpoint"
        );
        // BackupDone terminates the round and drops the pair.
        h.forward_to_peer(t, dst, RelayId(7), Msg::BackupDone { delta_bytes: 0 });
        assert!(!h.relay_peers.contains_key(&RelayId(7)));
    }

    /// A full runtime-initiated backup round inside one host completes
    /// synchronously (everything is local), records its pair only for
    /// the round's duration, and ends with the destination greeting the
    /// proxy — the connection-replacement signal.
    #[test]
    fn local_backup_round_completes_and_cleans_up() {
        let rt_cfg = RuntimeConfig {
            backup_interval: ic_common::SimDuration::from_millis(100),
            ..RuntimeConfig::paper()
        };
        let mut h = NodeHost::new(LambdaId(3), rt_cfg, SinkIo::default());
        let t0 = SimTime::from_secs(1);
        h.invoke(t0, &InvokePayload::ping(ProxyId(0)));
        let source = h.io.0.last().expect("ponged").0;
        let id = ChunkId::new(ObjectKey::new("x"), 0);
        h.deliver(
            t0,
            source,
            Msg::ChunkPut {
                id,
                payload: Payload::synthetic(100),
                epoch: 1,
            },
        )
        .expect("runs");
        while let Some(at) = h.next_timer_at() {
            h.fire_due_timers(at);
        }
        // Past Tbak the next invocation initiates a round.
        let t1 = SimTime::from_secs(10);
        h.invoke(t1, &InvokePayload::ping(ProxyId(0)));
        let source = h.io.0.last().expect("ponged").0;
        assert!(h.io.0.iter().any(|(_, m)| matches!(m, Msg::InitBackup)));
        h.deliver(t1, source, Msg::BackupCmd { relay: RelayId(7) })
            .expect("source runs");
        // The whole Fig 10 round ran synchronously: dest greeted the
        // proxy and the relay pair is gone.
        assert!(
            h.io.0
                .iter()
                .any(|(i, m)| matches!(m, Msg::HelloProxy { .. }) && *i != source),
            "the destination instance must greet the proxy"
        );
        assert!(h.relay_peers.is_empty(), "completed rounds leave no pairs");
    }
}
