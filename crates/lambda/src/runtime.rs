//! The function runtime: Fig 7's state machine plus the anticipatory
//! billed-duration controller of §3.3.
//!
//! A [`Runtime`] is the state of *one instance* of a cache node. It is a
//! pure state machine: the embedding transport (discrete-event simulator or
//! node daemon) feeds it invocations, messages, served-data completions
//! and timer expiries, and executes the [`Action`]s it returns.
//!
//! ## Billed-duration control
//!
//! AWS bills execution time in 100 ms cycles. On every activation the
//! runtime arms a timer at the end of the current cycle minus a small
//! return buffer (2–10 ms). When the timer fires it returns — unless at
//! least two requests landed in the cycle (then it rides one more cycle,
//! anticipating traffic), a chunk transfer is still in flight, or a backup
//! round is active (both hold the timer).

use ic_common::msg::{InvokePayload, Msg};
use ic_common::pricing::CostCategory;
use ic_common::{InstanceId, LambdaId, RelayId, SimDuration, SimTime};

use crate::backup::{compute_delta, BackupRole, DestState, SourceStage, SourceState};
use crate::store::ChunkStore;

/// Fig 7's runtime states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunState {
    /// Not executing (warm and cached, or never invoked).
    Sleeping,
    /// Executing with no transfer in flight.
    ActiveIdling,
    /// Executing and streaming chunk data.
    ActiveServing,
}

/// Knobs of the runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Return-buffer before a billing-cycle boundary (§3.3: 2–10 ms).
    pub billing_buffer: SimDuration,
    /// Backup interval `Tbak`.
    pub backup_interval: SimDuration,
    /// Whether this node initiates delta-sync backups.
    pub backup_enabled: bool,
    /// Platform execution cap (15 min on AWS); the runtime returns just
    /// before it would be killed.
    pub max_execution: SimDuration,
}

impl RuntimeConfig {
    /// The paper's production settings.
    pub fn paper() -> Self {
        RuntimeConfig {
            billing_buffer: SimDuration::from_millis(5),
            backup_interval: SimDuration::from_mins(5),
            backup_enabled: true,
            max_execution: SimDuration::from_secs(900),
        }
    }

    /// Runtime knobs derived from a deployment configuration — the single
    /// place the byte-stream hosts (node daemons, scripted test nodes) turn
    /// a [`ic_common::DeploymentConfig`] into per-instance runtime
    /// settings.
    pub fn for_deployment(cfg: &ic_common::DeploymentConfig) -> Self {
        RuntimeConfig {
            billing_buffer: cfg.billing_buffer,
            backup_interval: cfg.backup_interval,
            backup_enabled: cfg.backup_enabled,
            max_execution: SimDuration::from_secs(900),
        }
    }
}

/// What the embedding transport must do after a runtime step.
#[derive(Clone, Debug)]
pub enum Action {
    /// Send a control message to the managing proxy.
    ToProxy(Msg),
    /// Stream a bulk message to the proxy (subject to the network model).
    DataToProxy(Msg),
    /// Send a control message through the backup relay.
    ToRelay {
        /// Relay to route through.
        relay: RelayId,
        /// The message.
        msg: Msg,
    },
    /// Stream a bulk message through the backup relay.
    DataToRelay {
        /// Relay to route through.
        relay: RelayId,
        /// The message.
        msg: Msg,
    },
    /// Arm the duration-control timer (any previously armed timer for this
    /// runtime is superseded; stale tokens are ignored on expiry).
    SetTimer {
        /// Token that must match at expiry.
        token: u64,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Invoke this runtime's own function to create/refresh the peer
    /// replica (Fig 10 step 6); the platform auto-scales.
    InvokePeer {
        /// Relay the peer must dial.
        relay: RelayId,
    },
    /// End this execution (the transport must report it to the platform
    /// for billing).
    Return {
        /// Whether a BYE preceded (voluntary, proxy-visible return).
        bye: bool,
        /// Billing attribution for the finished execution.
        category: CostCategory,
    },
}

/// The runtime of one function instance.
#[derive(Clone, Debug)]
pub struct Runtime {
    /// Logical node this instance serves.
    pub lambda: LambdaId,
    /// The instance identity (changes on every cold start).
    pub instance: InstanceId,
    cfg: RuntimeConfig,
    store: ChunkStore,

    executing: bool,
    exec_start: SimTime,
    outstanding: u32,
    requests_in_cycle: u32,
    timer_token: u64,
    served_data: bool,
    did_backup: bool,

    role: BackupRole,
    last_backup: SimTime,
}

impl Runtime {
    /// Creates the runtime for a freshly cold-started instance.
    pub fn new(lambda: LambdaId, instance: InstanceId, cfg: RuntimeConfig, born: SimTime) -> Self {
        Runtime {
            lambda,
            instance,
            cfg,
            store: ChunkStore::new(),
            executing: false,
            exec_start: SimTime::ZERO,
            outstanding: 0,
            requests_in_cycle: 0,
            timer_token: 0,
            served_data: false,
            did_backup: false,
            role: BackupRole::None,
            last_backup: born,
        }
    }

    /// Current Fig 7 state.
    pub fn state(&self) -> RunState {
        if !self.executing {
            RunState::Sleeping
        } else if self.outstanding > 0 {
            RunState::ActiveServing
        } else {
            RunState::ActiveIdling
        }
    }

    /// The chunk store (read access for tests and metrics).
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Mutable store access, for tests that prefill an instance.
    #[cfg(test)]
    pub fn store_mut(&mut self) -> &mut ChunkStore {
        &mut self.store
    }

    /// `true` while a backup round involves this instance.
    pub fn backup_active(&self) -> bool {
        self.role.is_active()
    }

    /// Feeds the runtime's protocol state into a state hash (model
    /// checking). Wall-clock bookkeeping (`exec_start`, `last_backup`)
    /// and the timer token are excluded — they differ between
    /// interleavings that are otherwise in the same protocol state — as
    /// is the `served_data` billing statistic.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.lambda.hash(h);
        self.instance.hash(h);
        self.store.fingerprint(h);
        self.executing.hash(h);
        self.outstanding.hash(h);
        self.requests_in_cycle.hash(h);
        self.did_backup.hash(h);
        self.role.fingerprint(h);
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// The function was invoked (execution begins at `now`).
    pub fn on_invoke(&mut self, now: SimTime, payload: &InvokePayload) -> Vec<Action> {
        debug_assert!(!self.executing, "invoke routed to a running instance");
        self.executing = true;
        self.exec_start = now;
        self.requests_in_cycle = 0;
        self.served_data = false;
        self.did_backup = false;

        let mut acts = Vec::new();
        if let Some(b) = &payload.backup {
            // We are the backup destination λd (Fig 10 steps 7–9).
            self.did_backup = true;
            self.role = BackupRole::Dest(DestState::new(b.relay));
            acts.push(Action::ToRelay {
                relay: b.relay,
                msg: Msg::HelloSource {
                    have_version: self.store.max_version(),
                },
            });
            acts.push(Action::ToProxy(Msg::HelloProxy {
                instance: self.instance,
                source: b.source,
            }));
        } else {
            if payload.piggyback_ping {
                acts.push(Action::ToProxy(Msg::Pong {
                    instance: self.instance,
                    stored_bytes: self.store.used_bytes(),
                }));
            }
            // A (warm-up) activation is the opportunity to start a backup
            // round (Fig 10 step 1).
            if self.cfg.backup_enabled
                && !self.role.is_active()
                && now.since(self.last_backup) >= self.cfg.backup_interval
            {
                self.did_backup = true;
                self.role = BackupRole::Source(SourceState::new());
                acts.push(Action::ToProxy(Msg::InitBackup));
            }
        }
        acts.push(self.arm_timer(now));
        acts
    }

    /// A message arrived (from the proxy, or via the backup relay).
    pub fn on_message(&mut self, now: SimTime, msg: Msg) -> Vec<Action> {
        match msg {
            Msg::ChunkGet { id } => {
                self.requests_in_cycle += 1;
                if let Some(chunk) = self.store.get(&id) {
                    let payload = chunk.payload.clone();
                    self.outstanding += 1;
                    self.served_data = true;
                    vec![Action::DataToProxy(Msg::ChunkData { id, payload })]
                } else if let BackupRole::Dest(d) = &mut self.role {
                    if d.pending.contains(&id) {
                        // Mid-migration: answer as soon as the fetch lands
                        // (the paper's λd→λs forwarding).
                        d.serve_on_arrival.insert(id);
                        Vec::new()
                    } else {
                        vec![Action::ToProxy(Msg::ChunkMiss { id })]
                    }
                } else {
                    vec![Action::ToProxy(Msg::ChunkMiss { id })]
                }
            }
            Msg::ChunkPut { id, payload, epoch } => {
                // The proxy announces the PUT as the data flow starts; the
                // instance is "serving" (receiving) until the transport
                // reports the flow complete, so the ack goes out as a
                // data-class action and the timer is held via
                // `outstanding`.
                self.requests_in_cycle += 1;
                self.outstanding += 1;
                self.served_data = true;
                // Keep λs a superset during migration; outside a backup
                // round the message parts move straight into the store
                // and the ack, uncloned.
                let relay = match &self.role {
                    BackupRole::Dest(d) => Some(d.relay),
                    _ => None,
                };
                let mut acts = Vec::with_capacity(1 + relay.is_some() as usize);
                if let Some(relay) = relay {
                    let version = self.store.insert(now, id.clone(), payload.clone());
                    acts.push(Action::DataToProxy(Msg::PutAck {
                        id: id.clone(),
                        stored_bytes: self.store.used_bytes(),
                        epoch,
                    }));
                    acts.push(Action::DataToRelay {
                        relay,
                        msg: Msg::BackupChunk {
                            id,
                            payload,
                            version,
                        },
                    });
                } else {
                    self.store.insert(now, id.clone(), payload);
                    acts.push(Action::DataToProxy(Msg::PutAck {
                        id,
                        stored_bytes: self.store.used_bytes(),
                        epoch,
                    }));
                }
                acts
            }
            Msg::ChunkDelete { ids } => {
                for id in &ids {
                    self.store.remove(id);
                }
                Vec::new()
            }
            Msg::BackupCmd { relay } => {
                let BackupRole::Source(s) = &mut self.role else {
                    return Vec::new(); // not expecting one; drop
                };
                if s.stage != SourceStage::AwaitCmd {
                    return Vec::new();
                }
                s.relay = Some(relay);
                s.stage = SourceStage::AwaitHello;
                vec![Action::InvokePeer { relay }]
            }
            Msg::HelloSource { have_version: _ } => {
                let BackupRole::Source(s) = &mut self.role else {
                    return Vec::new();
                };
                let Some(relay) = s.relay else {
                    return Vec::new();
                };
                s.stage = SourceStage::Streaming;
                let keys = self.store.backup_keys();
                vec![Action::ToRelay {
                    relay,
                    msg: Msg::BackupKeys { keys },
                }]
            }
            Msg::BackupKeys { keys } => {
                let BackupRole::Dest(d) = &mut self.role else {
                    return Vec::new();
                };
                let relay = d.relay;
                let plan = compute_delta(&keys, &self.store);
                for id in &plan.drop {
                    self.store.remove(id);
                }
                let BackupRole::Dest(d) = &mut self.role else {
                    unreachable!()
                };
                d.pending = plan.fetch.iter().cloned().collect();
                if d.pending.is_empty() {
                    self.finish_dest(now)
                } else {
                    plan.fetch
                        .into_iter()
                        .map(|id| Action::ToRelay {
                            relay,
                            msg: Msg::BackupFetch { id },
                        })
                        .collect()
                }
            }
            Msg::BackupFetch { id } => {
                let BackupRole::Source(s) = &self.role else {
                    return Vec::new();
                };
                let Some(relay) = s.relay else {
                    return Vec::new();
                };
                match self.store.peek(&id) {
                    Some(c) => vec![Action::DataToRelay {
                        relay,
                        msg: Msg::BackupChunk {
                            id,
                            payload: c.payload.clone(),
                            version: c.version,
                        },
                    }],
                    None => vec![Action::ToRelay {
                        relay,
                        msg: Msg::BackupMiss { id },
                    }],
                }
            }
            Msg::BackupMiss { id } => {
                let BackupRole::Dest(d) = &mut self.role else {
                    return Vec::new();
                };
                d.pending.remove(&id);
                let deferred_get = d.serve_on_arrival.remove(&id);
                let mut acts = Vec::new();
                if deferred_get {
                    // A client GET was parked waiting for this chunk to
                    // migrate over; the source no longer has it, so the
                    // GET must be answered with a miss — dropping it
                    // silently would strand the client forever.
                    acts.push(Action::ToProxy(Msg::ChunkMiss { id }));
                }
                if d.pending.is_empty() {
                    acts.extend(self.finish_dest(now));
                }
                acts
            }
            Msg::BackupChunk {
                id,
                payload,
                version,
            } => match &mut self.role {
                BackupRole::Dest(d) => {
                    d.pending.remove(&id);
                    d.delta_bytes += payload.len();
                    let serve = d.serve_on_arrival.remove(&id);
                    let mut acts = Vec::new();
                    if serve {
                        self.store
                            .insert_with_version(id.clone(), payload.clone(), version);
                        self.outstanding += 1;
                        self.served_data = true;
                        self.requests_in_cycle += 1;
                        acts.push(Action::DataToProxy(Msg::ChunkData { id, payload }));
                    } else {
                        // No deferred GET waiting: parts move into the
                        // store uncloned.
                        self.store.insert_with_version(id, payload, version);
                    }
                    if let BackupRole::Dest(d) = &self.role {
                        if d.pending.is_empty() {
                            acts.extend(self.finish_dest(now));
                        }
                    }
                    acts
                }
                // A PUT forwarded from λd during migration.
                BackupRole::Source(_) | BackupRole::None => {
                    self.store.insert_with_version(id, payload, version);
                    Vec::new()
                }
            },
            Msg::BackupDone { delta_bytes: _ } => {
                if let BackupRole::Source(_) = self.role {
                    // Round complete; λs's proxy connection has been
                    // replaced by λd's, so return silently.
                    self.role = BackupRole::None;
                    self.last_backup = now;
                    self.finish_execution(false)
                } else {
                    Vec::new()
                }
            }
            other => {
                debug_assert!(false, "runtime got unexpected message {}", other.kind());
                Vec::new()
            }
        }
    }

    /// A `DataToProxy` chunk transfer finished streaming.
    pub fn on_served(&mut self, now: SimTime) -> Vec<Action> {
        if !self.executing {
            return Vec::new();
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 && !self.role.is_active() {
            // §3.3: after serving, realign the timer with the end of the
            // current billing cycle.
            vec![self.arm_timer(now)]
        } else {
            Vec::new()
        }
    }

    /// The duration-control timer fired.
    pub fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<Action> {
        if !self.executing || token != self.timer_token {
            return Vec::new(); // stale
        }
        // Forced return before the platform's execution cap kills us.
        if now.since(self.exec_start)
            >= self
                .cfg
                .max_execution
                .saturating_sub(SimDuration::BILLING_CYCLE)
        {
            self.role = BackupRole::None;
            return self.finish_execution(true);
        }
        if self.outstanding > 0 || self.role.is_active() {
            // Transfers or a backup round in flight: ride another cycle.
            return vec![self.arm_timer(now)];
        }
        if self.requests_in_cycle >= 2 {
            // Busy cycle: anticipate more traffic (§3.3).
            self.requests_in_cycle = 0;
            return vec![self.arm_timer(now)];
        }
        self.finish_execution(true)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Arms the timer at the end of the current billing cycle minus the
    /// return buffer.
    fn arm_timer(&mut self, now: SimTime) -> Action {
        let cycle = SimDuration::BILLING_CYCLE.as_micros();
        let elapsed = now.since(self.exec_start).as_micros();
        let k = elapsed / cycle + 1;
        let mut at =
            self.exec_start + SimDuration::from_micros(k * cycle) - self.cfg.billing_buffer;
        if at <= now {
            at += SimDuration::BILLING_CYCLE;
        }
        self.timer_token += 1;
        Action::SetTimer {
            token: self.timer_token,
            at,
        }
    }

    fn finish_dest(&mut self, now: SimTime) -> Vec<Action> {
        let BackupRole::Dest(d) = std::mem::take(&mut self.role) else {
            return Vec::new();
        };
        self.last_backup = now;
        let mut acts = vec![Action::ToRelay {
            relay: d.relay,
            msg: Msg::BackupDone {
                delta_bytes: d.delta_bytes,
            },
        }];
        acts.extend(self.finish_execution(true));
        acts
    }

    fn finish_execution(&mut self, bye: bool) -> Vec<Action> {
        self.executing = false;
        self.timer_token += 1; // invalidate any armed timer
        self.outstanding = 0;
        let category = if self.served_data {
            CostCategory::Serving
        } else if self.did_backup {
            CostCategory::Backup
        } else {
            CostCategory::Warmup
        };
        let mut acts = Vec::new();
        if bye {
            acts.push(Action::ToProxy(Msg::Bye {
                instance: self.instance,
            }));
        }
        acts.push(Action::Return { bye, category });
        acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ChunkId, ObjectKey, Payload, ProxyId};

    fn cid(key: &str, seq: u32) -> ChunkId {
        ChunkId::new(ObjectKey::new(key), seq)
    }

    fn fresh(now: SimTime) -> Runtime {
        Runtime::new(LambdaId(0), InstanceId(1), RuntimeConfig::paper(), now)
    }

    fn invoke_payload() -> InvokePayload {
        InvokePayload::ping(ProxyId(0))
    }

    fn timer_of(acts: &[Action]) -> (u64, SimTime) {
        acts.iter()
            .find_map(|a| match a {
                Action::SetTimer { token, at } => Some((*token, *at)),
                _ => None,
            })
            .expect("a timer must be armed")
    }

    #[test]
    fn warmup_invocation_pongs_and_returns_within_first_cycle() {
        let t0 = SimTime::from_secs(10);
        let mut rt = fresh(t0);
        let acts = rt.on_invoke(t0, &invoke_payload());
        assert!(matches!(acts[0], Action::ToProxy(Msg::Pong { .. })));
        let (token, at) = timer_of(&acts);
        // Fires 5 ms (buffer) before the 100 ms boundary.
        assert_eq!(at, t0 + SimDuration::from_millis(95));
        assert_eq!(rt.state(), RunState::ActiveIdling);

        let out = rt.on_timer(at, token);
        assert!(matches!(out[0], Action::ToProxy(Msg::Bye { .. })));
        assert!(
            matches!(
                out[1],
                Action::Return {
                    bye: true,
                    category: CostCategory::Warmup
                }
            ),
            "idle warm-up bills as warm-up"
        );
        assert_eq!(rt.state(), RunState::Sleeping);
    }

    #[test]
    fn two_requests_in_a_cycle_extend_the_timeout() {
        let t0 = SimTime::from_secs(1);
        let mut rt = fresh(t0);
        let acts = rt.on_invoke(t0, &invoke_payload());
        let (_, first_deadline) = timer_of(&acts);

        // Two puts inside the first cycle (their inbound flows complete
        // quickly).
        rt.on_message(
            t0 + SimDuration::from_millis(10),
            Msg::ChunkPut {
                id: cid("a", 0),
                payload: Payload::synthetic(100),
                epoch: 1,
            },
        );
        rt.on_served(t0 + SimDuration::from_millis(12));
        rt.on_message(
            t0 + SimDuration::from_millis(20),
            Msg::ChunkPut {
                id: cid("a", 1),
                payload: Payload::synthetic(100),
                epoch: 1,
            },
        );
        rt.on_served(t0 + SimDuration::from_millis(22));

        let token = rt.timer_token;
        let out = rt.on_timer(first_deadline, token);
        let (_, second_deadline) = timer_of(&out);
        assert_eq!(second_deadline, first_deadline + SimDuration::BILLING_CYCLE);

        // Quiet second cycle: return.
        let out = rt.on_timer(second_deadline, rt.timer_token);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Return { bye: true, .. })));
    }

    #[test]
    fn single_request_cycle_does_not_extend() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        let acts = rt.on_invoke(t0, &invoke_payload());
        let (_, deadline) = timer_of(&acts);
        rt.on_message(
            t0 + SimDuration::from_millis(10),
            Msg::ChunkPut {
                id: cid("a", 0),
                payload: Payload::synthetic(10),
                epoch: 1,
            },
        );
        rt.on_served(t0 + SimDuration::from_millis(12));
        let out = rt.on_timer(deadline, rt.timer_token);
        assert!(
            out.iter().any(|a| matches!(a, Action::Return { .. })),
            "one request is not 'more than one' (§3.3)"
        );
    }

    #[test]
    fn serving_holds_the_timer_and_realigns_after() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        rt.on_invoke(t0, &invoke_payload());
        rt.store_mut()
            .insert(t0, cid("k", 0), Payload::synthetic(1_000_000));

        let t1 = t0 + SimDuration::from_millis(30);
        let acts = rt.on_message(t1, Msg::ChunkGet { id: cid("k", 0) });
        assert!(matches!(
            acts[0],
            Action::DataToProxy(Msg::ChunkData { .. })
        ));
        assert_eq!(rt.state(), RunState::ActiveServing);

        // Timer fires mid-transfer: held, re-armed into the next cycle.
        let out = rt.on_timer(t0 + SimDuration::from_millis(95), rt.timer_token);
        let (_, at) = timer_of(&out);
        assert!(at > t0 + SimDuration::from_millis(100));

        // Transfer completes at 230 ms: realign to the 300 ms boundary.
        let out = rt.on_served(t0 + SimDuration::from_millis(230));
        let (_, at) = timer_of(&out);
        assert_eq!(at, t0 + SimDuration::from_millis(295));
        assert_eq!(rt.state(), RunState::ActiveIdling);

        // Serving execution bills as Serving.
        let out = rt.on_timer(at, rt.timer_token);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Return {
                category: CostCategory::Serving,
                ..
            }
        )));
    }

    #[test]
    fn get_miss_reports_chunk_miss() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        rt.on_invoke(t0, &invoke_payload());
        let acts = rt.on_message(t0, Msg::ChunkGet { id: cid("nope", 0) });
        assert!(
            matches!(&acts[0], Action::ToProxy(Msg::ChunkMiss { id }) if *id == cid("nope", 0))
        );
    }

    /// A request is its own preflight, so the runtime owes it this: one
    /// that lands inside the return buffer, with the return timer due but
    /// not yet run, is served and the return deferred to the next cycle.
    /// (One that lands after the return bounces at the transport and is
    /// re-sent behind a fresh invoke.)
    #[test]
    fn request_inside_the_billing_buffer_is_served_before_the_return() {
        let t0 = SimTime::ZERO;
        let put = Msg::ChunkPut {
            id: cid("k", 0),
            payload: Payload::synthetic(64),
            epoch: 1,
        };
        for request in [Msg::ChunkGet { id: cid("k", 0) }, put] {
            let mut rt = fresh(t0);
            let (due_token, due) = timer_of(&rt.on_invoke(t0, &invoke_payload()));
            rt.store_mut()
                .insert(t0, cid("k", 0), Payload::synthetic(64));
            let late = due + SimDuration::from_millis(1); // 4 ms before the cycle ends
            let acts = rt.on_message(late, request);
            assert!(matches!(acts[0], Action::DataToProxy(_)));
            // The overdue timer runs mid-transfer: held, not a return.
            let (_, held) = timer_of(&rt.on_timer(late, due_token));
            assert_eq!(held, due + SimDuration::BILLING_CYCLE);
            // The transfer ends still inside the buffer: the realigned
            // timer lands in the next cycle too, and only that one returns.
            let (token, at) = timer_of(&rt.on_served(late));
            assert_eq!(at, held);
            let out = rt.on_timer(at, token);
            assert!(out.iter().any(|a| matches!(a, Action::Return { .. })));
        }
    }

    #[test]
    fn stale_timer_tokens_are_ignored() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        let acts = rt.on_invoke(t0, &invoke_payload());
        let (old_token, _) = timer_of(&acts);
        rt.on_message(t0, Msg::ChunkGet { id: cid("k", 0) });
        rt.on_served(t0 + SimDuration::from_millis(50)); // re-arms
        assert!(rt
            .on_timer(t0 + SimDuration::from_millis(95), old_token)
            .is_empty());
        assert_eq!(rt.state(), RunState::ActiveIdling);
    }

    #[test]
    fn delete_removes_chunks_silently() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        rt.on_invoke(t0, &invoke_payload());
        rt.on_message(
            t0,
            Msg::ChunkPut {
                id: cid("d", 0),
                payload: Payload::synthetic(5),
                epoch: 1,
            },
        );
        let acts = rt.on_message(
            t0,
            Msg::ChunkDelete {
                ids: vec![cid("d", 0)],
            },
        );
        assert!(acts.is_empty());
        assert!(!rt.store().contains(&cid("d", 0)));
    }

    #[test]
    fn backup_initiated_after_interval() {
        let born = SimTime::ZERO;
        let mut rt = fresh(born);
        // Too early: no backup.
        let acts = rt.on_invoke(SimTime::from_secs(60), &invoke_payload());
        assert!(!acts
            .iter()
            .any(|a| matches!(a, Action::ToProxy(Msg::InitBackup))));
        rt.on_timer(SimTime::from_secs(61), rt.timer_token); // return

        // After Tbak: InitBackup goes out.
        let acts = rt.on_invoke(SimTime::from_secs(301), &invoke_payload());
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::ToProxy(Msg::InitBackup))));
        assert!(rt.backup_active());

        // BackupCmd triggers the peer invocation.
        let acts = rt.on_message(
            SimTime::from_secs(301),
            Msg::BackupCmd { relay: RelayId(9) },
        );
        assert!(matches!(acts[0], Action::InvokePeer { relay: RelayId(9) }));
    }

    /// Drives a complete backup round between two runtimes by shuttling
    /// messages by hand — the protocol-level integration test of Fig 10.
    #[test]
    fn full_backup_round_syncs_the_stores() {
        let relay = RelayId(1);
        let t = SimTime::from_secs(400);

        // Source: running, has data, past its backup interval.
        let mut src = Runtime::new(
            LambdaId(3),
            InstanceId(10),
            RuntimeConfig::paper(),
            SimTime::ZERO,
        );
        let acts = src.on_invoke(t, &invoke_payload());
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::ToProxy(Msg::InitBackup))));
        src.store_mut()
            .insert(t, cid("x", 0), Payload::synthetic(100));
        src.store_mut()
            .insert(t, cid("x", 1), Payload::synthetic(150));

        // Proxy answers with the relay; source invokes its peer.
        let acts = src.on_message(t, Msg::BackupCmd { relay });
        assert!(matches!(acts[0], Action::InvokePeer { .. }));

        // Destination: a fresh concurrent instance.
        let mut dst = Runtime::new(LambdaId(3), InstanceId(11), RuntimeConfig::paper(), t);
        let payload = InvokePayload {
            proxy: ProxyId(0),
            piggyback_ping: false,
            backup: Some(ic_common::msg::BackupInvoke {
                relay,
                source: LambdaId(3),
            }),
        };
        let acts = dst.on_invoke(t, &payload);
        let hello = acts
            .iter()
            .find_map(|a| match a {
                Action::ToRelay {
                    msg: m @ Msg::HelloSource { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("λd greets λs");
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::ToProxy(Msg::HelloProxy { .. }))));

        // Source answers the hello with its key list.
        let acts = src.on_message(t, hello);
        let keys = acts
            .iter()
            .find_map(|a| match a {
                Action::ToRelay {
                    msg: m @ Msg::BackupKeys { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("key exchange");

        // Destination computes the delta and fetches both chunks.
        let fetches: Vec<Msg> = dst
            .on_message(t, keys)
            .into_iter()
            .filter_map(|a| match a {
                Action::ToRelay {
                    msg: m @ Msg::BackupFetch { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(fetches.len(), 2);

        // Source ships the chunks; destination finishes the round.
        let mut done_seen = false;
        for f in fetches {
            let ship = src.on_message(t, f);
            let chunk = match &ship[0] {
                Action::DataToRelay { msg, .. } => msg.clone(),
                other => panic!("expected chunk, got {other:?}"),
            };
            for a in dst.on_message(t, chunk) {
                match a {
                    Action::ToRelay {
                        msg: Msg::BackupDone { delta_bytes },
                        ..
                    } => {
                        assert_eq!(delta_bytes, 250);
                        done_seen = true;
                        // Relay forwards the done to the source.
                        let out = src.on_message(t, Msg::BackupDone { delta_bytes });
                        assert!(out
                            .iter()
                            .any(|x| matches!(x, Action::Return { bye: false, .. })));
                    }
                    Action::Return {
                        bye: true,
                        category,
                    } => {
                        assert_eq!(category, CostCategory::Backup);
                    }
                    Action::ToProxy(Msg::Bye { .. }) => {}
                    other => panic!("unexpected action {other:?}"),
                }
            }
        }
        assert!(done_seen);
        assert_eq!(dst.store().len(), 2);
        assert!(dst.store().contains(&cid("x", 0)));
        assert!(!src.backup_active() && !dst.backup_active());
        assert_eq!(
            dst.store().peek(&cid("x", 0)).unwrap().version,
            src.store().peek(&cid("x", 0)).unwrap().version
        );
    }

    #[test]
    fn dest_serves_get_for_chunk_arriving_mid_migration() {
        let relay = RelayId(2);
        let t = SimTime::from_secs(10);
        let mut dst = Runtime::new(LambdaId(0), InstanceId(5), RuntimeConfig::paper(), t);
        dst.on_invoke(
            t,
            &InvokePayload {
                proxy: ProxyId(0),
                piggyback_ping: false,
                backup: Some(ic_common::msg::BackupInvoke {
                    relay,
                    source: LambdaId(0),
                }),
            },
        );
        // Offer one chunk; the delta wants it.
        dst.on_message(
            t,
            Msg::BackupKeys {
                keys: vec![ic_common::msg::BackupKey {
                    id: cid("m", 0),
                    version: 7,
                    len: 42,
                }],
            },
        );
        // A client GET arrives before the chunk: no miss, deferred.
        let acts = dst.on_message(t, Msg::ChunkGet { id: cid("m", 0) });
        assert!(acts.is_empty(), "mid-migration GET must wait, not miss");
        // Chunk lands: it is served to the proxy and the round finishes.
        let acts = dst.on_message(
            t,
            Msg::BackupChunk {
                id: cid("m", 0),
                payload: Payload::synthetic(42),
                version: 7,
            },
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::DataToProxy(Msg::ChunkData { .. }))));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::ToRelay {
                msg: Msg::BackupDone { .. },
                ..
            }
        )));
    }

    #[test]
    fn max_execution_forces_return() {
        let t0 = SimTime::ZERO;
        let mut rt = fresh(t0);
        rt.on_invoke(t0, &invoke_payload());
        // Keep it "busy" so it would otherwise hold forever.
        rt.store_mut()
            .insert(t0, cid("k", 0), Payload::synthetic(10));
        rt.on_message(t0, Msg::ChunkGet { id: cid("k", 0) });
        let late = t0 + SimDuration::from_secs(900);
        let out = rt.on_timer(late, rt.timer_token);
        assert!(out.iter().any(|a| matches!(a, Action::Return { .. })));
        assert_eq!(rt.state(), RunState::Sleeping);
    }

    /// Two destinations holding the same pending and serve-on-arrival ids
    /// are in one protocol state, whatever order the ids went in, so
    /// they fingerprint alike (the model checker merges them).
    #[test]
    fn dest_fingerprint_ignores_set_insertion_order() {
        use std::hash::{DefaultHasher, Hasher};

        let ids: Vec<ChunkId> = (0..32).map(|i| cid(&format!("k{i}"), i % 3)).collect();
        let dest = |order: &mut dyn Iterator<Item = &ChunkId>| {
            let mut d = DestState::new(RelayId(4));
            for id in order {
                d.pending.insert(id.clone());
                if id.seq == 0 {
                    d.serve_on_arrival.insert(id.clone());
                }
            }
            let mut rt = fresh(SimTime::ZERO);
            rt.role = BackupRole::Dest(d);
            let mut h = DefaultHasher::new();
            rt.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(dest(&mut ids.iter()), dest(&mut ids.iter().rev()));
    }
}
