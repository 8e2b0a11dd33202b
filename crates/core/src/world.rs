//! The discrete-event world: one InfiniCache deployment end to end.
//!
//! [`SimWorld`] owns the event queue, the simulated FaaS platform, the
//! fluid-flow network, and every protocol state machine (clients, proxies,
//! per-instance Lambda runtimes). It executes the actions those state
//! machines return, turning them into timed events, network flows,
//! invocations and billing records. Experiments drive it by submitting
//! [`Op`]s and reading [`crate::metrics::Metrics`] plus the platform's
//! billing meter afterwards.

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use ic_analytics::dist::{exponential_sample, lognormal_sample};
use ic_baselines::S3Model;
use ic_client::{ClientLib, GetReport};
use ic_common::msg::{BackupInvoke, InvokePayload, Msg};
use ic_common::pricing::CostCategory;
use ic_common::{
    ClientId, DeploymentConfig, InstanceId, LambdaId, ObjectKey, Payload, ProxyId, RelayId,
    SimDuration, SimTime,
};
use ic_lambda::runtime::{Runtime, RuntimeConfig};
use ic_proxy::{Proxy, ProxyAction, ProxyConfig};
use ic_simfaas::hosts::HostId;
use ic_simfaas::network::{LinkId, Network};
use ic_simfaas::platform::{Platform, PlatformConfig, PlatformNotice};
use ic_simfaas::reclaim::ReclaimPolicy;
use ic_simfaas::EventQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dispatch::{self, ClientTransport, LambdaCtx, LambdaTransport, ProxyTransport};
use crate::event::{Ev, FlowPayload, Op};
use crate::metrics::{FtKind, Metrics, OpKind, Outcome, RequestRecord};
use crate::params::SimParams;
use crate::scheduler::{Choice, Scheduler, TimeOrdered};

#[derive(Debug)]
struct PendingReq {
    size: u64,
    issued: Vec<SimTime>,
    hosts: BTreeSet<HostId>,
}

#[derive(Debug)]
struct RelayState {
    source: InstanceId,
    dest: Option<InstanceId>,
}

/// One simulated InfiniCache deployment.
pub struct SimWorld {
    /// Deployment shape and policy knobs.
    pub cfg: DeploymentConfig,
    /// Environment constants.
    pub params: SimParams,
    queue: EventQueue<Ev>,
    net: Network<FlowPayload>,
    /// The simulated FaaS platform (public: experiments read billing and
    /// the reclaim log).
    pub platform: Platform,
    proxies: Vec<Proxy>,
    clients: Vec<ClientLib>,
    runtimes: HashMap<InstanceId, Runtime>,
    relays: HashMap<(ProxyId, RelayId), RelayState>,
    client_links: Vec<LinkId>,
    proxy_links: Vec<LinkId>,
    s3: S3Model,
    rng: SmallRng,
    pending_gets: HashMap<(ClientId, ObjectKey), PendingReq>,
    pending_puts: HashMap<(ClientId, ObjectKey), PendingReq>,
    rt_cfg: RuntimeConfig,
    /// Measurement sink.
    pub metrics: Metrics,
    /// When `false`, cold GET misses are *not* refetched from S3 and
    /// reinserted (microbenchmarks pre-populate and never want the S3
    /// path).
    pub write_through: bool,
    /// Clients whose sessions ended via a [`Choice::Disconnect`]: events
    /// addressed to them are dropped (the connection no longer exists)
    /// and the auditors skip their frozen state.
    dead_clients: BTreeSet<ClientId>,
    /// When set, every applied choice is followed by a full
    /// [`SimWorld::check_invariants`] pass that panics at the violating
    /// event instead of letting the violation surface at schedule end.
    /// Armed by the `IC_SIM_AUDIT` environment variable (meant for
    /// debug-build chaos runs; it is O(world state) per event).
    audit_each_event: bool,
}

impl SimWorld {
    /// Builds a deployment with `n_clients` clients and the given
    /// reclamation policy, on an AWS-like platform.
    pub fn new(
        cfg: DeploymentConfig,
        params: SimParams,
        policy: Box<dyn ReclaimPolicy>,
        n_clients: u16,
    ) -> Self {
        let platform_cfg = PlatformConfig::aws_like(cfg.total_lambdas(), cfg.lambda_memory_mb);
        SimWorld::with_platform(cfg, params, policy, n_clients, platform_cfg)
    }

    /// Like [`SimWorld::new`] but with an explicit platform configuration
    /// (used by placement-sensitivity experiments such as Fig 4).
    pub fn with_platform(
        cfg: DeploymentConfig,
        params: SimParams,
        policy: Box<dyn ReclaimPolicy>,
        n_clients: u16,
        platform_cfg: PlatformConfig,
    ) -> Self {
        cfg.validate().expect("deployment config must be valid");
        let mut net = Network::new();
        let client_links: Vec<LinkId> = (0..n_clients)
            .map(|_| net.add_link(params.client_nic_bps))
            .collect();
        let proxy_links: Vec<LinkId> = (0..cfg.proxies)
            .map(|_| net.add_link(params.proxy_nic_bps))
            .collect();

        let platform = Platform::new(platform_cfg, policy, params.seed);

        let proxies: Vec<Proxy> = (0..cfg.proxies)
            .map(|p| {
                Proxy::new(
                    ProxyConfig {
                        id: ProxyId(p),
                        capacity_bytes: cfg.pool_capacity(),
                    },
                    cfg.proxy_pool(ProxyId(p)),
                )
            })
            .collect();

        let pools: Vec<(ProxyId, Vec<LambdaId>)> = proxies
            .iter()
            .map(|p| (p.id(), p.pool().to_vec()))
            .collect();
        let clients: Vec<ClientLib> = (0..n_clients)
            .map(|c| {
                ClientLib::new(
                    ClientId(c),
                    cfg.ec,
                    pools.clone(),
                    cfg.ring_vnodes,
                    params.seed ^ (c as u64 + 1),
                )
            })
            .collect();

        let rt_cfg = RuntimeConfig {
            billing_buffer: cfg.billing_buffer,
            backup_interval: cfg.backup_interval,
            backup_enabled: cfg.backup_enabled,
            max_execution: SimDuration::from_secs(900),
        };

        let mut world = SimWorld {
            cfg,
            params,
            queue: EventQueue::new(),
            net,
            platform,
            proxies,
            clients,
            runtimes: HashMap::new(),
            relays: HashMap::new(),
            client_links,
            proxy_links,
            s3: S3Model::paper_era(),
            rng: SmallRng::seed_from_u64(params.seed ^ 0x0d_e5),
            pending_gets: HashMap::new(),
            pending_puts: HashMap::new(),
            rt_cfg,
            metrics: Metrics::default(),
            write_through: true,
            dead_clients: BTreeSet::new(),
            audit_each_event: std::env::var_os("IC_SIM_AUDIT").is_some_and(|v| v != "0"),
        };
        for notice in world.platform.bootstrap() {
            world.process_notice(notice);
        }
        world
            .queue
            .push(SimTime::ZERO + world.cfg.warmup_interval, Ev::WarmupTick);
        world
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far (progress reporting).
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Per-client library statistics.
    pub fn client_stats(&self, client: ClientId) -> ic_client::ClientStats {
        self.clients[client.index()].stats
    }

    /// Per-proxy statistics.
    pub fn proxy_stats(&self, proxy: ProxyId) -> ic_proxy::ProxyStats {
        self.proxies[proxy.index()].stats
    }

    /// The deployment's proxies (read access for auditing).
    pub fn proxies(&self) -> &[Proxy] {
        &self.proxies
    }

    /// The deployment's client libraries (read access for auditing).
    pub fn clients(&self) -> &[ClientLib] {
        &self.clients
    }

    /// GETs submitted by the application that have not concluded yet
    /// (auditing: each must terminate in a hit, miss, or reset).
    pub fn pending_get_keys(&self) -> Vec<(ClientId, ObjectKey)> {
        self.pending_gets.keys().cloned().collect()
    }

    /// PUTs submitted by the application that have not concluded yet.
    pub fn pending_put_keys(&self) -> Vec<(ClientId, ObjectKey)> {
        self.pending_puts.keys().cloned().collect()
    }

    /// Chaos hook: reclaim up to `n` idle instances right now, exactly as
    /// the platform's per-minute policy tick would (victims are chosen
    /// with the platform's seeded RNG, so schedules stay reproducible).
    /// Returns how many instances actually died — fewer than `n` when the
    /// fleet has fewer idle instances.
    pub fn inject_reclaims(&mut self, n: usize) -> usize {
        let now = self.now();
        let notices = self.platform.force_reclaims(now, n);
        let reclaimed = notices.len();
        for notice in notices {
            self.process_notice(notice);
        }
        reclaimed
    }

    /// Checks every protocol state machine's structural invariants plus
    /// the cross-machine byte accounting; returns one line per violation.
    /// The chaos harness calls this between drained events.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for p in &self.proxies {
            violations.extend(p.check_invariants());
        }
        for c in &self.clients {
            violations.extend(c.check_invariants());
        }
        violations
    }

    /// Schedules an application operation.
    pub fn submit(&mut self, at: SimTime, client: ClientId, op: Op) {
        self.queue.push(at, Ev::Submit { client, op });
    }

    /// Runs until the next event is past `t` (or the queue drains).
    ///
    /// This is the time-ordered delivery discipline — one
    /// [`Scheduler`] among several; the model checker drives the same
    /// world through [`SimWorld::run_with`] with schedulers that explore
    /// other interleavings.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_with(&mut TimeOrdered::until(t));
    }

    /// Runs the event loop under an arbitrary delivery discipline: ask
    /// `sched` for the next [`Choice`], apply it, repeat until the
    /// scheduler returns `None`.
    pub fn run_with(&mut self, sched: &mut dyn Scheduler) {
        while let Some(choice) = sched.next(self) {
            self.apply(choice);
        }
    }

    /// Applies one scheduling choice. Returns `false` when the choice
    /// was not applicable (event already delivered, instance not idle,
    /// client already dead) — a skipped step, not an error.
    ///
    /// # Panics
    ///
    /// Panics on an invariant violation when per-event auditing is
    /// armed (`IC_SIM_AUDIT`).
    pub fn apply(&mut self, choice: Choice) -> bool {
        let applied = match choice {
            Choice::Deliver { seq } => {
                let popped = if self.queue.peek_seq() == Some(seq) {
                    self.queue.pop() // hot path: the time-ordered front
                } else {
                    self.queue.take(seq)
                };
                match popped {
                    Some((now, ev)) => {
                        self.handle(now, ev);
                        true
                    }
                    None => false,
                }
            }
            Choice::Reclaim { instance } => {
                let now = self.now();
                match self.platform.force_reclaim(now, instance) {
                    Some(notice) => {
                        self.process_notice(notice);
                        true
                    }
                    None => false,
                }
            }
            Choice::Disconnect { client } => self.disconnect_client(client),
        };
        if applied && self.audit_each_event {
            let violations = self.check_invariants();
            assert!(
                violations.is_empty(),
                "IC_SIM_AUDIT: invariant violation immediately after `{choice}` \
                 (event #{} at {:?}):\n{}",
                self.queue.processed(),
                self.now(),
                violations.join("\n")
            );
        }
        applied
    }

    /// Every pending event as `(seq, scheduled_at, event)` in time
    /// order: the raw material a model-checking scheduler enumerates
    /// delivery choices over.
    pub fn pending_events(&self) -> Vec<(u64, SimTime, &Ev)> {
        self.queue.pending()
    }

    /// `true` while the event with queue sequence number `seq` is still
    /// pending.
    pub fn has_pending_event(&self, seq: u64) -> bool {
        self.queue.contains(seq)
    }

    /// Scheduled time of the next event in time order.
    pub fn peek_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Sequence number of the next event in time order.
    pub fn peek_event_seq(&self) -> Option<u64> {
        self.queue.peek_seq()
    }

    /// The fluid network's current epoch: a pending
    /// [`Ev::FlowTick`] with any other epoch is stale (delivering it is
    /// a no-op), so the model checker only treats the current-epoch tick
    /// as a real choice.
    pub fn flow_epoch(&self) -> u64 {
        self.net.epoch()
    }

    /// Ends `client`'s session abruptly, as a closed TCP connection
    /// would on the socket substrate: every proxy runs its
    /// disconnect cleanup (clearing writer affinity, aborting orphaned
    /// PUTs, dropping the session's tombstones), the world abandons the
    /// client's open application requests, and from now on events
    /// addressed to the client are dropped. Returns `false` if the
    /// client was already dead.
    pub fn disconnect_client(&mut self, client: ClientId) -> bool {
        if !self.dead_clients.insert(client) {
            return false;
        }
        let now = self.now();
        for p in 0..self.proxies.len() {
            let actions = self.proxies[p].on_client_disconnected(client);
            dispatch::run_proxy_actions(self, now, ProxyId(p as u16), actions, None);
        }
        self.pending_gets.retain(|(c, _), _| *c != client);
        self.pending_puts.retain(|(c, _), _| *c != client);
        true
    }

    /// `true` once `client`'s session was ended by
    /// [`SimWorld::disconnect_client`]. The auditors skip dead clients:
    /// their frozen half-open state is expected, not a leak.
    pub fn is_client_dead(&self, client: ClientId) -> bool {
        self.dead_clients.contains(&client)
    }

    /// Arms the model checker's revert-detection hooks on every client
    /// and proxy (see `ClientLib::set_debug_drop_early_answers` and
    /// `Proxy::set_debug_drop_stale_requery`). Test-only: each hook
    /// resurrects a historical protocol bug so the checker can prove it
    /// still finds the counterexample.
    pub fn set_debug_bug_hooks(&mut self, drop_early_answers: bool, drop_stale_requery: bool) {
        for c in &mut self.clients {
            c.set_debug_drop_early_answers(drop_early_answers);
        }
        for p in &mut self.proxies {
            p.set_debug_drop_stale_requery(drop_stale_requery);
        }
    }

    /// Hashes the deployment's protocol state into one `u64`: every
    /// proxy, client library, and function runtime, the in-flight
    /// network payloads, the world-level request tables, and the
    /// *content* of pending protocol events.
    ///
    /// Two worlds with equal fingerprints are (up to hash collision) in
    /// the same protocol state, so the model checker prunes a state it
    /// reaches twice via different interleavings. Time-derived values —
    /// event timestamps, chunk versions, flow progress — are excluded on
    /// purpose: interleavings that reconverge on the same protocol state
    /// almost always disagree on the clock, and keeping the clock in the
    /// hash would make dedup nearly useless. Housekeeping ticks
    /// ([`Ev::WarmupTick`], [`Ev::Platform`], stale [`Ev::FlowTick`]s)
    /// are likewise excluded; the checker never schedules them.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        for p in &self.proxies {
            p.fingerprint(&mut h);
        }
        for c in &self.clients {
            c.fingerprint(&mut h);
        }
        let mut runtimes: Vec<_> = self.runtimes.iter().collect();
        runtimes.sort_by_key(|(id, _)| **id);
        for (id, rt) in runtimes {
            id.hash(&mut h);
            rt.fingerprint(&mut h);
        }
        let mut relays: Vec<_> = self.relays.iter().collect();
        relays.sort_by_key(|(id, _)| **id);
        for (id, st) in relays {
            id.hash(&mut h);
            format!("{st:?}").hash(&mut h);
        }
        let mut gets: Vec<_> = self.pending_gets.keys().collect();
        gets.sort();
        gets.hash(&mut h);
        let mut puts: Vec<_> = self.pending_puts.keys().collect();
        puts.sort();
        puts.hash(&mut h);
        self.dead_clients.hash(&mut h);
        self.platform.reclaimable_instances().hash(&mut h);
        // Pending events as a sorted content multiset: *which* protocol
        // messages are still in flight matters; when they were scheduled
        // does not (delivery order is the checker's choice anyway).
        let mut pending: Vec<String> = self
            .queue
            .pending()
            .into_iter()
            .filter(|(_, _, ev)| {
                !matches!(ev, Ev::WarmupTick | Ev::Platform(_) | Ev::FlowTick { .. })
            })
            .map(|(_, _, ev)| format!("{ev:?}"))
            .collect();
        pending.sort();
        pending.hash(&mut h);
        self.net.fingerprint(&mut h);
        h.finish()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        // A disconnected client's session is gone: events addressed to it
        // (its own submissions included) hit a closed connection and are
        // dropped, exactly as the socket substrate would drop them.
        if let Ev::Submit { client, .. }
        | Ev::ClientRx { client, .. }
        | Ev::ResetDone { client, .. } = &ev
        {
            if self.dead_clients.contains(client) {
                return;
            }
        }
        match ev {
            Ev::Submit { client, op } => self.handle_submit(now, client, op),
            Ev::ClientRx { client, msg } => {
                let actions = self.clients[client.index()].on_proxy(msg);
                dispatch::run_client_actions(self, now, client, actions);
            }
            Ev::ProxyRx {
                proxy,
                from_instance,
                from_client,
                msg,
            } => {
                let actions = if let Some(c) = from_client {
                    self.proxies[proxy.index()].on_client(c, msg)
                } else if let Some((lambda, _)) = from_instance {
                    self.proxies[proxy.index()].on_lambda(lambda, msg)
                } else {
                    Vec::new()
                };
                dispatch::run_proxy_actions(self, now, proxy, actions, from_instance);
            }
            Ev::InstanceRx {
                lambda,
                instance,
                msg,
            } => {
                let alive = self
                    .runtimes
                    .get(&instance)
                    .is_some_and(|rt| rt.state() != ic_lambda::RunState::Sleeping);
                if alive {
                    let actions = self
                        .runtimes
                        .get_mut(&instance)
                        .expect("checked above")
                        .on_message(now, msg);
                    dispatch::run_lambda_actions(self, now, lambda, instance, actions);
                } else if !is_relay_msg(&msg) {
                    // Connection reset: tell the owning proxy.
                    let owner = self.owner_of(lambda);
                    let actions = self.proxies[owner.index()].on_delivery_failed(lambda, msg);
                    dispatch::run_proxy_actions(self, now, owner, actions, None);
                }
            }
            Ev::InvokeReady {
                lambda,
                instance,
                payload,
            } => {
                if let Some(rt) = self.runtimes.get_mut(&instance) {
                    let actions = rt.on_invoke(now, &payload);
                    dispatch::run_lambda_actions(self, now, lambda, instance, actions);
                }
            }
            Ev::LambdaTimer { instance, token } => {
                if let Some(rt) = self.runtimes.get_mut(&instance) {
                    let lambda = rt.lambda;
                    let actions = rt.on_timer(now, token);
                    dispatch::run_lambda_actions(self, now, lambda, instance, actions);
                }
            }
            Ev::FlowTick { epoch } => {
                // A stale tick (older epoch) must die without rescheduling,
                // or tick duplicates multiply with every flow start.
                if epoch != self.net.epoch() {
                    return;
                }
                let done = self.net.poll(now);
                for (_, payload) in done {
                    self.handle_flow(now, payload);
                }
                self.sync_network(now);
            }
            Ev::Platform(pe) => {
                let notices = self.platform.handle(now, pe);
                for n in notices {
                    self.process_notice(n);
                }
            }
            Ev::WarmupTick => {
                for p in 0..self.proxies.len() {
                    let actions = self.proxies[p].on_warmup_tick();
                    dispatch::run_proxy_actions(self, now, ProxyId(p as u16), actions, None);
                }
                self.queue
                    .push(now + self.cfg.warmup_interval, Ev::WarmupTick);
            }
            Ev::ResetDone {
                client, key, size, ..
            } => {
                if self.write_through {
                    let actions = self.clients[client.index()].put(key, Payload::synthetic(size));
                    dispatch::run_client_actions(self, now, client, actions);
                }
            }
        }
    }

    fn handle_submit(&mut self, now: SimTime, client: ClientId, op: Op) {
        match op {
            Op::Get { key, size } => {
                let entry = self
                    .pending_gets
                    .entry((client, key.clone()))
                    .or_insert_with(|| PendingReq {
                        size,
                        issued: Vec::new(),
                        hosts: BTreeSet::new(),
                    });
                entry.issued.push(now);
                if entry.issued.len() > 1 {
                    return; // coalesce with the in-flight GET
                }
                let actions = self.clients[client.index()].get(key);
                dispatch::run_client_actions(self, now, client, actions);
            }
            Op::Put { key, payload } => {
                let size = payload.len();
                let delay = self.encode_delay(size);
                self.pending_puts
                    .entry((client, key.clone()))
                    .or_insert_with(|| PendingReq {
                        size,
                        issued: Vec::new(),
                        hosts: BTreeSet::new(),
                    })
                    .issued
                    .push(now);
                let actions = self.clients[client.index()].put(key, payload);
                dispatch::run_client_actions(self, now + delay, client, actions);
            }
        }
    }

    // ------------------------------------------------------------------
    // Request bookkeeping
    // ------------------------------------------------------------------

    /// A GET could not be served from cache: record it (served via the
    /// backing store) and schedule the write-through re-insertion.
    fn fail_get(&mut self, at: SimTime, client: ClientId, key: ObjectKey, loss: bool) {
        let Some(p) = self.pending_gets.remove(&(client, key.clone())) else {
            return;
        };
        if !self.write_through {
            // Microbenchmark mode: record an infinite-cost miss marker is
            // not useful; record as ColdMiss with zero S3 time.
            for issued in p.issued {
                self.metrics.requests.push(RequestRecord {
                    key: key.clone(),
                    kind: OpKind::Get,
                    size: p.size,
                    issued,
                    completed: at,
                    outcome: if loss {
                        Outcome::Reset
                    } else {
                        Outcome::ColdMiss
                    },
                    hosts_touched: 0,
                });
            }
            return;
        }
        let s3_latency = self.s3.get_latency(&mut self.rng, p.size);
        let completed = at + s3_latency;
        for issued in &p.issued {
            self.metrics.requests.push(RequestRecord {
                key: key.clone(),
                kind: OpKind::Get,
                size: p.size,
                issued: *issued,
                completed,
                outcome: if loss {
                    Outcome::Reset
                } else {
                    Outcome::ColdMiss
                },
                hosts_touched: 0,
            });
        }
        self.queue.push(
            completed,
            Ev::ResetDone {
                client,
                key,
                size: p.size,
                issued: p.issued[0],
                loss_induced: loss,
            },
        );
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    fn handle_flow(&mut self, now: SimTime, payload: FlowPayload) {
        match payload {
            FlowPayload::GetChunk {
                client,
                instance,
                lambda,
                msg,
            } => {
                if let Msg::ChunkToClient { id, .. } = &msg {
                    // Host attribution for Fig 4.
                    if let Some(inst) = self.platform.fleet.instance(instance) {
                        if let Some(p) = self.pending_gets.get_mut(&(client, id.key.clone())) {
                            p.hosts.insert(inst.host);
                        }
                    }
                }
                self.queue.push(now, Ev::ClientRx { client, msg });
                if let Some(rt) = self.runtimes.get_mut(&instance) {
                    let actions = rt.on_served(now);
                    dispatch::run_lambda_actions(self, now, lambda, instance, actions);
                }
            }
            FlowPayload::PutChunk {
                instance,
                lambda,
                ack,
            } => {
                let owner = self.owner_of(lambda);
                self.queue.push(
                    now + self.params.ctrl_latency,
                    Ev::ProxyRx {
                        proxy: owner,
                        from_instance: Some((lambda, instance)),
                        from_client: None,
                        msg: ack,
                    },
                );
                if let Some(rt) = self.runtimes.get_mut(&instance) {
                    let actions = rt.on_served(now);
                    dispatch::run_lambda_actions(self, now, lambda, instance, actions);
                }
            }
            FlowPayload::RelayChunk {
                to_instance,
                to_lambda,
                msg,
            } => {
                self.queue.push(
                    now,
                    Ev::InstanceRx {
                        lambda: to_lambda,
                        instance: to_instance,
                        msg,
                    },
                );
            }
        }
    }

    fn do_invoke(&mut self, at: SimTime, lambda: LambdaId, payload: InvokePayload) {
        let inv = self.platform.invoke(at, lambda, &mut self.net);
        self.ensure_runtime(at, lambda, inv.instance);
        self.queue.push(
            inv.ready_at,
            Ev::InvokeReady {
                lambda,
                instance: inv.instance,
                payload,
            },
        );
    }

    fn ensure_runtime(&mut self, at: SimTime, lambda: LambdaId, instance: InstanceId) {
        self.runtimes
            .entry(instance)
            .or_insert_with(|| Runtime::new(lambda, instance, self.rt_cfg, at));
    }

    fn process_notice(&mut self, notice: PlatformNotice) {
        match notice {
            PlatformNotice::Reclaimed { instance, .. } => {
                self.runtimes.remove(&instance);
            }
            PlatformNotice::Schedule { at, event } => {
                self.queue.push(at, Ev::Platform(event));
            }
        }
    }

    fn sync_network(&mut self, now: SimTime) {
        if let Some((t, epoch)) = self.net.next_completion(now) {
            self.queue.push(t, Ev::FlowTick { epoch });
        }
    }

    fn relay_counterpart(
        &self,
        owner: ProxyId,
        relay: RelayId,
        from: InstanceId,
    ) -> Option<InstanceId> {
        let r = self.relays.get(&(owner, relay))?;
        if from == r.source {
            r.dest
        } else {
            Some(r.source)
        }
    }

    fn owner_of(&self, lambda: LambdaId) -> ProxyId {
        self.cfg.owner_of(lambda)
    }

    fn encode_delay(&self, size: u64) -> SimDuration {
        let bps = if self.cfg.ec.parity > 0 {
            self.params.encode_bps
        } else {
            self.params.split_bps
        };
        SimDuration::from_secs_f64(size as f64 / bps)
    }

    fn service_jitter(&mut self) -> SimDuration {
        let base = lognormal_sample(
            &mut self.rng,
            (self.params.chunk_jitter_median.as_secs_f64()).ln(),
            self.params.chunk_jitter_sigma,
        );
        let straggle = if self.rng.gen::<f64>() < self.params.straggler_prob {
            exponential_sample(
                &mut self.rng,
                1.0 / self.params.straggler_mean.as_secs_f64(),
            )
        } else {
            0.0
        };
        SimDuration::from_secs_f64(base + straggle)
    }
}

impl ClientTransport for SimWorld {
    fn client_send(&mut self, now: SimTime, client: ClientId, proxy: ProxyId, msg: Msg) {
        self.queue.push(
            now + self.params.ctrl_latency,
            Ev::ProxyRx {
                proxy,
                from_instance: None,
                from_client: Some(client),
                msg,
            },
        );
    }

    fn deliver(
        &mut self,
        now: SimTime,
        client: ClientId,
        key: ObjectKey,
        object: Payload,
        report: GetReport,
    ) {
        let decode = if report.used_parity {
            SimDuration::from_secs_f64(report.decoded_bytes as f64 / self.params.decode_bps)
        } else {
            SimDuration::from_secs_f64(object.len() as f64 / self.params.split_bps)
        };
        let completed = now + decode;
        if report.lost_chunks > 0 {
            self.metrics.ft_events.push((now, FtKind::Recovery));
        }
        if let Some(p) = self.pending_gets.remove(&(client, key.clone())) {
            for issued in p.issued {
                self.metrics.requests.push(RequestRecord {
                    key: key.clone(),
                    kind: OpKind::Get,
                    size: object.len(),
                    issued,
                    completed,
                    outcome: Outcome::Hit {
                        used_parity: report.used_parity,
                        lost_chunks: report.lost_chunks,
                    },
                    hosts_touched: p.hosts.len() as u32,
                });
            }
        }
    }

    fn unrecoverable(
        &mut self,
        now: SimTime,
        client: ClientId,
        key: ObjectKey,
        _available: usize,
        _needed: usize,
    ) {
        self.metrics.ft_events.push((now, FtKind::Reset));
        self.fail_get(now, client, key, true);
    }

    fn miss(&mut self, now: SimTime, client: ClientId, key: ObjectKey) {
        self.fail_get(now, client, key, false);
    }

    fn put_complete(&mut self, now: SimTime, client: ClientId, key: ObjectKey) {
        if let Some(p) = self.pending_puts.remove(&(client, key.clone())) {
            for issued in p.issued {
                self.metrics.requests.push(RequestRecord {
                    key: key.clone(),
                    kind: OpKind::Put,
                    size: p.size,
                    issued,
                    completed: now,
                    outcome: Outcome::Stored,
                    hosts_touched: 0,
                });
            }
        }
    }

    fn put_failed(&mut self, now: SimTime, client: ClientId, key: ObjectKey) {
        if let Some(p) = self.pending_puts.remove(&(client, key.clone())) {
            for issued in p.issued {
                self.metrics.requests.push(RequestRecord {
                    key: key.clone(),
                    kind: OpKind::Put,
                    size: p.size,
                    issued,
                    completed: now,
                    outcome: Outcome::PutAborted,
                    hosts_touched: 0,
                });
            }
        }
    }
}

impl ProxyTransport for SimWorld {
    fn invoke(&mut self, now: SimTime, _proxy: ProxyId, lambda: LambdaId, payload: InvokePayload) {
        self.do_invoke(now, lambda, payload);
    }

    fn proxy_send(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> std::result::Result<(), Msg> {
        match self.proxies[proxy.index()]
            .member(lambda)
            .and_then(|m| m.instance())
        {
            Some(instance) => {
                self.queue.push(
                    now + self.params.ctrl_latency,
                    Ev::InstanceRx {
                        lambda,
                        instance,
                        msg,
                    },
                );
                Ok(())
            }
            // Never connected: behave like a reset.
            None => Err(msg),
        }
    }

    fn delivery_failed(
        &mut self,
        _now: SimTime,
        proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Vec<ProxyAction> {
        self.proxies[proxy.index()].on_delivery_failed(lambda, msg)
    }

    fn proxy_reply(&mut self, now: SimTime, _proxy: ProxyId, client: ClientId, msg: Msg) {
        self.queue
            .push(now + self.params.ctrl_latency, Ev::ClientRx { client, msg });
    }

    fn proxy_stream(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        client: ClientId,
        msg: Msg,
        ctx: LambdaCtx,
    ) {
        // Cut-through chunk stream lambda → proxy → client.
        let Some((lambda, instance)) = ctx else {
            // No flow source (shouldn't happen): deliver as a plain
            // message.
            self.queue
                .push(now + self.params.ctrl_latency, Ev::ClientRx { client, msg });
            return;
        };
        let bytes = msg.data_len() as f64;
        let mut path = Vec::with_capacity(3);
        if let Some(up) = self
            .platform
            .fleet
            .instance_uplink(instance, &self.platform.hosts)
        {
            path.push(up);
        }
        path.push(self.proxy_links[proxy.index()]);
        path.push(self.client_links[client.index()]);
        let cap = self.platform.instance_bandwidth();
        self.net.start_flow(
            now,
            bytes.max(1.0),
            path,
            Some(cap),
            FlowPayload::GetChunk {
                client,
                instance,
                lambda,
                msg,
            },
        );
        self.sync_network(now);
    }

    fn spawn_relay(
        &mut self,
        _now: SimTime,
        proxy: ProxyId,
        relay: RelayId,
        source: LambdaId,
        ctx: LambdaCtx,
    ) {
        let source_instance = ctx
            .map(|(_, i)| i)
            .or_else(|| {
                self.proxies[proxy.index()]
                    .member(source)
                    .and_then(|m| m.instance())
            })
            .unwrap_or(InstanceId::NONE);
        self.relays.insert(
            (proxy, relay),
            RelayState {
                source: source_instance,
                dest: None,
            },
        );
    }
}

impl LambdaTransport for SimWorld {
    fn lambda_send(&mut self, now: SimTime, lambda: LambdaId, instance: InstanceId, msg: Msg) {
        let owner = self.owner_of(lambda);
        self.queue.push(
            now + self.params.ctrl_latency,
            Ev::ProxyRx {
                proxy: owner,
                from_instance: Some((lambda, instance)),
                from_client: None,
                msg,
            },
        );
    }

    fn lambda_stream(&mut self, now: SimTime, lambda: LambdaId, instance: InstanceId, msg: Msg) {
        let owner = self.owner_of(lambda);
        match &msg {
            Msg::ChunkData { .. } => {
                // Announce to the proxy after the node-side service
                // jitter; the proxy will open the cut-through flow.
                let jitter = self.service_jitter();
                self.queue.push(
                    now + jitter + self.params.ctrl_latency,
                    Ev::ProxyRx {
                        proxy: owner,
                        from_instance: Some((lambda, instance)),
                        from_client: None,
                        msg,
                    },
                );
            }
            Msg::PutAck { id, .. } => {
                // The inbound PUT data flow; the ack releases when the
                // bytes land.
                let bytes = self
                    .runtimes
                    .get(&instance)
                    .and_then(|rt| rt.store().peek(id).map(|c| c.payload.len()))
                    .unwrap_or(1);
                let mut path = vec![self.proxy_links[owner.index()]];
                if let Some(up) = self
                    .platform
                    .fleet
                    .instance_uplink(instance, &self.platform.hosts)
                {
                    path.push(up);
                }
                let cap = self.platform.instance_bandwidth();
                self.net.start_flow(
                    now,
                    bytes.max(1) as f64,
                    path,
                    Some(cap),
                    FlowPayload::PutChunk {
                        instance,
                        lambda,
                        ack: msg,
                    },
                );
                self.sync_network(now);
            }
            _ => {
                debug_assert!(false, "unexpected data message {}", msg.kind());
            }
        }
    }

    fn relay_send(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    ) {
        let owner = self.owner_of(lambda);
        if let Some(to) = self.relay_counterpart(owner, relay, instance) {
            self.queue.push(
                now + self.params.ctrl_latency * 2,
                Ev::InstanceRx {
                    lambda,
                    instance: to,
                    msg,
                },
            );
        }
    }

    fn relay_stream(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    ) {
        let owner = self.owner_of(lambda);
        if let Some(to) = self.relay_counterpart(owner, relay, instance) {
            let bytes = msg.data_len().max(1) as f64;
            let mut path = Vec::with_capacity(2);
            if let Some(up) = self
                .platform
                .fleet
                .instance_uplink(instance, &self.platform.hosts)
            {
                path.push(up);
            }
            path.push(self.proxy_links[owner.index()]);
            let cap = self.platform.instance_bandwidth();
            self.net.start_flow(
                now,
                bytes,
                path,
                Some(cap),
                FlowPayload::RelayChunk {
                    to_instance: to,
                    to_lambda: lambda,
                    msg,
                },
            );
            self.sync_network(now);
        }
    }

    fn set_timer(
        &mut self,
        _now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        token: u64,
        at: SimTime,
    ) {
        self.queue.push(at, Ev::LambdaTimer { instance, token });
    }

    fn invoke_peer(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        _instance: InstanceId,
        relay: RelayId,
    ) {
        let owner = self.owner_of(lambda);
        let inv = self.platform.invoke(now, lambda, &mut self.net);
        self.ensure_runtime(now, lambda, inv.instance);
        if let Some(r) = self.relays.get_mut(&(owner, relay)) {
            r.dest = Some(inv.instance);
        }
        self.queue.push(
            inv.ready_at,
            Ev::InvokeReady {
                lambda,
                instance: inv.instance,
                payload: InvokePayload {
                    proxy: owner,
                    piggyback_ping: false,
                    backup: Some(BackupInvoke {
                        relay,
                        source: lambda,
                    }),
                },
            },
        );
    }

    fn end_execution(
        &mut self,
        now: SimTime,
        _lambda: LambdaId,
        instance: InstanceId,
        _bye: bool,
        category: CostCategory,
    ) {
        let notice = self.platform.end_execution(now, instance, category);
        self.process_notice(notice);
    }
}

fn is_relay_msg(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::HelloSource { .. }
            | Msg::BackupKeys { .. }
            | Msg::BackupFetch { .. }
            | Msg::BackupChunk { .. }
            | Msg::BackupMiss { .. }
            | Msg::BackupDone { .. }
    )
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.now())
            .field("lambdas", &self.cfg.total_lambdas())
            .field("proxies", &self.proxies.len())
            .field("clients", &self.clients.len())
            .field("runtimes", &self.runtimes.len())
            .field("requests", &self.metrics.requests.len())
            .finish()
    }
}
