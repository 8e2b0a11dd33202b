//! The pipeline probe: the whole protocol path of an operation on one
//! thread, in memory, with a span around every call into a layer.
//!
//! The probe implements the client and proxy roles of
//! `infinicache::dispatch` itself and hosts the node role with the
//! product's own `NodeHost` (the node-daemon core `ic-net` runs too), so
//! an op goes `ClientLib` → frame encode → (copy) → frame decode →
//! `Proxy::on_client` → frame → `Runtime::on_message` → frame →
//! `Proxy::on_lambda` → frame → `ClientLib::on_proxy` exactly as on the
//! socket substrate — minus sockets, threads and the kernel. What is
//! left is what the state machines, the codec and the EC cost; what the
//! socket run adds on top is transport.
//!
//! Every hop frames its message with the socket substrate's real
//! `ic_net::Frame` envelope. The one `FrameParts::to_vec` per hop stands
//! in for the socket read (the bytes must land in *one* buffer for the
//! zero-copy decoder to alias) and has a span of its own.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use bytes::Bytes;
use ic_client::{ClientLib, GetReport};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{
    ClientId, DeploymentConfig, EcConfig, InstanceId, LambdaId, ObjectKey, Payload, ProxyId,
    RelayId, SimTime,
};
use ic_ec::{join_object, split_object_shared, ReedSolomon};
use ic_lambda::runtime::RuntimeConfig;
use ic_net::bench::pattern_bytes;
use ic_net::Frame;
use ic_proxy::{Proxy, ProxyAction, ProxyConfig};
use infinicache::dispatch::{self, ClientOutcome, ClientTransport, LambdaCtx, ProxyTransport};
use infinicache::nodehost::{NodeHost, NodeIo};

use crate::spans::{self, Recorder, Span};
use crate::workloads::{key_name, NetSpec, Op, CLIENTS};

const CLIENT: ClientId = ClientId(0);
const PROXY: ProxyId = ProxyId(0);

/// Size of the length + version envelope `ic_common::frame` puts in
/// front of every body on the wire.
const ENVELOPE_BYTES: u64 = 5;

/// Root span of a GET, from the client call to the client's answer.
pub const GET: &str = "pipeline.get";
/// Root span of a PUT.
pub const PUT: &str = "pipeline.put";
/// Root span of the protocol work left after the client's answer.
const TAIL: &str = "pipeline.tail";
/// `ClientLib::{put, get, on_proxy}` (includes the EC work).
pub const CLIENT_LIB: &str = "client.lib";
/// `Proxy::{on_client, on_lambda, on_delivery_failed}`.
pub const PROXY_DISPATCH: &str = "proxy.dispatch";
/// `NodeHost::{invoke, deliver}` → `Runtime` and its chunk store.
pub const LAMBDA_RUNTIME: &str = "lambda.runtime";
/// `Frame::encode_parts`.
pub const FRAME_ENCODE: &str = "frame.encode";
/// `FrameParts::to_vec`, the socket read's stand-in.
pub const FRAME_COPY: &str = "frame.copy";
/// `Frame::decode_shared`.
pub const FRAME_DECODE: &str = "frame.decode";
/// Root span of a standalone replay of a PUT's EC encode.
const EC_ENCODE: &str = "ec.encode";
/// Root span of a standalone replay of a GET's EC decode.
const EC_DECODE: &str = "ec.decode";
/// Root span of a standalone decode with `p` data shards withheld: what
/// a GET pays when parity chunks overtake data chunks on the wire.
const EC_RECONSTRUCT: &str = "ec.reconstruct";

/// A message in flight between two roles (already framed and unframed).
enum Wire {
    FromClient(Msg),
    ToClient(Msg),
    Invoke(LambdaId, InvokePayload),
    ToInstance(LambdaId, InstanceId, Msg),
    FromInstance(LambdaId, InstanceId, Msg),
    Unreachable(LambdaId, Msg),
}

/// The probe's `NodeIo`: node → proxy messages pile up here and are
/// framed by the pump once the runtime call (and its span) has returned.
#[derive(Default)]
struct Outbox(Vec<(InstanceId, Msg)>);

impl NodeIo for Outbox {
    fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg) {
        self.0.push((instance, msg));
    }
}

struct Probe {
    rec: Recorder,
    epoch: Instant,
    client: ClientLib,
    proxy: Proxy,
    hosts: Vec<NodeHost<Outbox>>,
    dead: Vec<bool>,
    queue: VecDeque<Wire>,
    outcomes: Vec<ClientOutcome>,
    /// Chunk → node placement of every key's latest PUT, read off the
    /// `PutChunk` messages as they pass.
    placements: HashMap<ObjectKey, Vec<LambdaId>>,
    frames: u64,
    wire_bytes: u64,
    proxy_actions: u64,
}

impl Probe {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// One hop: encode, copy into one buffer (the socket read's stand-in),
    /// decode zero-copy out of it.
    fn hop(&mut self, frame: Frame) -> Frame {
        self.rec.open(FRAME_ENCODE);
        let parts = frame.encode_parts();
        self.rec.close();
        self.frames += 1;
        self.wire_bytes += parts.len() as u64 + ENVELOPE_BYTES;
        self.rec.open(FRAME_COPY);
        let body = Bytes::from(parts.to_vec());
        self.rec.close();
        self.rec.open(FRAME_DECODE);
        let back = Frame::decode_shared(&body).expect("a frame this probe just encoded");
        self.rec.close();
        back
    }

    /// Frames and queues whatever a node call left in its outbox.
    fn flush_host(&mut self, lambda: LambdaId) {
        let out = std::mem::take(&mut self.hosts[lambda.0 as usize].io.0);
        for (instance, msg) in out {
            if let Frame::FromInstance { instance, msg } =
                self.hop(Frame::FromInstance { instance, msg })
            {
                self.queue
                    .push_back(Wire::FromInstance(lambda, instance, msg));
            }
        }
    }

    fn proxy_step(&mut self, ctx: LambdaCtx, f: impl FnOnce(&mut Proxy) -> Vec<ProxyAction>) {
        self.rec.open(PROXY_DISPATCH);
        let actions = f(&mut self.proxy);
        self.rec.close();
        self.proxy_actions += actions.len() as u64;
        let now = self.now();
        dispatch::run_proxy_actions(self, now, PROXY, actions, ctx);
    }

    /// Delivers queued messages until the queue is empty — or, with
    /// `until_outcome`, until the client reached a terminal outcome.
    fn pump(&mut self, until_outcome: bool) {
        while !until_outcome || self.outcomes.is_empty() {
            let Some(wire) = self.queue.pop_front() else {
                return;
            };
            let now = self.now();
            match wire {
                Wire::FromClient(msg) => self.proxy_step(None, |p| p.on_client(CLIENT, msg)),
                Wire::FromInstance(l, i, msg) => {
                    self.proxy_step(Some((l, i)), |p| p.on_lambda(l, msg));
                }
                Wire::Unreachable(l, msg) => {
                    self.proxy_step(None, |p| p.on_delivery_failed(l, msg));
                }
                Wire::ToClient(msg) => {
                    self.rec.open(CLIENT_LIB);
                    let actions = self.client.on_proxy(msg);
                    self.rec.close();
                    dispatch::run_client_actions(self, now, CLIENT, actions);
                }
                // A dead daemon: the invoke parks at the proxy forever and
                // frames to its instances vanish with the socket.
                Wire::Invoke(l, _) | Wire::ToInstance(l, _, _) if self.dead[l.0 as usize] => {}
                Wire::Invoke(l, payload) => {
                    self.rec.open(LAMBDA_RUNTIME);
                    self.hosts[l.0 as usize].invoke(now, &payload);
                    self.rec.close();
                    self.flush_host(l);
                }
                Wire::ToInstance(l, instance, msg) => {
                    self.rec.open(LAMBDA_RUNTIME);
                    let bounced = self.hosts[l.0 as usize].deliver(now, instance, msg);
                    self.rec.close();
                    self.flush_host(l);
                    if let Err(msg) = bounced {
                        if let Frame::Unreachable { msg } = self.hop(Frame::Unreachable { msg }) {
                            self.queue.push_back(Wire::Unreachable(l, msg));
                        }
                    }
                }
            }
        }
    }

    /// Runs one client call to its terminal outcome inside an op span,
    /// then drains the work the protocol still does after the client has
    /// its answer (late chunks, acks) inside a tail span.
    fn run_op(
        &mut self,
        root: &'static str,
        op_id: u32,
        call: impl FnOnce(&mut ClientLib) -> Vec<ic_client::ClientAction>,
    ) -> ClientOutcome {
        self.rec.set_op(op_id);
        self.rec.open(root);
        self.rec.open(CLIENT_LIB);
        let actions = call(&mut self.client);
        self.rec.close();
        let now = self.now();
        dispatch::run_client_actions(self, now, CLIENT, actions);
        self.pump(true);
        self.rec.close();
        self.rec.open(TAIL);
        self.pump(false);
        self.rec.close();
        assert_eq!(self.outcomes.len(), 1, "one op, one terminal outcome");
        self.outcomes.pop().expect("checked")
    }

    /// A killed daemon, as the socket proxy sees it: the connection is
    /// gone and stays gone.
    fn kill(&mut self, lambda: LambdaId) {
        self.dead[lambda.0 as usize] = true;
        self.proxy_step(None, |p| p.on_connection_lost(lambda));
        self.pump(false);
    }
}

impl ClientTransport for Probe {
    fn client_send(&mut self, _now: SimTime, _client: ClientId, _proxy: ProxyId, msg: Msg) {
        if let Msg::PutChunk {
            id,
            lambda,
            total_chunks,
            ..
        } = &msg
        {
            let placement = self.placements.entry(id.key.clone()).or_default();
            placement.resize(*total_chunks as usize, *lambda);
            placement[id.seq as usize] = *lambda;
        }
        if let Frame::App { msg } = self.hop(Frame::App { msg }) {
            self.queue.push_back(Wire::FromClient(msg));
        }
    }

    fn deliver(
        &mut self,
        _: SimTime,
        _: ClientId,
        key: ObjectKey,
        object: Payload,
        report: GetReport,
    ) {
        self.outcomes.push(ClientOutcome::Delivered {
            key,
            object,
            report,
        });
    }

    fn unrecoverable(
        &mut self,
        _: SimTime,
        _: ClientId,
        key: ObjectKey,
        available: usize,
        needed: usize,
    ) {
        self.outcomes.push(ClientOutcome::Unrecoverable {
            key,
            available,
            needed,
        });
    }

    fn miss(&mut self, _: SimTime, _: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::Miss { key });
    }

    fn put_complete(&mut self, _: SimTime, _: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::PutComplete { key });
    }

    fn put_failed(&mut self, _: SimTime, _: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::PutFailed { key });
    }
}

impl ProxyTransport for Probe {
    fn invoke(&mut self, _: SimTime, _: ProxyId, lambda: LambdaId, payload: InvokePayload) {
        if let Frame::Invoke { payload } = self.hop(Frame::Invoke { payload }) {
            self.queue.push_back(Wire::Invoke(lambda, payload));
        }
    }

    fn proxy_send(
        &mut self,
        _: SimTime,
        _: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Result<(), Msg> {
        let Some(instance) = self.proxy.member(lambda).and_then(|m| m.instance()) else {
            return Err(msg);
        };
        if let Frame::ToInstance { instance, msg } = self.hop(Frame::ToInstance { instance, msg }) {
            self.queue
                .push_back(Wire::ToInstance(lambda, instance, msg));
        }
        Ok(())
    }

    fn delivery_failed(
        &mut self,
        _: SimTime,
        _: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Vec<ProxyAction> {
        self.proxy.on_delivery_failed(lambda, msg)
    }

    fn proxy_reply(&mut self, _: SimTime, _: ProxyId, _client: ClientId, msg: Msg) {
        if let Frame::App { msg } = self.hop(Frame::App { msg }) {
            self.queue.push_back(Wire::ToClient(msg));
        }
    }

    fn proxy_stream(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        client: ClientId,
        msg: Msg,
        _: LambdaCtx,
    ) {
        self.proxy_reply(now, proxy, client, msg);
    }

    fn spawn_relay(&mut self, _: SimTime, _: ProxyId, _: RelayId, _: LambdaId, _: LambdaCtx) {
        // Backup is off in every workload's deployment.
    }
}

/// What the probe measured.
pub struct ProbeReport {
    /// Operations driven (warm-up excluded).
    pub ops: usize,
    /// GETs among them.
    pub gets: usize,
    /// PUTs among them.
    pub puts: usize,
    /// Totals per `(root, name)` of every measured span. Roots are
    /// [`GET`] and [`PUT`] (an operation up to the client's answer), the
    /// tail (protocol work after the answer) and the standalone EC
    /// replays.
    pub totals: BTreeMap<(&'static str, &'static str), spans::NameTotal>,
    /// Frames encoded.
    pub frames: u64,
    /// Wire bytes (bodies + envelopes).
    pub wire_bytes: u64,
    /// `ProxyAction`s the proxy emitted.
    pub proxy_actions: u64,
    /// GETs that decoded through parity (in-order delivery: only those
    /// with a data chunk on a dead node).
    pub reconstructs: u64,
    /// `ClientLib`'s decode-plan cache `(hits, misses)`.
    pub plan_cache: (u64, u64),
    /// Bytes the proxy accounts as stored on the pool at the end.
    pub stored_bytes: u64,
    /// Operations whose outcome or bytes were wrong.
    pub failed: u64,
    /// Every span, for the dump.
    pub spans: Vec<Span>,
}

impl ProbeReport {
    fn total(&self, root: &'static str, name: &'static str) -> spans::NameTotal {
        self.totals.get(&(root, name)).copied().unwrap_or_default()
    }

    /// The layer spans that make up an op span.
    const PIPELINE_LAYERS: [&'static str; 6] = [
        CLIENT_LIB,
        PROXY_DISPATCH,
        LAMBDA_RUNTIME,
        FRAME_ENCODE,
        FRAME_COPY,
        FRAME_DECODE,
    ];

    /// Mean microseconds per operation (of either kind) spent in `layer`
    /// before the client had its answer.
    pub fn layer_us_per_op(&self, layer: &'static str) -> f64 {
        let ns = self.total(GET, layer).total_ns + self.total(PUT, layer).total_ns;
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Mean microseconds of layer spans per operation of kind `root`
    /// ([`GET`] or [`PUT`]); 0 when the workload has none.
    pub fn pipeline_us(&self, root: &'static str) -> f64 {
        let count = self.total(root, root).count;
        if count == 0 {
            return 0.0;
        }
        let ns: u64 = Self::PIPELINE_LAYERS
            .iter()
            .map(|l| self.total(root, l).total_ns)
            .sum();
        ns as f64 / 1e3 / count as f64
    }

    /// Share of the op spans their layer spans do not cover: the probe's
    /// own queueing and dispatch glue (and the span bookkeeping).
    pub fn glue_share(&self) -> f64 {
        let (get, put) = (self.total(GET, GET), self.total(PUT, PUT));
        (get.self_ns + put.self_ns) as f64 / (get.total_ns + put.total_ns).max(1) as f64
    }

    /// Mean microseconds per op of protocol work after the client had
    /// its answer (late chunks, acks).
    pub fn tail_us_per_op(&self) -> f64 {
        self.total(TAIL, TAIL).total_ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Mean microseconds of the standalone EC encode replays per PUT.
    pub fn ec_encode_us_per_put(&self) -> f64 {
        self.total(EC_ENCODE, EC_ENCODE).total_ns as f64 / 1e3 / self.puts.max(1) as f64
    }

    /// Mean microseconds of the standalone EC decode replays per GET
    /// (join only, unless a dead node held one of the key's data chunks).
    pub fn ec_decode_us_per_get(&self) -> f64 {
        self.total(EC_DECODE, EC_DECODE).total_ns as f64 / 1e3 / self.gets.max(1) as f64
    }

    /// Mean microseconds per GET of a decode that must rebuild `p` data
    /// shards from parity first.
    pub fn ec_reconstruct_us_per_get(&self) -> f64 {
        self.total(EC_RECONSTRUCT, EC_RECONSTRUCT).total_ns as f64 / 1e3 / self.gets.max(1) as f64
    }

    /// Mean microseconds per op the op spans' layer spans leave
    /// uncovered.
    pub fn glue_us_per_op(&self) -> f64 {
        (self.total(GET, GET).self_ns + self.total(PUT, PUT).self_ns) as f64
            / 1e3
            / self.ops.max(1) as f64
    }
}

/// Drives `ops` (the clients' sequences, interleaved, `CLIENTS` keys
/// slices as on the socket run) through the in-memory pipeline after
/// preloading every key and killing the workload's dead nodes. The first
/// `warmup` ops run unrecorded.
pub fn run(spec: &NetSpec, seed: u64, ops: &[(usize, Op)], warmup: usize) -> ProbeReport {
    let ec = EcConfig::new(spec.ec_data, spec.ec_parity).expect("frozen specs are valid");
    let cfg = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(spec.nodes, ec)
    };
    let pool: Vec<LambdaId> = cfg.proxy_pool(PROXY).collect();
    let rt_cfg = RuntimeConfig::for_deployment(&cfg);
    let epoch = Instant::now();
    let mut probe = Probe {
        rec: Recorder::at(epoch),
        epoch,
        client: ClientLib::new(
            CLIENT,
            ec,
            vec![(PROXY, pool.clone())],
            cfg.ring_vnodes,
            seed,
        ),
        proxy: Proxy::new(
            ProxyConfig {
                id: PROXY,
                capacity_bytes: cfg.pool_capacity(),
            },
            pool.iter().copied(),
        ),
        hosts: pool
            .iter()
            .map(|&l| NodeHost::new(l, rt_cfg, Outbox::default()))
            .collect(),
        dead: vec![false; pool.len()],
        queue: VecDeque::new(),
        outcomes: Vec::new(),
        placements: HashMap::new(),
        frames: 0,
        wire_bytes: 0,
        proxy_actions: 0,
    };
    let size = spec.object_bytes;
    let per_client = spec.keys / CLIENTS;
    let mut failed = 0u64;
    let mut versions = vec![0u64; spec.keys];
    let mut expected: Vec<Bytes> = Vec::with_capacity(spec.keys);
    for c in 0..CLIENTS {
        for k in 0..per_client as u32 {
            let key = key_name(c, k);
            let data = pattern_bytes(&key, 0, size);
            let out = probe.run_op(PUT, 0, |lib| {
                lib.put(ObjectKey::new(&key), Payload::Bytes(data.clone()))
            });
            failed += u64::from(!matches!(out, ClientOutcome::PutComplete { .. }));
            expected.push(data);
        }
    }
    for l in 0..spec.kill_nodes {
        probe.kill(LambdaId(l));
    }

    let rs = ReedSolomon::from_config(ec);
    let (mut gets, mut puts, mut reconstructs) = (0, 0, 0);
    for (i, &(c, op)) in ops.iter().enumerate() {
        if i == warmup {
            // Everything recorded so far (preload, kills, warm-up) is
            // dropped; counters restart with the measured ops.
            probe.rec = Recorder::at(epoch);
            (probe.frames, probe.wire_bytes, probe.proxy_actions) = (0, 0, 0);
            (gets, puts, reconstructs) = (0, 0, 0);
        }
        let slot = c * per_client + op.key as usize;
        let key = ObjectKey::new(key_name(c, op.key));
        let op_id = (i.saturating_sub(warmup)) as u32;
        if op.is_get {
            gets += 1;
            match probe.run_op(GET, op_id, |lib| lib.get(key.clone())) {
                ClientOutcome::Delivered {
                    object: Payload::Bytes(b),
                    report,
                    ..
                } if b == expected[slot] => reconstructs += u64::from(report.used_parity),
                _ => failed += 1,
            }
            // The same decode the client just did, replayed standalone:
            // survivors of this key's stripe in, object out.
            let mut worst = stripe(&rs, ec, &expected[slot]);
            let mut shards = worst.clone();
            for (seq, lambda) in probe.placements[&key].iter().enumerate() {
                if probe.dead[lambda.0 as usize] {
                    shards[seq] = None;
                }
            }
            worst[..ec.parity].fill(None);
            for (root, shards) in [(EC_DECODE, &mut shards), (EC_RECONSTRUCT, &mut worst)] {
                probe.rec.open(root);
                if shards[..ec.data].iter().any(Option::is_none) {
                    rs.reconstruct_data_bytes(shards).expect("≤ p shards lost");
                }
                let data: Vec<Bytes> = shards.drain(..ec.data).flatten().collect();
                let joined = join_object(ec, &data, size as u64).expect("a full stripe");
                probe.rec.close();
                failed += u64::from(joined != expected[slot]);
            }
        } else {
            puts += 1;
            versions[slot] += 1;
            let data = pattern_bytes(key.as_str(), versions[slot], size);
            let out = probe.run_op(PUT, op_id, |lib| {
                lib.put(key.clone(), Payload::Bytes(data.clone()))
            });
            failed += u64::from(!matches!(out, ClientOutcome::PutComplete { .. }));
            // The same encode the client just did, replayed standalone.
            probe.rec.open(EC_ENCODE);
            let shards = split_object_shared(ec, &data).expect("non-empty object");
            let parity = rs.encode_parity(&shards).expect("a well-formed stripe");
            probe.rec.close();
            std::hint::black_box(parity);
            expected[slot] = data;
        }
    }

    let spans = probe.rec.spans().to_vec();
    ProbeReport {
        ops: gets + puts,
        gets,
        puts,
        totals: spans::totals(&spans),
        frames: probe.frames,
        wire_bytes: probe.wire_bytes,
        proxy_actions: probe.proxy_actions,
        reconstructs,
        plan_cache: probe.client.decode_plan_cache_stats(),
        stored_bytes: probe.proxy.used_bytes(),
        failed,
        spans,
    }
}

/// All `d + p` shards of `object`, as the arrival slots a decode starts
/// from.
fn stripe(rs: &ReedSolomon, ec: EcConfig, object: &Bytes) -> Vec<Option<Bytes>> {
    let data = split_object_shared(ec, object).expect("non-empty object");
    let parity = rs.encode_parity(&data).expect("a well-formed stripe");
    data.into_iter()
        .chain(parity.into_iter().map(Bytes::from))
        .map(Some)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{op_sequence, DEGRADED_GET, LARGE_MIXED};

    fn interleaved(spec: &NetSpec, seed: u64, per_client: usize) -> Vec<(usize, Op)> {
        let seqs: Vec<Vec<Op>> = (0..CLIENTS)
            .map(|c| op_sequence(spec, seed, c, per_client))
            .collect();
        (0..per_client)
            .flat_map(|i| (0..CLIENTS).map(move |c| (c, i)))
            .map(|(c, i)| (c, seqs[c][i]))
            .collect()
    }

    #[test]
    fn healthy_mixed_ops_roundtrip_and_reconcile() {
        let spec = NetSpec {
            object_bytes: 40_000,
            keys: 8,
            ..LARGE_MIXED
        };
        let ops = interleaved(&spec, 1, 40);
        let r = run(&spec, 1, &ops, 10);
        assert_eq!(r.failed, 0);
        assert_eq!(r.ops, 70);
        assert_eq!(r.gets + r.puts, r.ops);
        assert_eq!(r.reconstructs, 0);
        assert_eq!(r.totals[&(GET, GET)].count as usize, r.gets);
        assert_eq!(r.totals[&(PUT, PUT)].count as usize, r.puts);
        // Layer spans and glue partition the op spans exactly.
        for root in [GET, PUT] {
            let op = r.totals[&(root, root)];
            let layers = r.pipeline_us(root) * 1e3 * op.count as f64;
            assert!((layers + op.self_ns as f64 - op.total_ns as f64).abs() < 1.0);
        }
        assert!((0.0..1.0).contains(&r.glue_share()));
        // A (10+2) stripe of 40 kB objects stores 1.2× the user bytes.
        let user = (spec.keys * spec.object_bytes) as f64;
        assert!((r.stored_bytes as f64 / user - 1.2).abs() < 0.01);
        assert!(r.frames > 0 && r.wire_bytes > r.frames * ENVELOPE_BYTES);
    }

    #[test]
    fn degraded_gets_reconstruct_through_the_survivors() {
        let spec = NetSpec {
            object_bytes: 8_192,
            keys: 16,
            ..DEGRADED_GET
        };
        let ops = interleaved(&spec, 3, 60);
        let r = run(&spec, 3, &ops, 0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.puts, 0);
        // A GET dodges reconstruction only when both dead nodes held
        // parity (1 stripe in 15).
        assert!(r.reconstructs as f64 >= 0.5 * r.gets as f64);
        let (hits, misses) = r.plan_cache;
        assert!(hits + misses > 0 && hits > misses);
    }
}
