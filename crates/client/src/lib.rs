//! The InfiniCache client library (§3.1, Fig 3).
//!
//! The client library exposes GET/PUT to the application and owns three
//! jobs the paper assigns to it:
//!
//! 1. **Erasure coding** — objects are split into `d` data chunks plus `p`
//!    parity chunks on PUT and decoded from the first `d` arrivals on GET
//!    — the `d` data chunks alone while the stripe's nodes are healthy,
//!    parity as soon as the proxy has reason to ask for it
//!    (the computation-heavy EC work was deliberately moved out of the
//!    proxy and into the client);
//! 2. **Proxy selection** — a consistent-hash ring spreads objects over
//!    the deployed proxies;
//! 3. **Chunk placement** — a random non-repetitive vector of node ids
//!    (`IDλ`) inside the chosen proxy's pool.
//!
//! On a GET the library also performs *read repair*: if at most `p` chunks
//! were lost to function reclaims, the object decodes anyway and the lost
//! chunks are re-encoded and re-inserted (the paper's "Recovery" events in
//! Fig 14); with more than `p` losses it reports the object unrecoverable
//! and the application falls back to the backing store (a "RESET").
//!
//! Like the other protocol crates this is a pure state machine; see
//! [`ClientLib`].

use std::collections::HashMap;

use ic_common::msg::Msg;
use ic_common::ring::Ring;
use ic_common::{ChunkId, ClientId, EcConfig, LambdaId, ObjectKey, Payload, ProxyId};
use ic_ec::{join_object, split_object_shared, ReedSolomon};
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// What a finished GET looked like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GetReport {
    /// Whether decoding needed a parity chunk (a data chunk was slow or
    /// lost), i.e. real EC decode work happened.
    pub used_parity: bool,
    /// Number of chunks reported lost (0 on a clean hit).
    pub lost_chunks: usize,
    /// Bytes that went through the decoder (`d × chunk_len`).
    pub decoded_bytes: u64,
}

/// Actions the embedding transport executes for the client library.
#[derive(Clone, Debug)]
pub enum ClientAction {
    /// Send a control message to a proxy.
    ToProxy {
        /// Destination proxy.
        proxy: ProxyId,
        /// The message.
        msg: Msg,
    },
    /// Stream bulk data (an encoded chunk) to a proxy.
    DataToProxy {
        /// Destination proxy.
        proxy: ProxyId,
        /// The `PutChunk` message.
        msg: Msg,
    },
    /// A GET finished: hand the object to the application.
    Deliver {
        /// Object key.
        key: ObjectKey,
        /// The reassembled object.
        object: Payload,
        /// Decode/repair diagnostics (drives the Fig 14 counters).
        report: GetReport,
    },
    /// A GET failed: more than `p` chunks are gone; the application must
    /// RESET from the backing store.
    Unrecoverable {
        /// Object key.
        key: ObjectKey,
        /// Chunks that did arrive.
        available: usize,
        /// Data chunks needed.
        needed: usize,
    },
    /// The proxy does not know the object at all (cold miss).
    Miss {
        /// Object key.
        key: ObjectKey,
    },
    /// A PUT was fully acknowledged.
    PutComplete {
        /// Object key.
        key: ObjectKey,
    },
    /// A PUT was aborted by the proxy before completion (the object was
    /// evicted under capacity pressure or superseded by an overwrite);
    /// the write is NOT stored and the application must not assume it is.
    PutFailed {
        /// Object key.
        key: ObjectKey,
    },
}

/// Client-side counters for the experiment harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// GETs issued.
    pub gets: u64,
    /// PUTs issued.
    pub puts: u64,
    /// GETs delivered from cache.
    pub hits: u64,
    /// Cold misses (proxy had no metadata).
    pub misses: u64,
    /// GETs that decoded around ≤ p lost chunks (EC recoveries, Fig 14).
    pub recoveries: u64,
    /// Chunks re-inserted by read repair.
    pub repaired_chunks: u64,
    /// GETs lost to > p chunk losses (RESETs, Fig 14).
    pub unrecoverable: u64,
    /// Deliveries that needed parity decoding.
    pub parity_decodes: u64,
    /// PUTs aborted by the proxy (eviction/overwrite before completion).
    pub failed_puts: u64,
}

#[derive(Debug)]
struct GetState {
    proxy: ProxyId,
    object_size: u64,
    /// Proxy-assigned version of the object this GET is fetching (from
    /// `GetAccepted`); stamped onto read-repair chunks so the proxy can
    /// drop repairs of a version that was overwritten meanwhile.
    version: u64,
    total: u32,
    /// How many leading chunks the proxy asked for at admission (from
    /// `GetAccepted`): all of them on a degraded stripe, only the data
    /// chunks on a healthy one. Each of these is answered; the state
    /// closes once they all are. Later chunks arrive only if the proxy
    /// released its held parity requests — they count toward first-*d*
    /// but nothing waits for them, because a stray answer from an
    /// earlier GET of the key looks exactly the same.
    requested: usize,
    arrivals: Vec<Option<Payload>>,
    missing: Vec<bool>,
    arrived: usize,
    lost: usize,
    /// Delivered to the application (first-*d* reached); the state stays
    /// open until every requested chunk is accounted for, so that a miss
    /// report racing the delivery still triggers read repair.
    done: bool,
    /// The reassembled object, kept after delivery for late repairs.
    object: Option<Payload>,
    /// Chunk answers that arrived *before* `GetAccepted` (reordered
    /// transports); replayed once the stripe shape is known so the GET
    /// still terminates — the proxy answers each chunk exactly once.
    early_answers: Vec<(ChunkId, Option<Payload>)>,
}

impl GetState {
    /// Every chunk the proxy asked for has been answered.
    fn settled(&self) -> bool {
        (0..self.requested).all(|i| self.arrivals[i].is_some() || self.missing[i])
    }
}

#[derive(Debug)]
struct PutState {
    /// Kept so a PUT retry path could re-encode; also documents ownership
    /// of in-flight object bytes.
    #[allow(dead_code)]
    object: Payload,
    /// This PUT's client-assigned epoch; completion/failure notices from
    /// the proxy carry it back, so a stale notice for an already-replaced
    /// PUT of the same key cannot tear down the newer one's state.
    epoch: u64,
}

/// The client library state machine.
#[derive(Debug)]
pub struct ClientLib {
    /// This client's identity.
    pub id: ClientId,
    ec: EcConfig,
    rs: ReedSolomon,
    ring: Ring<ProxyId>,
    pools: HashMap<ProxyId, Vec<LambdaId>>,
    rng: SmallRng,
    gets: HashMap<ObjectKey, GetState>,
    puts: HashMap<ObjectKey, PutState>,
    /// Source of per-PUT epochs (0 is reserved for repair traffic).
    put_seq: u64,
    /// Last-known chunk placement per object (kept so read repair never
    /// re-places a chunk onto a node that already holds a sibling chunk —
    /// the paper's non-repetitive `IDλ` vector must stay non-repetitive
    /// across repairs too).
    placements: HashMap<ObjectKey, Vec<LambdaId>>,
    /// Model-checker teeth hook: when set, chunk answers that overtake
    /// `GetAccepted` are *dropped* instead of buffered — re-introducing
    /// the pre-accept answer-loss bug this library once had, so the
    /// checker can demonstrate it still finds the counterexample. Never
    /// set in production; see [`ClientLib::set_debug_drop_early_answers`].
    debug_drop_early_answers: bool,
    /// Counters.
    pub stats: ClientStats,
}

impl ClientLib {
    /// Creates a client over the deployment's proxies.
    ///
    /// `pools` lists every proxy and the node ids of its Lambda pool (the
    /// client needs them to generate placement vectors).
    pub fn new(
        id: ClientId,
        ec: EcConfig,
        pools: Vec<(ProxyId, Vec<LambdaId>)>,
        ring_vnodes: u32,
        seed: u64,
    ) -> Self {
        let mut ring = Ring::new(ring_vnodes);
        let mut pool_map = HashMap::new();
        for (proxy, pool) in pools {
            ring.insert(&format!("proxy-{}", proxy.0), proxy);
            pool_map.insert(proxy, pool);
        }
        ClientLib {
            id,
            ec,
            rs: ReedSolomon::from_config(ec),
            ring,
            pools: pool_map,
            rng: SmallRng::seed_from_u64(seed ^ 0x00c1_1e47),
            gets: HashMap::new(),
            puts: HashMap::new(),
            put_seq: 0,
            placements: HashMap::new(),
            debug_drop_early_answers: false,
            stats: ClientStats::default(),
        }
    }

    /// Arms (or disarms) the model checker's revert-detection hook: drop
    /// chunk answers that arrive before `GetAccepted` instead of
    /// buffering them, resurrecting a historical bug that stranded GETs
    /// forever. Test-only.
    pub fn set_debug_drop_early_answers(&mut self, on: bool) {
        self.debug_drop_early_answers = on;
    }

    /// The erasure-coding configuration in use.
    pub fn ec(&self) -> EcConfig {
        self.ec
    }

    /// Decode-plan cache counters of the embedded codec, as
    /// `(hits, misses)`. Steady-state degraded reads (the same nodes down
    /// across many GETs) should be nearly all hits — each hit is one
    /// skipped Gauss–Jordan inversion on the delivery path.
    pub fn decode_plan_cache_stats(&self) -> (u64, u64) {
        self.rs.plan_cache_stats()
    }

    /// The proxy a key routes to (consistent hashing).
    pub fn route(&self, key: &ObjectKey) -> ProxyId {
        *self
            .ring
            .route(key.as_str())
            .expect("deployment has at least one proxy")
    }

    /// Issues a PUT of `object` under `key`.
    ///
    /// With a real-bytes payload the object is split and Reed–Solomon
    /// encoded; with a synthetic payload only the sizes flow (trace-scale
    /// simulation). Chunks carry their destination node ids, drawn as a
    /// random non-repetitive vector over the proxy's pool.
    pub fn put(&mut self, key: ObjectKey, object: Payload) -> Vec<ClientAction> {
        self.stats.puts += 1;
        let proxy = self.route(&key);
        let object_size = object.len();
        let chunk_len = self.ec.chunk_len(object_size);
        let n = self.ec.shards();

        let shard_payloads: Vec<Payload> = match &object {
            Payload::Bytes(bytes) => {
                // Data shards are zero-copy slices of the object; only
                // the parity shards are fresh allocations.
                let data = split_object_shared(self.ec, bytes).expect("non-empty object");
                let parity = self.rs.encode_parity(&data).expect("stripe is well-formed");
                data.into_iter()
                    .map(Payload::Bytes)
                    .chain(parity.into_iter().map(Payload::from))
                    .collect()
            }
            Payload::Synthetic { .. } => (0..n).map(|_| Payload::synthetic(chunk_len)).collect(),
        };

        let placement = self.placement(proxy, n);
        self.placements.insert(key.clone(), placement.clone());
        self.put_seq += 1;
        let put_epoch = self.put_seq;
        self.puts.insert(
            key.clone(),
            PutState {
                object,
                epoch: put_epoch,
            },
        );
        shard_payloads
            .into_iter()
            .enumerate()
            .map(|(seq, payload)| ClientAction::DataToProxy {
                proxy,
                msg: Msg::PutChunk {
                    id: ChunkId::new(key.clone(), seq as u32),
                    lambda: placement[seq],
                    payload,
                    object_size,
                    total_chunks: n as u32,
                    repair: false,
                    put_epoch,
                },
            })
            .collect()
    }

    /// Issues a GET for `key`.
    ///
    /// A re-issued GET must not clobber the state of a previous GET of
    /// the same key that is still open: if the previous GET already
    /// delivered and is only accounting post-delivery chunk reports, its
    /// pending read-repairs are flushed first; if it is still in flight,
    /// the calls coalesce (its terminal action answers both) — a second
    /// `GetObject` on the wire would reset the arrival counters
    /// mid-stream and corrupt them.
    pub fn get(&mut self, key: ObjectKey) -> Vec<ClientAction> {
        self.stats.gets += 1;
        let mut actions = Vec::new();
        match self.gets.get(&key) {
            Some(st) if st.done => {
                actions.extend(self.finish_accounting(&key));
            }
            Some(_) => return actions, // coalesce with the in-flight GET
            None => {}
        }
        let proxy = self.route(&key);
        self.gets.insert(
            key.clone(),
            GetState {
                proxy,
                object_size: 0,
                version: 0,
                total: 0,
                requested: 0,
                arrivals: Vec::new(),
                missing: Vec::new(),
                arrived: 0,
                lost: 0,
                done: false,
                object: None,
                early_answers: Vec::new(),
            },
        );
        actions.push(ClientAction::ToProxy {
            proxy,
            msg: Msg::GetObject {
                key,
                data_chunks: self.ec.data as u32,
            },
        });
        actions
    }

    /// Handles a message from a proxy.
    pub fn on_proxy(&mut self, msg: Msg) -> Vec<ClientAction> {
        match msg {
            Msg::GetAccepted {
                key,
                object_size,
                version,
                requested,
                chunks,
            } => {
                let Some(st) = self.gets.get_mut(&key) else {
                    return Vec::new();
                };
                if !st.arrivals.is_empty() {
                    // Duplicate accept (e.g. raced its own retry): the
                    // accounting arrays are live, never reset them.
                    return Vec::new();
                }
                st.object_size = object_size;
                st.version = version;
                st.total = chunks.len() as u32;
                st.requested = match requested as usize {
                    r if (1..=chunks.len()).contains(&r) => r,
                    _ => chunks.len(),
                };
                st.arrivals = vec![None; chunks.len()];
                st.missing = vec![false; chunks.len()];
                // Answers that overtook this accept are applied now
                // (see `GetState::early_answers`); this can already
                // complete the stripe's accounting.
                let early = std::mem::take(&mut st.early_answers);
                let mut actions = Vec::new();
                for (id, payload) in early {
                    actions.extend(self.on_chunk(id, payload));
                }
                actions
            }
            Msg::GetMiss { key } => {
                self.gets.remove(&key);
                self.stats.misses += 1;
                vec![ClientAction::Miss { key }]
            }
            Msg::ChunkToClient { id, payload } => self.on_chunk(id, Some(payload)),
            Msg::ChunkMiss { id } => self.on_chunk(id, None),
            Msg::PutDone { key, put_epoch } => {
                match self.puts.get(&key) {
                    Some(p) if p.epoch == put_epoch => {
                        self.puts.remove(&key);
                        vec![ClientAction::PutComplete { key }]
                    }
                    // A notice for an older PUT of the key (already
                    // replaced by a newer one): stale, ignore.
                    _ => Vec::new(),
                }
            }
            Msg::PutFailed { key, put_epoch } => {
                match self.puts.get(&key) {
                    Some(p) if p.epoch == put_epoch => {
                        self.puts.remove(&key);
                        self.stats.failed_puts += 1;
                        vec![ClientAction::PutFailed { key }]
                    }
                    _ => Vec::new(), // stale failure for a replaced PUT
                }
            }
            other => {
                debug_assert!(false, "unexpected proxy message {}", other.kind());
                Vec::new()
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn placement(&mut self, proxy: ProxyId, n: usize) -> Vec<LambdaId> {
        let pool = &self.pools[&proxy];
        assert!(pool.len() >= n, "pool smaller than the EC stripe");
        sample(&mut self.rng, pool.len(), n)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    /// Repair placement: distinct nodes that also avoid every node still
    /// believed to hold a chunk of the object.
    fn placement_excluding(
        &mut self,
        proxy: ProxyId,
        n: usize,
        exclude: &[LambdaId],
    ) -> Vec<LambdaId> {
        let pool: Vec<LambdaId> = self.pools[&proxy]
            .iter()
            .copied()
            .filter(|l| !exclude.contains(l))
            .collect();
        if pool.len() < n {
            // Degenerate tiny pool: fall back to plain distinct sampling.
            return self.placement(proxy, n);
        }
        sample(&mut self.rng, pool.len(), n)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    fn on_chunk(&mut self, id: ChunkId, payload: Option<Payload>) -> Vec<ClientAction> {
        let key = id.key.clone();
        let Some(st) = self.gets.get_mut(&key) else {
            return Vec::new(); // fully accounted GET: ignored
        };
        if st.arrivals.is_empty() {
            // The answer overtook the GetAccepted (the sim's network
            // jitter can reorder across causality chains). Buffer it —
            // dropping it would strand the GET forever, since the proxy
            // answers each chunk exactly once.
            if !self.debug_drop_early_answers && st.early_answers.len() < 4096 {
                st.early_answers.push((id, payload));
            }
            return Vec::new();
        }
        let seq = id.seq as usize;
        if seq >= st.arrivals.len() {
            return Vec::new();
        }
        match payload {
            Some(p) => {
                if st.arrivals[seq].is_none() {
                    // Bytes in hand beat an earlier loss report (which
                    // may have been a stray from a previous GET).
                    if std::mem::take(&mut st.missing[seq]) {
                        st.lost -= 1;
                    }
                    st.arrivals[seq] = Some(p);
                    st.arrived += 1;
                }
            }
            None => {
                if !st.missing[seq] && st.arrivals[seq].is_none() {
                    st.missing[seq] = true;
                    st.lost += 1;
                }
            }
        }

        let d = self.ec.data;
        let n = st.total as usize;
        if st.done {
            // Post-delivery accounting: once every requested chunk is
            // either here or reported lost, repair the losses (a miss
            // racing the first-d delivery must not silently erode
            // redundancy).
            if st.settled() {
                return self.finish_accounting(&key);
            }
            return Vec::new();
        }
        if st.arrived >= d {
            return self.complete_get(&key);
        }
        if st.lost > n - d {
            // Fewer than d chunks can ever arrive.
            let available = st.arrived;
            self.gets.remove(&key);
            self.stats.unrecoverable += 1;
            return vec![ClientAction::Unrecoverable {
                key,
                available,
                needed: d,
            }];
        }
        Vec::new()
    }

    /// First-*d* arrivals are in: decode, deliver, and repair losses. The
    /// state stays registered until every requested chunk is accounted for.
    fn complete_get(&mut self, key: &ObjectKey) -> Vec<ClientAction> {
        let mut st = self.gets.remove(key).expect("caller checked");
        st.done = true;
        let d = self.ec.data;
        let n = st.total as usize;
        let chunk_len = self.ec.chunk_len(st.object_size);

        let data_arrived = st.arrivals.iter().take(d).filter(|a| a.is_some()).count();
        let used_parity = data_arrived < d;
        let real_bytes = st
            .arrivals
            .iter()
            .flatten()
            .next()
            .is_some_and(|p| !p.is_synthetic());

        // Reassemble the object. Arrived chunks stay as shared slices of
        // their transport frames; only rebuilt shards allocate, and the
        // join into the contiguous object is the decode path's one copy.
        let object = if real_bytes {
            let mut shards: Vec<Option<bytes::Bytes>> = st
                .arrivals
                .iter()
                .map(|a| a.as_ref().and_then(|p| p.as_bytes()).cloned())
                .collect();
            shards.resize(n, None);
            self.rs
                .reconstruct_data_bytes(&mut shards)
                .expect("first-d arrivals guarantee decodability");
            let data: Vec<bytes::Bytes> = shards
                .into_iter()
                .take(d)
                .map(|s| s.expect("data reconstructed"))
                .collect();
            Payload::Bytes(
                join_object(self.ec, &data, st.object_size).expect("shards cover object"),
            )
        } else {
            Payload::synthetic(st.object_size)
        };

        // Read repair: re-insert chunks reported lost (≤ p of them, or we
        // would not be here).
        let mut actions = Vec::new();
        if st.lost > 0 {
            self.stats.recoveries += 1;
        }
        {
            let st = &st;
            let proxy = st.proxy;
            let lost_seqs: Vec<u32> = (0..n)
                .filter(|&i| st.missing[i])
                .map(|i| i as u32)
                .collect();
            // Avoid nodes that (as far as we know) still hold sibling
            // chunks, so one future reclaim cannot take out two chunks.
            let known = self.placements.get(key).cloned().unwrap_or_default();
            let survivors: Vec<LambdaId> = known
                .iter()
                .enumerate()
                .filter(|(seq, _)| !st.missing.get(*seq).copied().unwrap_or(false))
                .map(|(_, &l)| l)
                .collect();
            let placement = self.placement_excluding(proxy, lost_seqs.len(), &survivors);
            if let Some(vec) = self.placements.get_mut(key) {
                for (slot, seq) in lost_seqs.iter().enumerate() {
                    if let Some(entry) = vec.get_mut(*seq as usize) {
                        *entry = placement[slot];
                    }
                }
            }
            for (slot, seq) in lost_seqs.iter().enumerate() {
                self.stats.repaired_chunks += 1;
                let repaired_payload = if real_bytes {
                    // Re-encode the lost shard from the object bytes.
                    self.reencode_shard(&object, *seq, st.object_size)
                } else {
                    Payload::synthetic(chunk_len)
                };
                actions.push(ClientAction::DataToProxy {
                    proxy,
                    msg: Msg::PutChunk {
                        id: ChunkId::new(key.clone(), *seq),
                        lambda: placement[slot],
                        payload: repaired_payload,
                        object_size: st.object_size,
                        total_chunks: n as u32,
                        repair: true,
                        put_epoch: st.version,
                    },
                });
            }
        }

        self.stats.hits += 1;
        if used_parity {
            self.stats.parity_decodes += 1;
        }
        actions.push(ClientAction::Deliver {
            key: key.clone(),
            object: object.clone(),
            report: GetReport {
                used_parity,
                lost_chunks: st.lost,
                decoded_bytes: chunk_len * d as u64,
            },
        });
        // Re-register the state for post-delivery accounting unless every
        // requested chunk is already accounted for.
        st.object = Some(object);
        if !st.settled() {
            self.gets.insert(key.clone(), st);
        }
        actions
    }

    /// Every chunk of a delivered GET is now accounted for: repair any
    /// losses discovered after delivery.
    fn finish_accounting(&mut self, key: &ObjectKey) -> Vec<ClientAction> {
        let st = self.gets.remove(key).expect("caller checked");
        let n = st.total as usize;
        let chunk_len = self.ec.chunk_len(st.object_size);
        let lost_seqs: Vec<u32> = (0..n)
            .filter(|&i| st.missing[i] && st.arrivals[i].is_none())
            .map(|i| i as u32)
            .collect();
        if lost_seqs.is_empty() {
            return Vec::new();
        }
        let object = st.object.clone().unwrap_or(Payload::Synthetic {
            len: st.object_size,
        });
        let real_bytes = !object.is_synthetic();
        let proxy = st.proxy;
        let known = self.placements.get(key).cloned().unwrap_or_default();
        let survivors: Vec<LambdaId> = known
            .iter()
            .enumerate()
            .filter(|(seq, _)| !st.missing.get(*seq).copied().unwrap_or(false))
            .map(|(_, &l)| l)
            .collect();
        let placement = self.placement_excluding(proxy, lost_seqs.len(), &survivors);
        if let Some(vec) = self.placements.get_mut(key) {
            for (slot, seq) in lost_seqs.iter().enumerate() {
                if let Some(entry) = vec.get_mut(*seq as usize) {
                    *entry = placement[slot];
                }
            }
        }
        let mut actions = Vec::new();
        for (slot, seq) in lost_seqs.iter().enumerate() {
            self.stats.repaired_chunks += 1;
            let payload = if real_bytes {
                self.reencode_shard(&object, *seq, st.object_size)
            } else {
                Payload::synthetic(chunk_len)
            };
            actions.push(ClientAction::DataToProxy {
                proxy,
                msg: Msg::PutChunk {
                    id: ChunkId::new(key.clone(), *seq),
                    lambda: placement[slot],
                    payload,
                    object_size: st.object_size,
                    total_chunks: n as u32,
                    repair: true,
                    put_epoch: st.version,
                },
            });
        }
        actions
    }

    /// Number of GETs whose state is still open (auditing). Post-delivery
    /// accounting states count too: they must eventually close once every
    /// chunk is answered.
    pub fn open_gets(&self) -> usize {
        self.gets.len()
    }

    /// Number of PUTs awaiting a `PutDone`/`PutFailed` (auditing).
    pub fn open_puts(&self) -> usize {
        self.puts.len()
    }

    /// Keys of open requests, for audit diagnostics.
    pub fn open_request_keys(&self) -> Vec<ObjectKey> {
        self.gets.keys().chain(self.puts.keys()).cloned().collect()
    }

    /// Feeds the library's protocol state into a state hash (model
    /// checking). Maps iterate in sorted order; the stats counters are
    /// excluded. The RNG *is* included — as a digest of its next draw —
    /// because placement vectors come out of it, so two states with
    /// different RNG positions can diverge on the very next PUT.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use rand::RngCore;
        use std::hash::Hash;
        self.id.hash(h);
        self.rng.clone().next_u64().hash(h);
        let mut gets: Vec<_> = self.gets.iter().collect();
        gets.sort_by_key(|(k, _)| (*k).clone());
        for (key, st) in gets {
            key.hash(h);
            format!("{st:?}").hash(h);
        }
        let mut puts: Vec<_> = self.puts.iter().collect();
        puts.sort_by_key(|(k, _)| (*k).clone());
        for (key, st) in puts {
            key.hash(h);
            format!("{st:?}").hash(h);
        }
        self.put_seq.hash(h);
        let mut placements: Vec<_> = self.placements.iter().collect();
        placements.sort_by_key(|(k, _)| (*k).clone());
        placements.hash(h);
    }

    /// Checks the library's structural invariants, returning one line per
    /// violation (empty when healthy). Exercised continuously by the
    /// chaos harness: the `arrived`/`lost` counters must agree with the
    /// arrival arrays, never overlap, and never exceed the stripe.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (key, st) in &self.gets {
            if st.arrivals.is_empty() {
                continue; // not yet accepted
            }
            let n = st.total as usize;
            if st.arrivals.len() != n || st.missing.len() != n {
                violations.push(format!(
                    "{}: GET of {key} tracks {} arrivals / {} misses for a {n}-chunk stripe",
                    self.id,
                    st.arrivals.len(),
                    st.missing.len()
                ));
                continue;
            }
            let arrived = st.arrivals.iter().filter(|a| a.is_some()).count();
            let lost = st.missing.iter().filter(|&&m| m).count();
            if arrived != st.arrived || lost != st.lost {
                violations.push(format!(
                    "{}: GET of {key} counters corrupt ({}/{arrived} arrived, {}/{lost} lost)",
                    self.id, st.arrived, st.lost
                ));
            }
            let overlap = (0..n)
                .filter(|&i| st.missing[i] && st.arrivals[i].is_some())
                .count();
            if overlap != 0 {
                violations.push(format!(
                    "{}: GET of {key} has {overlap} chunks both arrived and missing",
                    self.id
                ));
            }
            if st.arrived + st.lost > n {
                violations.push(format!(
                    "{}: GET of {key} accounts {} chunks of a {n}-chunk stripe",
                    self.id,
                    st.arrived + st.lost
                ));
            }
            if !(1..=n).contains(&st.requested) {
                violations.push(format!(
                    "{}: GET of {key} expects {} answers from a {n}-chunk stripe",
                    self.id, st.requested
                ));
            }
        }
        violations
    }

    fn reencode_shard(&self, object: &Payload, seq: u32, object_size: u64) -> Payload {
        let Payload::Bytes(bytes) = object else {
            return Payload::synthetic(self.ec.chunk_len(object_size));
        };
        let data = split_object_shared(self.ec, bytes).expect("non-empty");
        let seq = seq as usize;
        if seq < self.ec.data {
            // A data shard: a zero-copy slice of the delivered object.
            Payload::Bytes(data.into_iter().nth(seq).expect("seq < d"))
        } else {
            let parity = self.rs.encode_parity(&data).expect("well-formed stripe");
            Payload::from(
                parity
                    .into_iter()
                    .nth(seq - self.ec.data)
                    .expect("seq < d + p"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(proxies: u16, pool: u32, ec: EcConfig) -> ClientLib {
        let pools: Vec<(ProxyId, Vec<LambdaId>)> = (0..proxies)
            .map(|p| {
                let base = p as u32 * pool;
                (ProxyId(p), (base..base + pool).map(LambdaId).collect())
            })
            .collect();
        ClientLib::new(ClientId(0), ec, pools, 64, 42)
    }

    fn sample_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 37 + 11) % 251) as u8).collect()
    }

    #[test]
    fn put_emits_one_chunk_per_shard_with_distinct_placement() {
        let mut c = client(1, 20, EcConfig::new(10, 2).unwrap());
        let acts = c.put(ObjectKey::new("obj"), Payload::bytes(sample_bytes(1000)));
        assert_eq!(acts.len(), 12);
        let mut lambdas = Vec::new();
        for a in &acts {
            let ClientAction::DataToProxy {
                msg: Msg::PutChunk {
                    lambda, payload, ..
                },
                ..
            } = a
            else {
                panic!("expected PutChunk, got {a:?}");
            };
            lambdas.push(*lambda);
            assert_eq!(payload.len(), 100);
        }
        lambdas.sort();
        lambdas.dedup();
        assert_eq!(lambdas.len(), 12, "placement vector must be non-repetitive");
    }

    #[test]
    fn get_roundtrip_decodes_real_bytes() {
        let ec = EcConfig::new(4, 2).unwrap();
        let mut c = client(1, 10, ec);
        let data = sample_bytes(999);
        let put_acts = c.put(ObjectKey::new("k"), Payload::bytes(data.clone()));

        // Extract the encoded shards the client produced.
        let mut shards: Vec<(ChunkId, Payload)> = put_acts
            .iter()
            .filter_map(|a| match a {
                ClientAction::DataToProxy {
                    msg: Msg::PutChunk { id, payload, .. },
                    ..
                } => Some((id.clone(), payload.clone())),
                _ => None,
            })
            .collect();
        shards.sort_by_key(|(id, _)| id.seq);

        // Simulate a GET: accepted, then first-4 chunks arrive (one parity).
        c.get(ObjectKey::new("k"));
        let chunk_ids: Vec<ChunkId> = shards.iter().map(|(id, _)| id.clone()).collect();
        c.on_proxy(Msg::GetAccepted {
            key: ObjectKey::new("k"),
            object_size: 999,
            version: 1,
            requested: 6,
            chunks: chunk_ids,
        });
        // Deliver shards 0,2,3 and parity shard 4 (shard 1 is "slow").
        let mut delivered = Vec::new();
        for &i in &[0usize, 2, 3, 4] {
            let (id, p) = shards[i].clone();
            delivered = c.on_proxy(Msg::ChunkToClient { id, payload: p });
        }
        let ClientAction::Deliver { object, report, .. } = &delivered[0] else {
            panic!("expected delivery, got {delivered:?}");
        };
        assert!(report.used_parity);
        assert_eq!(report.lost_chunks, 0);
        assert_eq!(object.as_bytes().unwrap().as_ref(), &data[..]);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.parity_decodes, 1);
        // The decode consulted the plan cache: first sight of this
        // erasure pattern, so exactly one miss and no hits yet.
        assert_eq!(c.decode_plan_cache_stats(), (0, 1));
    }

    #[test]
    fn first_d_data_arrivals_skip_decoding() {
        let ec = EcConfig::new(4, 1).unwrap();
        let mut c = client(1, 10, ec);
        let data = sample_bytes(400);
        let put_acts = c.put(ObjectKey::new("k"), Payload::bytes(data.clone()));
        let shards: Vec<(ChunkId, Payload)> = put_acts
            .iter()
            .filter_map(|a| match a {
                ClientAction::DataToProxy {
                    msg: Msg::PutChunk { id, payload, .. },
                    ..
                } => Some((id.clone(), payload.clone())),
                _ => None,
            })
            .collect();
        c.get(ObjectKey::new("k"));
        c.on_proxy(Msg::GetAccepted {
            key: ObjectKey::new("k"),
            object_size: 400,
            version: 1,
            requested: 4,
            chunks: shards.iter().map(|(id, _)| id.clone()).collect(),
        });
        let mut out = Vec::new();
        for (id, p) in shards.iter().take(4).cloned() {
            out = c.on_proxy(Msg::ChunkToClient { id, payload: p });
        }
        let ClientAction::Deliver { report, object, .. } = &out[0] else {
            panic!("expected delivery");
        };
        assert!(!report.used_parity);
        assert_eq!(object.as_bytes().unwrap().as_ref(), &data[..]);
    }

    /// A chunk answer that overtakes `GetAccepted` (the sim's network
    /// jitter can reorder across causality chains) must not be dropped:
    /// the proxy answers each chunk exactly once, so a dropped answer
    /// strands the GET forever (found by the chaos matrix after the
    /// stale-repair guard changed event timing). It is buffered and
    /// replayed on accept.
    #[test]
    fn answers_before_get_accepted_are_buffered_not_dropped() {
        let ec = EcConfig::new(4, 2).unwrap();
        let mut c = client(1, 10, ec);
        let key = ObjectKey::new("k");
        c.get(key.clone());
        let chunks: Vec<ChunkId> = (0..6).map(|s| ChunkId::new(key.clone(), s)).collect();
        // Chunk 0's data and chunk 5's miss answer before the accept.
        assert!(c
            .on_proxy(Msg::ChunkToClient {
                id: chunks[0].clone(),
                payload: Payload::synthetic(1000),
            })
            .is_empty());
        assert!(c
            .on_proxy(Msg::ChunkMiss {
                id: chunks[5].clone(),
            })
            .is_empty());
        assert!(c
            .on_proxy(Msg::GetAccepted {
                key: key.clone(),
                object_size: 4000,
                version: 7,
                requested: chunks.len() as u32,
                chunks: chunks.clone(),
            })
            .is_empty());
        // Three more data chunks complete first-d (the buffered chunk 0
        // counts); the buffered miss is repaired at version 7.
        let mut out = Vec::new();
        for id in &chunks[1..4] {
            out.extend(c.on_proxy(Msg::ChunkToClient {
                id: id.clone(),
                payload: Payload::synthetic(1000),
            }));
        }
        assert!(out
            .iter()
            .any(|a| matches!(a, ClientAction::Deliver { report, .. } if report.lost_chunks == 1)));
        let repair = out
            .iter()
            .find_map(|a| match a {
                ClientAction::DataToProxy {
                    msg:
                        Msg::PutChunk {
                            id,
                            repair: true,
                            put_epoch,
                            ..
                        },
                    ..
                } => Some((id.clone(), *put_epoch)),
                _ => None,
            })
            .expect("the early-missed chunk is repaired");
        assert_eq!(repair, (chunks[5].clone(), 7));
        // The last outstanding chunk answers; the GET fully closes.
        c.on_proxy(Msg::ChunkToClient {
            id: chunks[4].clone(),
            payload: Payload::synthetic(1000),
        });
        assert_eq!(c.open_gets(), 0, "the GET must fully terminate");
    }

    #[test]
    fn lost_chunks_within_tolerance_trigger_repair() {
        let ec = EcConfig::new(4, 2).unwrap();
        let mut c = client(1, 10, ec);
        let key = ObjectKey::new("k");
        c.get(key.clone());
        let chunks: Vec<ChunkId> = (0..6).map(|s| ChunkId::new(key.clone(), s)).collect();
        c.on_proxy(Msg::GetAccepted {
            key: key.clone(),
            version: 1,
            object_size: 4000,
            requested: chunks.len() as u32,
            chunks: chunks.clone(),
        });
        // Two misses, then four synthetic arrivals.
        c.on_proxy(Msg::ChunkMiss {
            id: chunks[0].clone(),
        });
        c.on_proxy(Msg::ChunkMiss {
            id: chunks[1].clone(),
        });
        let mut out = Vec::new();
        for id in &chunks[2..6] {
            out = c.on_proxy(Msg::ChunkToClient {
                id: id.clone(),
                payload: Payload::synthetic(1000),
            });
        }
        // Two repair PUTs + the delivery.
        let repairs = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ClientAction::DataToProxy {
                        msg: Msg::PutChunk { repair: true, .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(repairs, 2);
        assert!(
            matches!(out.last(), Some(ClientAction::Deliver { report, .. }) if report.lost_chunks == 2)
        );
        assert_eq!(c.stats.recoveries, 1);
        assert_eq!(c.stats.repaired_chunks, 2);
    }

    #[test]
    fn too_many_losses_are_unrecoverable() {
        let ec = EcConfig::new(4, 1).unwrap();
        let mut c = client(1, 10, ec);
        let key = ObjectKey::new("k");
        c.get(key.clone());
        let chunks: Vec<ChunkId> = (0..5).map(|s| ChunkId::new(key.clone(), s)).collect();
        c.on_proxy(Msg::GetAccepted {
            key: key.clone(),
            version: 1,
            object_size: 100,
            requested: chunks.len() as u32,
            chunks: chunks.clone(),
        });
        c.on_proxy(Msg::ChunkMiss {
            id: chunks[0].clone(),
        });
        let out = c.on_proxy(Msg::ChunkMiss {
            id: chunks[1].clone(),
        });
        assert!(matches!(
            &out[0],
            ClientAction::Unrecoverable {
                needed: 4,
                available: 0,
                ..
            }
        ));
        assert_eq!(c.stats.unrecoverable, 1);
        // Late chunks for the failed GET are ignored.
        assert!(c
            .on_proxy(Msg::ChunkToClient {
                id: chunks[2].clone(),
                payload: Payload::synthetic(25)
            })
            .is_empty());
    }

    #[test]
    fn cold_miss_reports_miss() {
        let mut c = client(2, 15, EcConfig::default());
        let key = ObjectKey::new("nope");
        c.get(key.clone());
        let out = c.on_proxy(Msg::GetMiss { key: key.clone() });
        assert!(matches!(&out[0], ClientAction::Miss { .. }));
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let c = client(4, 15, EcConfig::default());
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let k = ObjectKey::new(format!("key-{i}"));
            let p1 = c.route(&k);
            let p2 = c.route(&k);
            assert_eq!(p1, p2);
            seen.insert(p1);
        }
        assert_eq!(seen.len(), 4, "all proxies should receive some keys");
    }

    #[test]
    fn put_done_completes_put() {
        let mut c = client(1, 15, EcConfig::default());
        let key = ObjectKey::new("k");
        c.put(key.clone(), Payload::synthetic(1_000_000));
        let out = c.on_proxy(Msg::PutDone {
            key: key.clone(),
            put_epoch: 1,
        });
        assert!(matches!(&out[0], ClientAction::PutComplete { .. }));
        assert_eq!(c.open_puts(), 0);
    }

    #[test]
    fn put_failed_clears_state_and_reports() {
        let mut c = client(1, 15, EcConfig::default());
        let key = ObjectKey::new("k");
        c.put(key.clone(), Payload::synthetic(1_000));
        let out = c.on_proxy(Msg::PutFailed {
            key: key.clone(),
            put_epoch: 1,
        });
        assert!(matches!(&out[0], ClientAction::PutFailed { .. }));
        assert_eq!(c.open_puts(), 0);
        assert_eq!(c.stats.failed_puts, 1);
    }

    #[test]
    fn stale_put_notices_are_ignored() {
        // A notice for a PUT that was already replaced by a newer PUT of
        // the same key must not tear down the newer PUT's state.
        let mut c = client(1, 15, EcConfig::default());
        let key = ObjectKey::new("k");
        c.put(key.clone(), Payload::synthetic(1_000)); // epoch 1
        c.put(key.clone(), Payload::synthetic(2_000)); // epoch 2 replaces it
        assert!(c
            .on_proxy(Msg::PutFailed {
                key: key.clone(),
                put_epoch: 1
            })
            .is_empty());
        assert!(c
            .on_proxy(Msg::PutDone {
                key: key.clone(),
                put_epoch: 1
            })
            .is_empty());
        assert_eq!(c.open_puts(), 1, "the newer PUT must stay open");
        let out = c.on_proxy(Msg::PutDone {
            key: key.clone(),
            put_epoch: 2,
        });
        assert!(matches!(&out[0], ClientAction::PutComplete { .. }));
        assert_eq!(c.open_puts(), 0);
    }

    #[test]
    fn reissued_get_flushes_post_delivery_repairs() {
        // Regression: a GET re-issued while the previous GET of the key
        // was still in post-delivery accounting used to overwrite that
        // state, silently dropping its pending read-repairs.
        let ec = EcConfig::new(4, 2).unwrap();
        let mut c = client(1, 10, ec);
        let key = ObjectKey::new("k");
        c.get(key.clone());
        let chunks: Vec<ChunkId> = (0..6).map(|s| ChunkId::new(key.clone(), s)).collect();
        c.on_proxy(Msg::GetAccepted {
            key: key.clone(),
            version: 1,
            object_size: 4000,
            requested: chunks.len() as u32,
            chunks: chunks.clone(),
        });
        // First-d delivery from chunks 1..=4; chunks 0 and 5 unaccounted.
        let mut out = Vec::new();
        for id in &chunks[1..5] {
            out = c.on_proxy(Msg::ChunkToClient {
                id: id.clone(),
                payload: Payload::synthetic(1000),
            });
        }
        assert!(matches!(out.last(), Some(ClientAction::Deliver { .. })));
        assert_eq!(c.open_gets(), 1, "state stays open for accounting");
        // Chunk 0 is reported lost after delivery; chunk 5 never answers.
        assert!(c
            .on_proxy(Msg::ChunkMiss {
                id: chunks[0].clone()
            })
            .is_empty());
        // The application GETs the key again: the pending repair of chunk
        // 0 must be flushed, not dropped, and a fresh GetObject issued.
        let acts = c.get(key.clone());
        let repairs: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ClientAction::DataToProxy {
                    msg:
                        Msg::PutChunk {
                            id, repair: true, ..
                        },
                    ..
                } => Some(id.seq),
                _ => None,
            })
            .collect();
        assert_eq!(repairs, vec![0], "the discovered loss must be repaired");
        assert!(matches!(
            acts.last(),
            Some(ClientAction::ToProxy {
                msg: Msg::GetObject { .. },
                ..
            })
        ));
        assert_eq!(c.stats.repaired_chunks, 1);
        // The fresh state is clean: a full first-d delivery works.
        c.on_proxy(Msg::GetAccepted {
            key: key.clone(),
            version: 1,
            object_size: 4000,
            requested: chunks.len() as u32,
            chunks: chunks.clone(),
        });
        for id in &chunks[0..4] {
            out = c.on_proxy(Msg::ChunkToClient {
                id: id.clone(),
                payload: Payload::synthetic(1000),
            });
        }
        let Some(ClientAction::Deliver { report, .. }) = out.last() else {
            panic!("fresh GET must deliver, got {out:?}");
        };
        assert_eq!(report.lost_chunks, 0, "counters must not leak across GETs");
        assert!(
            c.check_invariants().is_empty(),
            "{:?}",
            c.check_invariants()
        );
    }

    #[test]
    fn reissued_get_in_flight_coalesces() {
        let ec = EcConfig::new(4, 1).unwrap();
        let mut c = client(1, 10, ec);
        let key = ObjectKey::new("k");
        assert_eq!(c.get(key.clone()).len(), 1);
        assert!(c.get(key.clone()).is_empty(), "second GET must coalesce");
        assert_eq!(c.open_gets(), 1);
        let chunks: Vec<ChunkId> = (0..5).map(|s| ChunkId::new(key.clone(), s)).collect();
        c.on_proxy(Msg::GetAccepted {
            key: key.clone(),
            version: 1,
            object_size: 400,
            requested: chunks.len() as u32,
            chunks: chunks.clone(),
        });
        let mut out = Vec::new();
        for id in &chunks[0..4] {
            out = c.on_proxy(Msg::ChunkToClient {
                id: id.clone(),
                payload: Payload::synthetic(100),
            });
        }
        assert!(matches!(out.last(), Some(ClientAction::Deliver { .. })));
        assert!(
            c.check_invariants().is_empty(),
            "{:?}",
            c.check_invariants()
        );
    }

    #[test]
    fn synthetic_mode_keeps_sizes_consistent() {
        let ec = EcConfig::new(10, 2).unwrap();
        let mut c = client(1, 20, ec);
        let acts = c.put(ObjectKey::new("big"), Payload::synthetic(100 * 1024 * 1024));
        for a in &acts {
            if let ClientAction::DataToProxy {
                msg: Msg::PutChunk { payload, .. },
                ..
            } = a
            {
                assert_eq!(payload.len(), ec.chunk_len(100 * 1024 * 1024));
                assert!(payload.is_synthetic());
            }
        }
    }

    // ------------------------------------------------------------------
    // Data-first reads: the proxy asked for the d data chunks only
    // ------------------------------------------------------------------

    /// A 4+2 client with a GET of `"k"` accepted at `requested` chunks.
    fn accepted(requested: u32) -> (ClientLib, Vec<ChunkId>) {
        let mut c = client(1, 10, EcConfig::new(4, 2).unwrap());
        let key = ObjectKey::new("k");
        let acts = c.get(key.clone());
        assert!(matches!(
            &acts[0],
            ClientAction::ToProxy {
                msg: Msg::GetObject { data_chunks: 4, .. },
                ..
            }
        ));
        let chunks: Vec<ChunkId> = (0..6).map(|s| ChunkId::new(key.clone(), s)).collect();
        let acts = c.on_proxy(Msg::GetAccepted {
            key,
            object_size: 4000,
            version: 3,
            requested,
            chunks: chunks.clone(),
        });
        assert!(acts.is_empty());
        (c, chunks)
    }

    fn arrive(c: &mut ClientLib, id: &ChunkId) -> Vec<ClientAction> {
        c.on_proxy(Msg::ChunkToClient {
            id: id.clone(),
            payload: Payload::synthetic(1000),
        })
    }

    fn lose(c: &mut ClientLib, id: &ChunkId) -> Vec<ClientAction> {
        c.on_proxy(Msg::ChunkMiss { id: id.clone() })
    }

    fn delivery(acts: &[ClientAction]) -> Option<GetReport> {
        acts.iter().find_map(|a| match a {
            ClientAction::Deliver { report, .. } => Some(*report),
            _ => None,
        })
    }

    fn repairs(acts: &[ClientAction]) -> Vec<(u32, u64)> {
        acts.iter()
            .filter_map(|a| match a {
                ClientAction::DataToProxy {
                    msg:
                        Msg::PutChunk {
                            id,
                            repair: true,
                            put_epoch,
                            ..
                        },
                    ..
                } => Some((id.seq, *put_epoch)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_data_first_get_closes_at_delivery() {
        let (mut c, chunks) = accepted(4);
        for id in &chunks[..3] {
            assert!(arrive(&mut c, id).is_empty());
        }
        let acts = arrive(&mut c, &chunks[3]);
        let report = delivery(&acts).expect("the data chunks are the object");
        assert!(!report.used_parity);
        assert_eq!(report.lost_chunks, 0);
        assert_eq!(c.open_gets(), 0, "nothing else was asked for");
        assert_eq!(c.stats.parity_decodes, 0);
    }

    /// A data chunk is reported lost, the proxy releases the parity
    /// requests, and a parity chunk completes first-d — whichever of the
    /// two the client hears of first.
    #[test]
    fn released_parity_stands_in_for_a_lost_data_chunk() {
        // The miss, then the parity chunk.
        let (mut c, chunks) = accepted(4);
        for i in [0, 2, 3] {
            arrive(&mut c, &chunks[i]);
        }
        assert!(lose(&mut c, &chunks[1]).is_empty());
        let acts = arrive(&mut c, &chunks[4]);
        let report = delivery(&acts).expect("parity completes first-d");
        assert!(report.used_parity);
        assert_eq!(report.lost_chunks, 1);
        assert_eq!(repairs(&acts), [(1, 3)]);
        assert_eq!(c.open_gets(), 0, "every requested chunk is accounted for");
        // The other released parity chunk finds nothing to join.
        assert!(arrive(&mut c, &chunks[5]).is_empty());

        // The parity chunk, then the miss.
        let (mut c, chunks) = accepted(4);
        for i in [0, 2, 3] {
            arrive(&mut c, &chunks[i]);
        }
        let acts = arrive(&mut c, &chunks[5]);
        let report = delivery(&acts).expect("parity completes first-d");
        assert!(report.used_parity);
        assert_eq!(report.lost_chunks, 0);
        assert!(repairs(&acts).is_empty());
        assert_eq!(c.open_gets(), 1, "data chunk 1 is still unanswered");
        let acts = lose(&mut c, &chunks[1]);
        assert_eq!(repairs(&acts), [(1, 3)], "the late miss is repaired");
        assert_eq!(c.open_gets(), 0);
        assert_eq!(c.stats.repaired_chunks, 1);

        // Both overtake the accept.
        let mut c = client(1, 10, EcConfig::new(4, 2).unwrap());
        let key = ObjectKey::new("k");
        c.get(key.clone());
        let chunks: Vec<ChunkId> = (0..6).map(|s| ChunkId::new(key.clone(), s)).collect();
        assert!(arrive(&mut c, &chunks[4]).is_empty());
        assert!(lose(&mut c, &chunks[1]).is_empty());
        c.on_proxy(Msg::GetAccepted {
            key,
            object_size: 4000,
            version: 3,
            requested: 4,
            chunks: chunks.clone(),
        });
        arrive(&mut c, &chunks[0]);
        arrive(&mut c, &chunks[2]);
        let acts = arrive(&mut c, &chunks[3]);
        let report = delivery(&acts).expect("the buffered parity chunk counts");
        assert!(report.used_parity);
        assert_eq!(repairs(&acts), [(1, 3)]);
        assert_eq!(c.open_gets(), 0);
        assert_eq!(c.check_invariants(), Vec::<String>::new());
    }

    /// A parity answer nobody asked for (a straggler of an earlier GET of
    /// the key) is welcome as bytes but must not keep the state waiting
    /// for the rest of the stripe, and a stray loss report gives way to
    /// the chunk itself.
    #[test]
    fn stray_answers_neither_hold_a_data_first_get_open_nor_lose_a_chunk() {
        let (mut c, chunks) = accepted(4);
        assert!(arrive(&mut c, &chunks[5]).is_empty());
        assert!(lose(&mut c, &chunks[2]).is_empty());
        arrive(&mut c, &chunks[0]);
        arrive(&mut c, &chunks[1]);
        // First-d is reached through the stray parity chunk; the data
        // chunk "lost" by the stray report is repaired...
        let acts = arrive(&mut c, &chunks[3]);
        assert!(delivery(&acts).expect("first-d").used_parity);
        assert_eq!(repairs(&acts), [(2, 3)]);
        assert_eq!(c.open_gets(), 0);

        // ...unless its bytes arrive first: then nothing was lost.
        let (mut c, chunks) = accepted(4);
        lose(&mut c, &chunks[2]);
        for id in &chunks[..3] {
            arrive(&mut c, id);
        }
        let acts = arrive(&mut c, &chunks[3]);
        let report = delivery(&acts).expect("all four data chunks are here");
        assert!(!report.used_parity);
        assert_eq!(report.lost_chunks, 0);
        assert!(repairs(&acts).is_empty());
        assert_eq!(c.open_gets(), 0);
        assert_eq!(c.check_invariants(), Vec::<String>::new());
    }
}
