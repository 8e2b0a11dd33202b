//! The proxy state machine: pool management, chunk mapping, CLOCK-LRU
//! eviction, client/lambda streaming, and backup coordination.

use std::collections::HashMap;
use std::ops::Range;

use ic_common::clock::ClockQueue;
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{ChunkId, ClientId, LambdaId, ObjectKey, ProxyId, RelayId};

use crate::conn::{ConnEffect, LambdaConn, Liveness};

/// Proxy configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProxyConfig {
    /// This proxy's identity.
    pub id: ProxyId,
    /// Total cache capacity of the managed pool, in bytes (sum of the
    /// member functions' usable memory).
    pub capacity_bytes: u64,
}

/// What the embedding transport must do after a proxy step.
#[derive(Clone, Debug)]
pub enum ProxyAction {
    /// Invoke a (sleeping) node.
    Invoke {
        /// Node to invoke.
        lambda: LambdaId,
        /// Invocation parameters.
        payload: InvokePayload,
    },
    /// Send a control message to a node's live instance.
    ToLambda {
        /// Destination node.
        lambda: LambdaId,
        /// The message.
        msg: Msg,
    },
    /// Stream bulk data to a node (subject to the network model).
    DataToLambda {
        /// Destination node.
        lambda: LambdaId,
        /// The message (carries the payload).
        msg: Msg,
    },
    /// Send a control message to a client.
    ToClient {
        /// Destination client.
        client: ClientId,
        /// The message.
        msg: Msg,
    },
    /// Stream bulk data to a client (first-*d* chunk streaming).
    DataToClient {
        /// Destination client.
        client: ClientId,
        /// The message (carries the payload).
        msg: Msg,
    },
    /// Start a relay process for a backup round (Fig 10 step 2).
    SpawnRelay {
        /// Relay id (proxy-unique).
        relay: RelayId,
        /// The node being backed up.
        source: LambdaId,
    },
}

/// Counters the experiments read off the proxy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Objects evicted by the CLOCK-LRU.
    pub evictions: u64,
    /// Overwrite PUTs (client-driven invalidation).
    pub overwrites: u64,
    /// GETs answered with `GetMiss` (object unknown).
    pub get_misses: u64,
    /// GETs accepted (object known, chunks requested).
    pub get_hits: u64,
    /// Backup rounds coordinated.
    pub backup_rounds: u64,
    /// Messages that failed delivery (connection resets / dead instances).
    pub delivery_failures: u64,
    /// Read-repair chunks dropped because their object version was
    /// overwritten or evicted since the repairing client fetched it.
    pub stale_repairs: u64,
    /// Vectored socket writes the hosting substrate issued on this
    /// proxy's behalf (always zero under the sim substrate, which moves
    /// messages in memory; the net substrate's event loop fills it in).
    pub vectored_writes: u64,
    /// Frames those vectored writes carried; `frames_written /
    /// vectored_writes` is the writer-batch coalescing factor the
    /// substrate achieved.
    pub frames_written: u64,
    /// Chunk answers (data or miss) a node produced for a *superseded*
    /// query: the chunk was re-placed, overwritten, or queried ahead of
    /// its own re-placing `ChunkPut` since the `ChunkGet` was
    /// dispatched. Each is dropped — never credited to the waiters of
    /// the current version — and the query re-issued to the chunk's
    /// current home.
    pub stale_chunk_answers: u64,
    /// GETs admitted data-first: every home of the stripe was `Active`,
    /// so only the data chunks were asked for and the parity requests
    /// held back.
    pub data_first_gets: u64,
    /// GETs that asked for parity at admission: a home of the stripe was
    /// unmapped or not `Active`.
    pub parity_releases_admission: u64,
    /// Held parity requests released because a data chunk of the GET
    /// was answered with a miss (reclaim, eviction, overwrite).
    pub parity_releases_miss: u64,
    /// Held parity requests released because a data home bounced the
    /// GET's query or lost its connection with the query unanswered.
    pub parity_releases_bounce: u64,
    /// Chunk queries not enqueued because the same query was already
    /// waiting for the same sleeping node.
    pub coalesced_chunk_gets: u64,
}

#[derive(Clone, Debug)]
struct ObjectMeta {
    size: u64,
    total_chunks: u32,
    chunk_len: u64,
    /// Who wrote this version and under which client PUT epoch; lets the
    /// proxy recognize a *reordered older* stripe from the same client
    /// (epochs are program order) and refuse to resurrect stale data.
    /// `None` once that client's connection ended: PUT epochs are
    /// per-session counters, so a later session that recycles the same
    /// `ClientId` starts over at 1 and must not be mistaken for a
    /// reordered older writer (that deadlocked the netbench sweep's
    /// second phase).
    writer: Option<ClientId>,
    put_epoch: u64,
    /// Proxy-assigned version (the proxy epoch of the PUT that wrote
    /// this object), announced in `GetAccepted` and echoed by
    /// read-repair chunks: a repair re-encoded from a superseded
    /// version must not clobber the current one.
    version: u64,
}

impl ObjectMeta {
    fn stored_len(&self) -> u64 {
        self.chunk_len * self.total_chunks as u64
    }
}

/// The parity half of a GET that was admitted data-first.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct HeldParity {
    client: ClientId,
    /// Shard indices not asked for yet (`d..n`).
    held: Range<u32>,
    /// Data chunks of this GET still unanswered; the entry goes with the
    /// last one.
    data_pending: u32,
}

#[derive(Clone, Debug)]
struct PutProgress {
    client: ClientId,
    /// Client-assigned PUT instance number (from `Msg::PutChunk`).
    put_epoch: u64,
    /// Proxy-assigned epoch stamped onto the `ChunkPut`s of this PUT and
    /// echoed in their `PutAck`s; acks carrying any other epoch (a stale
    /// previous version, repair traffic) never advance `acked`.
    epoch: u64,
    acked: u32,
    arrived: u32,
    total: u32,
}

/// Builds one action per client waiting on a chunk, threading `seed`
/// (the chunk id, and for data the payload) through `make`. All payload
/// and id clones here are for fan-out to *additional* waiters; the
/// common single-waiter case moves the decoded message parts straight
/// into the outgoing action — zero clones on the hot path.
fn fanout_to_waiters<T: Clone>(
    waiters: Vec<ClientId>,
    seed: T,
    mut make: impl FnMut(ClientId, T) -> ProxyAction,
) -> Vec<ProxyAction> {
    let n = waiters.len();
    let mut seed = Some(seed);
    waiters
        .into_iter()
        .enumerate()
        .map(|(i, client)| {
            let s = if i + 1 == n {
                seed.take().expect("last waiter moves the seed")
            } else {
                seed.clone().expect("seed present until last")
            };
            make(client, s)
        })
        .collect()
}

/// The GETs whose parity requests are held back, per object, plus how
/// many entries each client has open. The count is derived state, kept
/// beside the entries so that "does this client still wait on a data
/// chunk of a data-first GET?" is O(1) — the socket substrate asks it
/// of every client connection it is about to flush.
#[derive(Debug, Default)]
struct HeldTable {
    by_key: HashMap<ObjectKey, Vec<HeldParity>>,
    per_client: HashMap<ClientId, u32>,
}

impl HeldTable {
    fn insert(&mut self, key: ObjectKey, h: HeldParity) {
        *self.per_client.entry(h.client).or_default() += 1;
        self.by_key.entry(key).or_default().push(h);
    }

    fn contains_key(&self, key: &ObjectKey) -> bool {
        self.by_key.contains_key(key)
    }

    fn holds(&self, client: ClientId) -> bool {
        self.per_client.contains_key(&client)
    }

    fn total(&self) -> usize {
        self.by_key.values().map(Vec::len).sum()
    }

    /// One entry of `client` closed.
    fn forget(&mut self, client: ClientId) {
        if let Some(n) = self.per_client.get_mut(&client) {
            *n -= 1;
            if *n == 0 {
                self.per_client.remove(&client);
            }
        }
    }

    /// Removes and returns the entries of `key` that `pick` selects.
    fn take(&mut self, key: &ObjectKey, pick: impl Fn(&HeldParity) -> bool) -> Vec<HeldParity> {
        let Some(entries) = self.by_key.get_mut(key) else {
            return Vec::new();
        };
        if !entries.iter().any(&pick) {
            return Vec::new(); // the common case allocates nothing
        }
        let (taken, kept): (Vec<_>, Vec<_>) = std::mem::take(entries).into_iter().partition(pick);
        if kept.is_empty() {
            self.by_key.remove(key);
        } else {
            *entries = kept;
        }
        for h in &taken {
            self.forget(h.client);
        }
        taken
    }

    /// Data chunk `id` reached `answered`: each of their entries counts
    /// it off, and an entry goes with its last pending data chunk.
    fn retire(&mut self, id: &ChunkId, answered: &[ClientId]) {
        let Some(entries) = self.by_key.get_mut(&id.key) else {
            return;
        };
        let mut closed = Vec::new();
        entries.retain_mut(|h| {
            if id.seq >= h.held.start || !answered.contains(&h.client) {
                return true;
            }
            h.data_pending -= 1;
            if h.data_pending == 0 {
                closed.push(h.client);
            }
            h.data_pending > 0
        });
        if entries.is_empty() {
            self.by_key.remove(&id.key);
        }
        for client in closed {
            self.forget(client);
        }
    }

    /// Drops every entry of a client that is gone.
    fn remove_client(&mut self, client: ClientId) {
        if self.per_client.remove(&client).is_none() {
            return;
        }
        self.by_key.retain(|_, entries| {
            entries.retain(|h| h.client != client);
            !entries.is_empty()
        });
    }
}

/// The proxy.
#[derive(Debug)]
pub struct Proxy {
    cfg: ProxyConfig,
    members: HashMap<LambdaId, LambdaConn>,
    member_order: Vec<LambdaId>,
    mapping: HashMap<ChunkId, LambdaId>,
    objects: HashMap<ObjectKey, ObjectMeta>,
    lru: ClockQueue<ObjectKey>,
    used_bytes: u64,
    inflight_gets: HashMap<ChunkId, Vec<ClientId>>,
    /// GETs whose parity requests are held back, per object. An entry
    /// lives exactly as long as its client waits on a data chunk of the
    /// key with no evidence yet that one may not come: a miss, a bounce
    /// or a lost connection on a data home releases the parity requests,
    /// the last data answer retires them unasked.
    held_parity: HeldTable,
    puts: HashMap<ObjectKey, PutProgress>,
    /// Tombstones for PUTs aborted while part of their stripe was still
    /// in flight from the client: `(client, key, put_epoch)` → chunks yet
    /// to arrive. Late chunks are swallowed (not stored under the new
    /// version) and the tombstone self-cleans when the count hits zero.
    aborted_puts: HashMap<(ClientId, ObjectKey, u64), u32>,
    /// Monotonic source of `PutProgress::epoch` values (0 is reserved for
    /// traffic outside any PUT).
    next_epoch: u64,
    relays: HashMap<RelayId, LambdaId>,
    next_relay: u64,
    /// Model-checker teeth hook: when set, a chunk answer from a node
    /// the chunk no longer lives on is dropped *without* re-querying the
    /// current home — re-introducing the pre-guard bug where waiters of
    /// the live copy were stranded forever. Never set in production; see
    /// [`Proxy::set_debug_drop_stale_requery`].
    debug_drop_stale_requery: bool,
    /// Statistics for the experiment harnesses.
    pub stats: ProxyStats,
}

impl Proxy {
    /// Creates a proxy managing the given pool members.
    pub fn new(cfg: ProxyConfig, pool: impl IntoIterator<Item = LambdaId>) -> Self {
        let member_order: Vec<LambdaId> = pool.into_iter().collect();
        let members = member_order
            .iter()
            .map(|&l| (l, LambdaConn::new(l)))
            .collect::<HashMap<_, _>>();
        Proxy {
            cfg,
            members,
            member_order,
            mapping: HashMap::new(),
            objects: HashMap::new(),
            lru: ClockQueue::new(),
            used_bytes: 0,
            inflight_gets: HashMap::new(),
            held_parity: HeldTable::default(),
            puts: HashMap::new(),
            aborted_puts: HashMap::new(),
            next_epoch: 1,
            relays: HashMap::new(),
            next_relay: 1,
            debug_drop_stale_requery: cfg!(mc_bug_2),
            stats: ProxyStats::default(),
        }
    }

    /// Arms (or disarms) the model checker's revert-detection hook: drop
    /// stale chunk answers without re-querying the chunk's current home,
    /// resurrecting a historical bug that stranded in-flight GET waiters
    /// forever. Compiling with `--cfg mc_bug_2` forces it on. Test-only.
    pub fn set_debug_drop_stale_requery(&mut self, on: bool) {
        self.debug_drop_stale_requery = on;
    }

    /// This proxy's id.
    pub fn id(&self) -> ProxyId {
        self.cfg.id
    }

    /// The node ids this proxy manages, in placement order.
    pub fn pool(&self) -> &[LambdaId] {
        &self.member_order
    }

    /// Bytes of pool capacity currently accounted as used.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// `true` if the object is currently cached (metadata present).
    pub fn contains_object(&self, key: &ObjectKey) -> bool {
        self.objects.contains_key(key)
    }

    /// Number of cached objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Connection state of a member (tests/metrics).
    pub fn member(&self, lambda: LambdaId) -> Option<&LambdaConn> {
        self.members.get(&lambda)
    }

    // ------------------------------------------------------------------
    // Client-facing path
    // ------------------------------------------------------------------

    /// Handles a message from a client.
    pub fn on_client(&mut self, client: ClientId, msg: Msg) -> Vec<ProxyAction> {
        match msg {
            Msg::GetObject { key, data_chunks } => self.handle_get(client, key, data_chunks),
            Msg::PutChunk {
                id,
                lambda,
                payload,
                object_size,
                total_chunks,
                repair,
                put_epoch,
            } => self.handle_put_chunk(
                client,
                id,
                lambda,
                payload,
                object_size,
                total_chunks,
                repair,
                put_epoch,
            ),
            other => {
                debug_assert!(false, "unexpected client message {}", other.kind());
                Vec::new()
            }
        }
    }

    fn handle_get(
        &mut self,
        client: ClientId,
        key: ObjectKey,
        data_chunks: u32,
    ) -> Vec<ProxyAction> {
        let Some(meta) = self.objects.get(&key) else {
            self.stats.get_misses += 1;
            return vec![ProxyAction::ToClient {
                client,
                msg: Msg::GetMiss { key },
            }];
        };
        self.stats.get_hits += 1;
        let total = meta.total_chunks;
        let object_size = meta.size;
        let version = meta.version;
        self.lru.touch(&key);

        let chunks: Vec<ChunkId> = (0..total)
            .map(|seq| ChunkId::new(key.clone(), seq))
            .collect();
        // The admission rule. Parity exists to mask a data chunk that is
        // slow or gone; while every home of the stripe is a live
        // connection there is no sign of either, so only the data chunks
        // are asked for and the parity requests wait for evidence. A
        // sleeping home (an invoke is on the path), a connection replaced
        // mid-backup or an unmapped chunk is such evidence already.
        // (A reader without parity names the whole stripe as its data;
        // a count that fits no stripe — 0, more than there is — is
        // clamped to that too: nothing is held back on its say-so.)
        let data = if (1..total).contains(&data_chunks) {
            data_chunks
        } else {
            total
        };
        let healthy = chunks.iter().all(|c| {
            self.mapping
                .get(c)
                .is_some_and(|home| self.members[home].liveness() == Liveness::Active)
        });
        let requested = if healthy { data } else { total };
        if requested < total {
            self.stats.data_first_gets += 1;
        } else if data < total {
            self.stats.parity_releases_admission += 1;
        }
        // A GET re-issued while its predecessor still held parity takes
        // over: whatever it does not ask for itself is held afresh below.
        self.held_parity.take(&key, |h| h.client == client);

        let mut actions = vec![ProxyAction::ToClient {
            client,
            msg: Msg::GetAccepted {
                key: key.clone(),
                object_size,
                version,
                requested,
                chunks: chunks.clone(),
            },
        }];
        for chunk in chunks.into_iter().take(requested as usize) {
            self.request_chunk(client, chunk, &mut actions);
        }
        if requested < total {
            self.held_parity.insert(
                key,
                HeldParity {
                    client,
                    held: requested..total,
                    data_pending: requested,
                },
            );
        }
        actions
    }

    /// Registers `client` as waiting on `chunk` and asks the chunk's home
    /// for it — or, if the chunk has none (PUT raced, or a reclaim was
    /// already reported), answers with a miss directly. A `(chunk,
    /// client)` pair waits at most once: the answer to the query already
    /// out serves a re-issued GET too.
    fn request_chunk(&mut self, client: ClientId, chunk: ChunkId, out: &mut Vec<ProxyAction>) {
        let Some(home) = self.mapping.get(&chunk).copied() else {
            out.push(ProxyAction::ToClient {
                client,
                msg: Msg::ChunkMiss { id: chunk },
            });
            return;
        };
        let waiters = self.inflight_gets.entry(chunk.clone()).or_default();
        if !waiters.contains(&client) {
            waiters.push(client);
        }
        self.query_home(home, chunk, out);
    }

    /// Sends `ChunkGet` for `id` to `home`, unless that very query is
    /// still queued behind the node's invoke — its answer will do, and a
    /// node that never comes back must not collect one copy per GET.
    fn query_home(&mut self, home: LambdaId, id: ChunkId, out: &mut Vec<ProxyAction>) {
        let conn = self
            .members
            .get_mut(&home)
            .expect("mapping points to a pool member");
        let query = Msg::ChunkGet { id };
        if conn.is_queued(&query) {
            self.stats.coalesced_chunk_gets += 1;
            return;
        }
        let effects = conn.send(query);
        out.extend(self.apply_effects(home, effects));
    }

    /// Evidence arrived that data chunk `id` may not come (a miss, a
    /// bounce, its home's connection lost): every GET still waiting on it
    /// with parity held back now asks for the parity, all of it at once.
    /// Returns how many GETs that released.
    fn release_parity_behind(&mut self, id: &ChunkId, out: &mut Vec<ProxyAction>) -> u64 {
        let Some(waiters) = self.inflight_gets.get(id) else {
            return 0;
        };
        let released = self.held_parity.take(&id.key, |h| {
            id.seq < h.held.start && waiters.contains(&h.client)
        });
        for h in &released {
            for seq in h.held.clone() {
                self.request_chunk(h.client, ChunkId::new(id.key.clone(), seq), out);
            }
        }
        released.len() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_put_chunk(
        &mut self,
        client: ClientId,
        id: ChunkId,
        lambda: LambdaId,
        payload: ic_common::Payload,
        object_size: u64,
        total_chunks: u32,
        repair: bool,
        put_epoch: u64,
    ) -> Vec<ProxyAction> {
        let mut actions = Vec::new();
        let key = id.key.clone();
        if repair {
            // Read-repair of a lost chunk: remap and forward, nothing
            // else. The repair's `put_epoch` carries the object version
            // the client re-encoded the shard from (announced in its
            // `GetAccepted`); if the object was overwritten or evicted
            // since, the repair is stale — storing it would remap the
            // chunk to old bytes and corrupt the current version.
            let current = self
                .objects
                .get(&key)
                .is_some_and(|m| m.version == put_epoch);
            if !current || !self.members.contains_key(&lambda) {
                self.stats.stale_repairs += 1;
                return actions;
            }
            self.mapping.insert(id.clone(), lambda);
            let effects =
                self.members
                    .get_mut(&lambda)
                    .expect("checked above")
                    .send(Msg::ChunkPut {
                        id,
                        payload,
                        epoch: 0,
                    });
            actions.extend(self.apply_effects(lambda, effects));
            return actions;
        }
        // A late chunk of a PUT that was already aborted (evicted under
        // pressure or superseded by an overwrite): swallow it so it cannot
        // resurrect the dead PUT or pollute the current version.
        if let Some(remaining) = self.aborted_puts.get_mut(&(client, key.clone(), put_epoch)) {
            *remaining -= 1;
            if *remaining == 0 {
                self.aborted_puts.remove(&(client, key, put_epoch));
            }
            return actions;
        }
        let continuing = self
            .puts
            .get(&key)
            .is_some_and(|p| p.client == client && p.put_epoch == put_epoch);
        if !continuing {
            // A same-client stripe carrying an *older* epoch than the
            // version already stored (or being stored): its PUT was
            // reordered behind a newer PUT of the key (e.g. by encode
            // delays). Treating it as an overwrite would evict the newer
            // version and resurrect stale data — swallow the whole
            // stripe via a tombstone instead.
            if let Some(meta) = self.objects.get(&key) {
                if meta.writer == Some(client) && put_epoch < meta.put_epoch {
                    if total_chunks > 1 {
                        self.aborted_puts
                            .insert((client, key, put_epoch), total_chunks - 1);
                    }
                    return actions;
                }
            }
            // First chunk of a new PUT: invalidate any previous version
            // (§3.1: the client library invalidates on overwrite) — which
            // also aborts a still-open PUT of the key and notifies its
            // writer — and make room.
            if self.objects.contains_key(&key) {
                self.stats.overwrites += 1;
                actions.extend(self.evict_object(&key));
            }
            let stored = payload.len() * total_chunks as u64;
            actions.extend(self.evict_until_fits(stored, &key));
            let epoch = self.next_epoch;
            self.next_epoch += 1;
            self.objects.insert(
                key.clone(),
                ObjectMeta {
                    size: object_size,
                    total_chunks,
                    chunk_len: payload.len(),
                    writer: Some(client),
                    put_epoch,
                    version: epoch,
                },
            );
            self.lru.insert(key.clone());
            self.used_bytes += stored;
            self.puts.insert(
                key.clone(),
                PutProgress {
                    client,
                    put_epoch,
                    epoch,
                    acked: 0,
                    arrived: 0,
                    total: total_chunks,
                },
            );
        }
        let progress = self.puts.get_mut(&key).expect("present or just inserted");
        progress.arrived += 1;
        let epoch = progress.epoch;
        if !self.members.contains_key(&lambda) {
            // Placement targeted a foreign pool: protocol violation.
            debug_assert!(false, "chunk placed on unknown node {lambda}");
            return actions;
        }
        self.mapping.insert(id.clone(), lambda);
        let effects = self
            .members
            .get_mut(&lambda)
            .expect("checked above")
            .send(Msg::ChunkPut { id, payload, epoch });
        actions.extend(self.apply_effects(lambda, effects));
        actions
    }

    // ------------------------------------------------------------------
    // Lambda-facing path
    // ------------------------------------------------------------------

    /// Handles a message from a node (or from a relay participant).
    pub fn on_lambda(&mut self, lambda: LambdaId, msg: Msg) -> Vec<ProxyAction> {
        match msg {
            Msg::Pong { instance, .. } => {
                let effects = self
                    .members
                    .get_mut(&lambda)
                    .map(|m| m.on_pong(instance))
                    .unwrap_or_default();
                self.apply_effects(lambda, effects)
            }
            Msg::Bye { instance } => {
                if let Some(m) = self.members.get_mut(&lambda) {
                    m.on_bye(instance);
                }
                Vec::new()
            }
            Msg::ChunkData { id, payload } => match self.mapping.get(&id).copied() {
                Some(home) if home == lambda => {
                    let clients = self.inflight_gets.remove(&id).unwrap_or_default();
                    self.held_parity.retire(&id, &clients);
                    fanout_to_waiters(clients, (id, payload), |client, (id, payload)| {
                        ProxyAction::DataToClient {
                            client,
                            msg: Msg::ChunkToClient { id, payload },
                        }
                    })
                }
                // The chunk moved (overwrite or read-repair) since this
                // query was dispatched: the bytes belong to a superseded
                // copy and must not be credited to waiters of the current
                // version. Drop the payload and ask the current home.
                Some(home) => self.requery_chunk(&id, home),
                None => self.answer_waiters_with_miss(&id),
            },
            Msg::ChunkMiss { id } => match self.mapping.get(&id).copied() {
                Some(home) if home == lambda => {
                    // A miss from the chunk's own home while the PUT that
                    // placed it there is still landing is a *reordered*
                    // answer, not a loss: lazy deletions flush ahead of
                    // queued traffic, so a straggler `ChunkGet` from the
                    // previous version can overtake the re-placing
                    // `ChunkPut` on the same connection and observe the
                    // gap between delete and store. Unmapping here would
                    // orphan the chunk the moment it lands; re-query
                    // instead — FIFO puts the answer after the store.
                    if self.puts.contains_key(&id.key) {
                        self.requery_chunk(&id, lambda)
                    } else {
                        // The node genuinely lost the chunk (reclaim):
                        // unmap it and tell the waiting clients.
                        self.mapping.remove(&id);
                        self.answer_waiters_with_miss(&id)
                    }
                }
                // Stale miss from a node the chunk no longer lives on
                // (the straggler query raced an overwrite that re-placed
                // the chunk elsewhere): the current version is fine —
                // re-query its home rather than poisoning the mapping.
                Some(home) => self.requery_chunk(&id, home),
                None => self.answer_waiters_with_miss(&id),
            },
            Msg::PutAck { id, epoch, .. } => {
                let key = id.key.clone();
                // Only acks stamped with the current PUT's epoch count: a
                // stale ack (from an overwritten previous version, or from
                // epoch-0 repair traffic) must not signal PutDone before
                // the new chunks are actually stored.
                let done = match self.puts.get_mut(&key) {
                    Some(p) if p.epoch == epoch => {
                        p.acked += 1;
                        p.acked >= p.total
                    }
                    _ => false,
                };
                if done {
                    let p = self.puts.remove(&key).expect("present");
                    vec![ProxyAction::ToClient {
                        client: p.client,
                        msg: Msg::PutDone {
                            key,
                            put_epoch: p.put_epoch,
                        },
                    }]
                } else {
                    Vec::new()
                }
            }
            Msg::InitBackup => {
                // Fig 10 steps 1–4.
                self.stats.backup_rounds += 1;
                let relay = RelayId(self.next_relay);
                self.next_relay += 1;
                self.relays.insert(relay, lambda);
                vec![
                    ProxyAction::SpawnRelay {
                        relay,
                        source: lambda,
                    },
                    ProxyAction::ToLambda {
                        lambda,
                        msg: Msg::BackupCmd { relay },
                    },
                ]
            }
            Msg::HelloProxy { instance, source } => {
                // Fig 10 step 10: λd owns the connection now.
                let effects = self
                    .members
                    .get_mut(&source)
                    .map(|m| m.replace_with(instance))
                    .unwrap_or_default();
                self.apply_effects(source, effects)
            }
            other => {
                debug_assert!(false, "unexpected lambda message {}", other.kind());
                Vec::new()
            }
        }
    }

    /// The transport failed to deliver `msg` to the node (its instance is
    /// gone): requeue and re-invoke.
    pub fn on_delivery_failed(&mut self, lambda: LambdaId, msg: Msg) -> Vec<ProxyAction> {
        self.stats.delivery_failures += 1;
        let mut actions = Vec::new();
        if let Msg::ChunkGet { id } = &msg {
            // The query will be retried, but behind a fresh invoke: the
            // data chunk is now a straggler at best.
            self.stats.parity_releases_bounce += self.release_parity_behind(id, &mut actions);
        }
        let retry = match msg {
            m @ (Msg::ChunkGet { .. } | Msg::ChunkPut { .. } | Msg::BackupCmd { .. }) => Some(m),
            Msg::ChunkDelete { ids } => {
                if let Some(m) = self.members.get_mut(&lambda) {
                    for id in ids {
                        m.queue_delete(id);
                    }
                }
                None
            }
            _ => None,
        };
        let effects = self
            .members
            .get_mut(&lambda)
            .map(|m| m.on_reset(retry))
            .unwrap_or_default();
        actions.extend(self.apply_effects(lambda, effects));
        actions
    }

    /// The transport's connection to the node dropped entirely (its
    /// daemon process died or the socket reset) with no specific message
    /// in flight: reset the connection state. Anything still queued on
    /// the connection triggers an immediate re-invoke, which the
    /// substrate delivers once the node is reachable again.
    pub fn on_connection_lost(&mut self, lambda: LambdaId) -> Vec<ProxyAction> {
        self.stats.delivery_failures += 1;
        let effects = self
            .members
            .get_mut(&lambda)
            .map(|m| m.on_connection_lost())
            .unwrap_or_default();
        let mut actions = self.apply_effects(lambda, effects);
        // Queries the dead connection carried are gone with it: a
        // data-first GET waiting on a chunk homed there needs its parity.
        let mut stranded: Vec<ChunkId> = self
            .inflight_gets
            .keys()
            .filter(|id| self.held_parity.contains_key(&id.key))
            .filter(|id| self.mapping.get(*id) == Some(&lambda))
            .cloned()
            .collect();
        stranded.sort();
        for id in stranded {
            self.stats.parity_releases_bounce += self.release_parity_behind(&id, &mut actions);
        }
        actions
    }

    /// A client's connection ended (socket closed). Its `ClientId` may
    /// be recycled to a future connection whose PUT-epoch counter starts
    /// over, so (1) the same-writer stripe-ordering guard must forget
    /// this session (or a fresh session's PUTs would be swallowed as
    /// "reordered older" stripes and the writer would hang), and (2) an
    /// open PUT of the gone client is aborted — its remaining chunks
    /// can never arrive.
    pub fn on_client_disconnected(&mut self, client: ClientId) -> Vec<ProxyAction> {
        for meta in self.objects.values_mut() {
            if meta.writer == Some(client) {
                meta.writer = None;
            }
        }
        let open: Vec<ObjectKey> = self
            .puts
            .iter()
            .filter(|(_, p)| p.client == client)
            .map(|(k, _)| k.clone())
            .collect();
        let mut actions = Vec::new();
        for key in open {
            // The PutFailed notice targets the gone client; the
            // transport drops it (the connection no longer exists).
            actions.extend(self.abort_put(&key));
        }
        // Nobody is left to read the parity its GETs held back.
        self.held_parity.remove_client(client);
        // A reader delivers its connection's messages before the
        // disconnect, so no more chunks from this session can arrive:
        // its tombstones would never drain.
        self.aborted_puts.retain(|(c, _, _), _| *c != client);
        actions
    }

    /// Warm-up tick (`Twarm`): invoke every sleeping member.
    pub fn on_warmup_tick(&mut self) -> Vec<ProxyAction> {
        let mut actions = Vec::new();
        // Indexed loop instead of cloning the order vector: the pool is
        // fixed at construction, only member *state* changes under us.
        for i in 0..self.member_order.len() {
            let lambda = self.member_order[i];
            let effects = self
                .members
                .get_mut(&lambda)
                .expect("member exists")
                .warmup();
            actions.extend(self.apply_effects(lambda, effects));
        }
        actions
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn apply_effects(&mut self, lambda: LambdaId, effects: Vec<ConnEffect>) -> Vec<ProxyAction> {
        effects
            .into_iter()
            .map(|fx| match fx {
                ConnEffect::Invoke => ProxyAction::Invoke {
                    lambda,
                    payload: InvokePayload::ping(self.cfg.id),
                },
                ConnEffect::Emit(msg) => {
                    if msg.data_len() > 0 {
                        ProxyAction::DataToLambda { lambda, msg }
                    } else {
                        ProxyAction::ToLambda { lambda, msg }
                    }
                }
            })
            .collect()
    }

    /// A node answered a chunk query that its current home supersedes
    /// (see the `ChunkData`/`ChunkMiss` arms of [`Proxy::on_lambda`]):
    /// drop the stale answer and, if clients are still waiting on the
    /// chunk, re-issue the query to `home` so they get an answer for the
    /// live copy instead.
    fn requery_chunk(&mut self, id: &ChunkId, home: LambdaId) -> Vec<ProxyAction> {
        self.stats.stale_chunk_answers += 1;
        if self.debug_drop_stale_requery {
            // Revert-detection hook: swallow the stale answer and never
            // ask the live home — waiters strand (mc_bug_2).
            return Vec::new();
        }
        if self.inflight_gets.get(id).is_none_or(Vec::is_empty) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        self.query_home(home, id.clone(), &mut actions);
        actions
    }

    /// Answers every client waiting on `id` with a `ChunkMiss` and
    /// clears the waiter list. Those of them that asked data-first get
    /// their parity requests released: a chunk they counted on is gone.
    fn answer_waiters_with_miss(&mut self, id: &ChunkId) -> Vec<ProxyAction> {
        let mut released = Vec::new();
        self.stats.parity_releases_miss += self.release_parity_behind(id, &mut released);
        let clients = self.inflight_gets.remove(id).unwrap_or_default();
        let mut actions =
            fanout_to_waiters(clients, id.clone(), |client, id| ProxyAction::ToClient {
                client,
                msg: Msg::ChunkMiss { id },
            });
        actions.append(&mut released);
        actions
    }

    /// Drops an object: metadata, mapping, LRU, capacity, plus lazy
    /// deletions queued toward the nodes holding its chunks. Clients
    /// waiting on in-flight GETs of its chunks are told the chunks are
    /// gone, and a still-open PUT of the key is aborted with a
    /// `PutFailed` to its writer — without either, those requests would
    /// hang forever.
    fn evict_object(&mut self, key: &ObjectKey) -> Vec<ProxyAction> {
        self.evict_object_impl(key, true)
    }

    /// Like [`Proxy::evict_object`] but the key is already off the LRU
    /// (evict() removed it).
    fn evict_object_keep_lru(&mut self, key: &ObjectKey) -> Vec<ProxyAction> {
        self.evict_object_impl(key, false)
    }

    fn evict_object_impl(&mut self, key: &ObjectKey, remove_lru: bool) -> Vec<ProxyAction> {
        let Some(meta) = self.objects.remove(key) else {
            return Vec::new();
        };
        if remove_lru {
            self.lru.remove(key);
        }
        self.used_bytes = self.used_bytes.saturating_sub(meta.stored_len());
        let chunks: Vec<ChunkId> = (0..meta.total_chunks)
            .map(|seq| ChunkId::new(key.clone(), seq))
            .collect();
        // Unmap the whole stripe before any waiter is told: the first
        // data-chunk miss releases held parity, which must find nothing
        // left to query.
        for chunk in &chunks {
            if let Some(lambda) = self.mapping.remove(chunk) {
                if let Some(m) = self.members.get_mut(&lambda) {
                    m.queue_delete(chunk.clone());
                }
            }
        }
        let mut actions = Vec::new();
        for chunk in &chunks {
            actions.extend(self.answer_waiters_with_miss(chunk));
        }
        debug_assert!(
            !self.held_parity.contains_key(key),
            "held parity outlives every data waiter of {key}"
        );
        actions.extend(self.abort_put(key));
        actions
    }

    /// Aborts an incomplete PUT of `key` (its object is going away):
    /// removes the progress entry, leaves a tombstone for the stripe
    /// chunks that have not reached the proxy yet, and tells the writer —
    /// otherwise it waits for a `PutDone` that can never arrive.
    fn abort_put(&mut self, key: &ObjectKey) -> Vec<ProxyAction> {
        let Some(p) = self.puts.remove(key) else {
            return Vec::new();
        };
        if p.arrived < p.total {
            self.aborted_puts
                .insert((p.client, key.clone(), p.put_epoch), p.total - p.arrived);
        }
        vec![ProxyAction::ToClient {
            client: p.client,
            msg: Msg::PutFailed {
                key: key.clone(),
                put_epoch: p.put_epoch,
            },
        }]
    }

    /// CLOCK-LRU eviction until `incoming` fits (§3.2), never evicting the
    /// object currently being written.
    fn evict_until_fits(&mut self, incoming: u64, protect: &ObjectKey) -> Vec<ProxyAction> {
        let mut actions = Vec::new();
        let mut parked: Option<ObjectKey> = None;
        while self.used_bytes + incoming > self.cfg.capacity_bytes {
            let Some(victim) = self.lru.evict() else {
                break;
            };
            if &victim == protect {
                // Re-insert after the loop; never self-evict.
                parked = Some(victim);
                continue;
            }
            self.stats.evictions += 1;
            actions.extend(self.evict_object_keep_lru(&victim));
        }
        if let Some(k) = parked {
            self.lru.insert(k);
        }
        actions
    }

    /// The node a chunk is mapped to (tests/metrics).
    pub fn chunk_owner(&self, id: &ChunkId) -> Option<LambdaId> {
        self.mapping.get(id).copied()
    }

    /// The lambda a relay was spawned for.
    pub fn relay_source(&self, relay: RelayId) -> Option<LambdaId> {
        self.relays.get(&relay).copied()
    }

    /// Queue of pending client ids per in-flight chunk (tests).
    pub fn inflight_for(&self, id: &ChunkId) -> usize {
        self.inflight_gets.get(id).map_or(0, |v| v.len())
    }

    /// Total waiting clients across all in-flight chunk GETs (auditing).
    pub fn inflight_total(&self) -> usize {
        self.inflight_gets.values().map(Vec::len).sum()
    }

    /// GETs whose parity requests are currently held back (auditing;
    /// must drain to zero once every data chunk is answered).
    pub fn held_parity_total(&self) -> usize {
        self.held_parity.total()
    }

    /// `true` while `client` waits on a data chunk of a GET admitted
    /// data-first: it cannot decode until the last one arrives, so a
    /// substrate may hold its answers back and deliver them together.
    /// O(1).
    pub fn holds_parity_for(&self, client: ClientId) -> bool {
        self.held_parity.holds(client)
    }

    /// Number of PUTs currently awaiting acks (auditing).
    pub fn open_puts(&self) -> usize {
        self.puts.len()
    }

    /// Number of aborted-PUT tombstones still waiting for late chunks
    /// (auditing; must drain to zero once all client traffic lands).
    pub fn aborted_put_tombstones(&self) -> usize {
        self.aborted_puts.len()
    }

    /// Checks the proxy's structural invariants, returning one line per
    /// violation (empty when healthy). Exercised continuously by the
    /// chaos harness:
    ///
    /// * `used_bytes` equals the summed stored length of live objects;
    /// * every mapped chunk belongs to a live object and points at a pool
    ///   member;
    /// * every in-flight GET and every open PUT refers to a live object;
    /// * PUT progress counters never exceed the stripe size;
    /// * every held-parity entry holds back exactly the tail of a live
    ///   object's stripe, once per client, and counts exactly the data
    ///   chunks its client still waits on — at least one, or nothing
    ///   would ever release or retire it;
    /// * the per-client count behind [`Proxy::holds_parity_for`] recounts
    ///   exactly to those entries.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let expected: u64 = self.objects.values().map(ObjectMeta::stored_len).sum();
        if expected != self.used_bytes {
            violations.push(format!(
                "{}: used_bytes {} != sum of live objects {}",
                self.cfg.id, self.used_bytes, expected
            ));
        }
        for (chunk, lambda) in &self.mapping {
            if !self.objects.contains_key(&chunk.key) {
                violations.push(format!(
                    "{}: mapping for {chunk} outlives its object",
                    self.cfg.id
                ));
            }
            if !self.members.contains_key(lambda) {
                violations.push(format!(
                    "{}: {chunk} mapped to foreign node {lambda}",
                    self.cfg.id
                ));
            }
        }
        for chunk in self.inflight_gets.keys() {
            if !self.objects.contains_key(&chunk.key) {
                violations.push(format!(
                    "{}: in-flight GET of {chunk} for an evicted object (waiters stranded)",
                    self.cfg.id
                ));
            }
        }
        let mut open: HashMap<ClientId, u32> = HashMap::new();
        for (key, entries) in &self.held_parity.by_key {
            let total = self.objects.get(key).map(|m| m.total_chunks);
            for (i, h) in entries.iter().enumerate() {
                let waiting = (0..h.held.start)
                    .filter(|&seq| {
                        self.inflight_gets
                            .get(&ChunkId::new(key.clone(), seq))
                            .is_some_and(|w| w.contains(&h.client))
                    })
                    .count() as u32;
                if waiting == 0 || waiting != h.data_pending {
                    violations.push(format!(
                        "{}: parity of {key} held for {} counts {} pending data chunks, \
                         {waiting} are waited on (never released)",
                        self.cfg.id, h.client, h.data_pending
                    ));
                }
                if h.held.is_empty() || Some(h.held.end) != total {
                    violations.push(format!(
                        "{}: parity of {key} held for {} spans {:?} of a {total:?}-chunk stripe",
                        self.cfg.id, h.client, h.held
                    ));
                }
                if entries[..i].iter().any(|o| o.client == h.client) {
                    violations.push(format!(
                        "{}: parity of {key} held twice for {}",
                        self.cfg.id, h.client
                    ));
                }
                *open.entry(h.client).or_default() += 1;
            }
        }
        if open != self.held_parity.per_client {
            violations.push(format!(
                "{}: per-client held-parity counts {:?} do not recount to {open:?}",
                self.cfg.id, self.held_parity.per_client
            ));
        }
        for (key, p) in &self.puts {
            if !self.objects.contains_key(key) {
                violations.push(format!(
                    "{}: open PUT of {key} without object metadata (writer stranded)",
                    self.cfg.id
                ));
            }
            if p.arrived > p.total || p.acked > p.total {
                violations.push(format!(
                    "{}: PUT of {key} over-counted ({}/{} arrived, {}/{} acked)",
                    self.cfg.id, p.arrived, p.total, p.acked, p.total
                ));
            }
        }
        violations
    }

    /// Feeds the proxy's protocol state into a state hash. The model
    /// checker uses this to recognize already-explored interleavings, so
    /// only protocol-relevant state goes in: maps iterate in sorted
    /// order (std `HashMap` order is per-process random) and the stats
    /// counters are excluded (two runs in the same protocol state may
    /// have counted different retries along the way).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.cfg.id.hash(h);
        // member_order is a stable pool enumeration, so it doubles as the
        // deterministic iteration order for the connection table.
        for lambda in &self.member_order {
            self.members[lambda].fingerprint(h);
        }
        let mut mapping: Vec<_> = self.mapping.iter().collect();
        mapping.sort();
        mapping.hash(h);
        let mut objects: Vec<_> = self.objects.iter().collect();
        objects.sort_by_key(|(k, _)| (*k).clone());
        for (key, meta) in objects {
            key.hash(h);
            format!("{meta:?}").hash(h);
        }
        self.lru.keys_mru_to_lru().hash(h);
        self.used_bytes.hash(h);
        let mut gets: Vec<_> = self.inflight_gets.iter().collect();
        gets.sort_by_key(|(c, _)| (*c).clone());
        for (chunk, waiters) in gets {
            chunk.hash(h);
            waiters.hash(h);
        }
        // The per-client counts are derived from these entries: hashing
        // them would add nothing.
        let mut held: Vec<_> = self
            .held_parity
            .by_key
            .iter()
            .flat_map(|(key, entries)| entries.iter().map(move |h| (key, h)))
            .collect();
        held.sort_by_key(|(key, h)| ((*key).clone(), h.client));
        held.hash(h);
        let mut puts: Vec<_> = self.puts.iter().collect();
        puts.sort_by_key(|(k, _)| (*k).clone());
        for (key, progress) in puts {
            key.hash(h);
            format!("{progress:?}").hash(h);
        }
        let mut aborted: Vec<_> = self.aborted_puts.iter().collect();
        aborted.sort();
        aborted.hash(h);
        self.next_epoch.hash(h);
        let mut relays: Vec<_> = self.relays.iter().collect();
        relays.sort();
        relays.hash(h);
        self.next_relay.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{InstanceId, Payload};

    fn proxy(pool: u32, capacity: u64) -> Proxy {
        Proxy::new(
            ProxyConfig {
                id: ProxyId(0),
                capacity_bytes: capacity,
            },
            (0..pool).map(LambdaId),
        )
    }

    fn put_chunks_as(
        p: &mut Proxy,
        client: ClientId,
        put_epoch: u64,
        key: &str,
        chunks: u32,
        chunk_len: u64,
    ) -> Vec<ProxyAction> {
        let mut all = Vec::new();
        for seq in 0..chunks {
            all.extend(p.on_client(
                client,
                Msg::PutChunk {
                    id: ChunkId::new(ObjectKey::new(key), seq),
                    lambda: LambdaId(seq % 4),
                    payload: Payload::synthetic(chunk_len),
                    object_size: chunk_len * chunks as u64,
                    total_chunks: chunks,
                    repair: false,
                    put_epoch,
                },
            ));
        }
        all
    }

    fn put_chunks(
        p: &mut Proxy,
        put_epoch: u64,
        key: &str,
        chunks: u32,
        chunk_len: u64,
    ) -> Vec<ProxyAction> {
        put_chunks_as(p, ClientId(0), put_epoch, key, chunks, chunk_len)
    }

    /// Walks every member with a pending invoke through PONG so queued
    /// messages flush; returns all flushed actions.
    fn pong_all(p: &mut Proxy, first_instance: u64) -> Vec<ProxyAction> {
        let mut out = Vec::new();
        for (i, lambda) in p.pool().to_vec().into_iter().enumerate() {
            out.extend(p.on_lambda(
                lambda,
                Msg::Pong {
                    instance: InstanceId(first_instance + i as u64),
                    stored_bytes: 0,
                },
            ));
        }
        out
    }

    #[test]
    fn get_unknown_object_misses() {
        let mut p = proxy(4, 1 << 30);
        let acts = p.on_client(
            ClientId(1),
            Msg::GetObject {
                key: ObjectKey::new("nope"),
                data_chunks: 3,
            },
        );
        assert!(matches!(
            &acts[0],
            ProxyAction::ToClient {
                client: ClientId(1),
                msg: Msg::GetMiss { .. }
            }
        ));
        assert_eq!(p.stats.get_misses, 1);
    }

    #[test]
    fn put_then_get_roundtrip_actions() {
        let mut p = proxy(4, 1 << 30);
        let acts = put_chunks(&mut p, 1, "obj", 4, 100);
        // Cold pool: each of the 4 nodes gets one Invoke.
        let invokes = acts
            .iter()
            .filter(|a| matches!(a, ProxyAction::Invoke { .. }))
            .count();
        assert_eq!(invokes, 4);
        assert_eq!(p.object_count(), 1);
        assert_eq!(p.used_bytes(), 400);

        // Nodes wake up: the queued ChunkPuts flush as data.
        let flushed = pong_all(&mut p, 10);
        let puts = flushed
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ProxyAction::DataToLambda {
                        msg: Msg::ChunkPut { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(puts, 4);

        // Acks complete the PUT.
        let mut done = Vec::new();
        for seq in 0..4u32 {
            done = p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("obj"), seq),
                    stored_bytes: 100,
                    epoch: 1,
                },
            );
        }
        assert!(matches!(
            &done[0],
            ProxyAction::ToClient {
                msg: Msg::PutDone { .. },
                ..
            }
        ));

        // GET of the 3+1 stripe, every home awake: accepted + the 3 data
        // chunk requests, routed by the mapping.
        let acts = p.on_client(
            ClientId(2),
            Msg::GetObject {
                key: ObjectKey::new("obj"),
                data_chunks: 3,
            },
        );
        assert!(matches!(
            &acts[0],
            ProxyAction::ToClient {
                msg: Msg::GetAccepted { requested: 3, .. },
                ..
            }
        ));
        assert_eq!(acts.len(), 4);
        assert_eq!(p.stats.get_hits, 1);
        for seq in 0..4u32 {
            assert_eq!(
                p.chunk_owner(&ChunkId::new(ObjectKey::new("obj"), seq)),
                Some(LambdaId(seq % 4))
            );
        }
    }

    #[test]
    fn chunk_data_streams_to_waiting_client() {
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 1, "o", 2, 50);
        pong_all(&mut p, 1);
        p.on_client(
            ClientId(3),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 1,
            },
        );
        let id = ChunkId::new(ObjectKey::new("o"), 0);
        assert_eq!(p.inflight_for(&id), 1);
        let acts = p.on_lambda(
            LambdaId(0),
            Msg::ChunkData {
                id: id.clone(),
                payload: Payload::synthetic(50),
            },
        );
        assert!(matches!(
            &acts[0],
            ProxyAction::DataToClient {
                client: ClientId(3),
                msg: Msg::ChunkToClient { .. }
            }
        ));
        assert_eq!(p.inflight_for(&id), 0);
    }

    /// The stale-read-repair regression: a repair chunk re-encoded from
    /// a version the client fetched *before* an overwrite must be
    /// dropped, not remap the chunk onto old bytes. (Found by netbench
    /// `--verify`: a GET's post-delivery repair racing an overwrite PUT
    /// of the same key poisoned the stored stripe persistently.)
    #[test]
    fn stale_read_repair_cannot_clobber_an_overwritten_object() {
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 1, "o", 2, 50);
        pong_all(&mut p, 1);
        // A GET of version 1 announces that version to the client.
        let acts = p.on_client(
            ClientId(3),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 1,
            },
        );
        let v1 = match &acts[0] {
            ProxyAction::ToClient {
                msg: Msg::GetAccepted { version, .. },
                ..
            } => *version,
            other => panic!("expected GetAccepted, got {other:?}"),
        };

        // The key is overwritten (same client, newer epoch).
        put_chunks(&mut p, 2, "o", 2, 50);
        let id = ChunkId::new(ObjectKey::new("o"), 0);
        let owner_after_overwrite = p.chunk_owner(&id);

        // The late repair from the v1 GET arrives: dropped, no remap, no
        // forward to any node.
        let acts = p.on_client(
            ClientId(3),
            Msg::PutChunk {
                id: id.clone(),
                lambda: LambdaId(3),
                payload: Payload::synthetic(50),
                object_size: 100,
                total_chunks: 2,
                repair: true,
                put_epoch: v1,
            },
        );
        assert!(acts.is_empty(), "stale repair must be swallowed: {acts:?}");
        assert_eq!(p.chunk_owner(&id), owner_after_overwrite);
        assert_eq!(p.stats.stale_repairs, 1);

        // A repair carrying the *current* version is still accepted.
        let v2 = match &p.on_client(
            ClientId(3),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 1,
            },
        )[0]
        {
            ProxyAction::ToClient {
                msg: Msg::GetAccepted { version, .. },
                ..
            } => *version,
            other => panic!("expected GetAccepted, got {other:?}"),
        };
        assert_ne!(v1, v2, "overwrite must advance the object version");
        let acts = p.on_client(
            ClientId(3),
            Msg::PutChunk {
                id: id.clone(),
                lambda: LambdaId(3),
                payload: Payload::synthetic(50),
                object_size: 100,
                total_chunks: 2,
                repair: true,
                put_epoch: v2,
            },
        );
        assert!(!acts.is_empty(), "current-version repair proceeds");
        assert_eq!(p.chunk_owner(&id), Some(LambdaId(3)));
    }

    /// The recycled-id deadlock (found by the netbench object-size
    /// sweep): client PUT epochs are per-session counters, so after a
    /// disconnect the same `ClientId` may return with *lower* epochs.
    /// Without clearing the writer affinity, the reordered-older-stripe
    /// guard swallows the new session's overwrite PUT entirely and the
    /// writer hangs waiting for a PutDone.
    #[test]
    fn recycled_client_id_with_restarted_epochs_can_overwrite() {
        let mut p = proxy(4, 1 << 30);
        // Session 1 of ClientId(0) writes "o" at a high epoch.
        put_chunks_as(&mut p, ClientId(0), 300, "o", 2, 50);
        pong_all(&mut p, 1);
        // The connection ends; the id will be recycled.
        p.on_client_disconnected(ClientId(0));
        // Session 2 recycles ClientId(0) with epochs starting over.
        let acts = put_chunks_as(&mut p, ClientId(0), 1, "o", 2, 50);
        assert!(
            !acts.is_empty(),
            "the fresh session's PUT must not be swallowed as a reordered stripe"
        );
        assert_eq!(p.stats.overwrites, 1);
        assert_eq!(p.open_puts(), 1, "the new PUT must be in progress");
    }

    /// Disconnecting mid-PUT aborts the progress (its chunks can never
    /// finish arriving) and leaves no tombstones behind.
    #[test]
    fn disconnect_mid_put_aborts_and_leaves_no_tombstones() {
        let mut p = proxy(4, 1 << 30);
        // 1 of 4 chunks arrived when the writer vanishes.
        p.on_client(
            ClientId(2),
            Msg::PutChunk {
                id: ChunkId::new(ObjectKey::new("w"), 0),
                lambda: LambdaId(0),
                payload: Payload::synthetic(10),
                object_size: 40,
                total_chunks: 4,
                repair: false,
                put_epoch: 1,
            },
        );
        assert_eq!(p.open_puts(), 1);
        p.on_client_disconnected(ClientId(2));
        assert_eq!(p.open_puts(), 0, "the orphaned PUT is aborted");
        let violations = p.check_invariants();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn chunk_miss_unmaps_and_notifies() {
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 1, "o", 2, 50);
        pong_all(&mut p, 1);
        // Complete the PUT: a miss while it is still open is treated as a
        // reordered straggler answer, not a loss.
        for seq in 0..2 {
            p.on_lambda(
                LambdaId(seq),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("o"), seq),
                    stored_bytes: 0,
                    epoch: 1,
                },
            );
        }
        p.on_client(
            ClientId(3),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 1,
            },
        );
        let id = ChunkId::new(ObjectKey::new("o"), 0);
        let acts = p.on_lambda(LambdaId(0), Msg::ChunkMiss { id: id.clone() });
        assert!(matches!(
            &acts[0],
            ProxyAction::ToClient {
                msg: Msg::ChunkMiss { .. },
                ..
            }
        ));
        assert_eq!(p.chunk_owner(&id), None, "lost chunks must be unmapped");
    }

    #[test]
    fn eviction_frees_capacity_at_object_granularity() {
        // Capacity fits exactly two 4x100 objects.
        let mut p = proxy(4, 800);
        put_chunks(&mut p, 1, "a", 4, 100);
        put_chunks(&mut p, 2, "b", 4, 100);
        assert_eq!(p.object_count(), 2);
        // Third object forces one eviction.
        put_chunks(&mut p, 3, "c", 4, 100);
        assert_eq!(p.object_count(), 2);
        assert_eq!(p.stats.evictions, 1);
        assert!(p.used_bytes() <= 800);
        assert!(p.contains_object(&ObjectKey::new("c")));
    }

    #[test]
    fn lru_touch_protects_recently_read_objects() {
        let mut p = proxy(4, 800);
        put_chunks(&mut p, 1, "a", 4, 100);
        put_chunks(&mut p, 2, "b", 4, 100);
        // Read "a" so "b" is the colder object.
        p.on_client(
            ClientId(0),
            Msg::GetObject {
                key: ObjectKey::new("a"),
                data_chunks: 3,
            },
        );
        put_chunks(&mut p, 3, "c", 4, 100);
        assert!(
            p.contains_object(&ObjectKey::new("a")),
            "touched object survives"
        );
        assert!(
            !p.contains_object(&ObjectKey::new("b")),
            "cold object evicted"
        );
    }

    #[test]
    fn overwrite_invalidates_previous_version() {
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 1, "k", 4, 100);
        pong_all(&mut p, 1);
        for seq in 0..4u32 {
            p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("k"), seq),
                    stored_bytes: 100,
                    epoch: 1,
                },
            );
        }
        assert_eq!(p.used_bytes(), 400);
        put_chunks(&mut p, 2, "k", 4, 200);
        assert_eq!(p.stats.overwrites, 1);
        assert_eq!(p.object_count(), 1);
        assert_eq!(p.used_bytes(), 800);
    }

    #[test]
    fn warmup_invokes_only_sleeping_members() {
        let mut p = proxy(3, 1 << 30);
        let acts = p.on_warmup_tick();
        assert_eq!(acts.len(), 3);
        assert!(acts.iter().all(|a| matches!(a, ProxyAction::Invoke { .. })));
        // While the invokes are in flight, another tick is a no-op.
        assert!(p.on_warmup_tick().is_empty());
        // After PONG + BYE they are warm again -> sleeping -> re-invoked.
        pong_all(&mut p, 1);
        for (i, l) in p.pool().to_vec().into_iter().enumerate() {
            p.on_lambda(
                l,
                Msg::Bye {
                    instance: InstanceId(1 + i as u64),
                },
            );
        }
        assert_eq!(p.on_warmup_tick().len(), 3);
    }

    #[test]
    fn backup_round_spawns_relay_and_switches_connection() {
        let mut p = proxy(2, 1 << 30);
        // λ0 is active (it just pinged us).
        p.on_warmup_tick();
        p.on_lambda(
            LambdaId(0),
            Msg::Pong {
                instance: InstanceId(5),
                stored_bytes: 0,
            },
        );

        let acts = p.on_lambda(LambdaId(0), Msg::InitBackup);
        let ProxyAction::SpawnRelay { relay, source } = acts[0] else {
            panic!("expected SpawnRelay, got {:?}", acts[0]);
        };
        assert_eq!(source, LambdaId(0));
        assert!(matches!(
            &acts[1],
            ProxyAction::ToLambda {
                msg: Msg::BackupCmd { .. },
                ..
            }
        ));
        assert_eq!(p.relay_source(relay), Some(LambdaId(0)));
        assert_eq!(p.stats.backup_rounds, 1);

        // λd announces itself: the connection flips to Maybe with the new
        // instance.
        p.on_lambda(
            LambdaId(0),
            Msg::HelloProxy {
                instance: InstanceId(9),
                source: LambdaId(0),
            },
        );
        let conn = p.member(LambdaId(0)).unwrap();
        assert_eq!(conn.instance(), Some(InstanceId(9)));
        assert_eq!(conn.liveness(), crate::conn::Liveness::Maybe);
    }

    #[test]
    fn delivery_failure_requeues_and_reinvokes() {
        let mut p = proxy(1, 1 << 30);
        put_chunks(&mut p, 1, "x", 1, 10);
        pong_all(&mut p, 1);
        // The instance died while a GET was being delivered.
        p.on_client(
            ClientId(0),
            Msg::GetObject {
                key: ObjectKey::new("x"),
                data_chunks: 1,
            },
        );
        let id = ChunkId::new(ObjectKey::new("x"), 0);
        let acts = p.on_delivery_failed(LambdaId(0), Msg::ChunkGet { id: id.clone() });
        assert!(matches!(acts[0], ProxyAction::Invoke { .. }));
        // New instance answers: the queued GET flushes.
        let acts = p.on_lambda(
            LambdaId(0),
            Msg::Pong {
                instance: InstanceId(2),
                stored_bytes: 0,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            ProxyAction::ToLambda {
                msg: Msg::ChunkGet { .. },
                ..
            }
        )));
    }

    #[test]
    fn connection_loss_resets_and_reinvokes_when_backlogged() {
        let mut p = proxy(2, 1 << 30);
        put_chunks(&mut p, 1, "o", 2, 50);
        pong_all(&mut p, 1);
        // Idle connection drop: state resets, nothing re-invoked.
        assert!(p.on_connection_lost(LambdaId(0)).is_empty());
        assert_eq!(p.member(LambdaId(0)).unwrap().instance(), None);
        // A GET queues toward the (now sleeping) node: its send invokes.
        let acts = p.on_client(
            ClientId(0),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 1,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            ProxyAction::Invoke {
                lambda: LambdaId(0),
                ..
            }
        )));
        // The connection drops again while the invoke is pending: the
        // queued GET forces another invoke on reset.
        let acts = p.on_connection_lost(LambdaId(0));
        assert!(matches!(
            acts[0],
            ProxyAction::Invoke {
                lambda: LambdaId(0),
                ..
            }
        ));
        assert_eq!(p.stats.delivery_failures, 2);
    }

    #[test]
    fn eviction_drains_inflight_gets_with_chunk_miss() {
        // Regression: evicting an object used to leave its in-flight GET
        // waiters dangling in `inflight_gets` forever.
        let mut p = proxy(4, 800);
        put_chunks(&mut p, 1, "a", 4, 100);
        // Client 5's GET is accepted; its chunk requests queue toward the
        // (still cold) nodes, so the waiters sit in `inflight_gets`.
        p.on_client(
            ClientId(5),
            Msg::GetObject {
                key: ObjectKey::new("a"),
                data_chunks: 3,
            },
        );
        assert_eq!(p.inflight_total(), 4);
        // A full-capacity incoming object must evict both "b" (first
        // unreferenced victim) and "a" (second sweep clears its ref bit).
        put_chunks(&mut p, 2, "b", 4, 100);
        let acts = put_chunks(&mut p, 3, "c", 4, 200);
        assert!(!p.contains_object(&ObjectKey::new("a")));
        let misses = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ProxyAction::ToClient {
                        client: ClientId(5),
                        msg: Msg::ChunkMiss { .. }
                    }
                )
            })
            .count();
        assert_eq!(misses, 4, "every waiter must be told the chunks are gone");
        assert_eq!(p.inflight_total(), 0);
        assert!(
            p.check_invariants().is_empty(),
            "{:?}",
            p.check_invariants()
        );
    }

    #[test]
    fn eviction_aborts_incomplete_put_and_notifies_writer() {
        // Regression: capacity-evicting a key whose PUT had not finished
        // silently dropped the `puts` entry; the writer waited forever.
        let mut p = proxy(4, 800);
        put_chunks_as(&mut p, ClientId(0), 1, "a", 4, 100); // no acks: PUT open
        put_chunks_as(&mut p, ClientId(1), 1, "b", 4, 100);
        let acts = put_chunks_as(&mut p, ClientId(1), 2, "c", 4, 100); // evicts "a"
        assert!(
            acts.iter().any(|a| matches!(
                a,
                ProxyAction::ToClient {
                    client: ClientId(0),
                    msg: Msg::PutFailed { put_epoch: 1, .. }
                }
            )),
            "the stranded writer must learn its PUT died"
        );
        assert_eq!(p.open_puts(), 2, "only b's and c's PUTs stay open");
        assert!(
            p.check_invariants().is_empty(),
            "{:?}",
            p.check_invariants()
        );
    }

    #[test]
    fn overwrite_aborts_previous_writers_put() {
        let mut p = proxy(4, 1 << 30);
        put_chunks_as(&mut p, ClientId(0), 7, "k", 4, 100); // open PUT by client 0
        let acts = put_chunks_as(&mut p, ClientId(1), 3, "k", 4, 200);
        assert!(acts.iter().any(|a| matches!(
            a,
            ProxyAction::ToClient {
                client: ClientId(0),
                msg: Msg::PutFailed { put_epoch: 7, .. }
            }
        )));
        // The overwriting PUT proceeds normally.
        pong_all(&mut p, 1);
        let mut done = Vec::new();
        for seq in 0..4u32 {
            done = p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("k"), seq),
                    stored_bytes: 200,
                    epoch: 2,
                },
            );
        }
        assert!(matches!(
            &done[0],
            ProxyAction::ToClient {
                client: ClientId(1),
                msg: Msg::PutDone { put_epoch: 3, .. }
            }
        ));
        assert_eq!(p.used_bytes(), 800);
    }

    #[test]
    fn stale_acks_do_not_complete_an_overwrite_put() {
        // Regression: an overwrite PUT racing the previous version's
        // in-flight acks used to count those stale acks and signal
        // PutDone before the new chunks were stored.
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 1, "k", 4, 100);
        pong_all(&mut p, 1); // ChunkPuts (epoch 1) now in flight
                             // Overwrite before any ack lands.
        put_chunks(&mut p, 2, "k", 4, 200);
        // The old version's acks arrive: they must not advance the new PUT.
        let mut out = Vec::new();
        for seq in 0..4u32 {
            out = p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("k"), seq),
                    stored_bytes: 100,
                    epoch: 1,
                },
            );
        }
        assert!(
            out.is_empty(),
            "stale acks must not produce PutDone: {out:?}"
        );
        assert_eq!(p.open_puts(), 1);
        // The new version's own acks complete it.
        for seq in 0..4u32 {
            out = p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("k"), seq),
                    stored_bytes: 200,
                    epoch: 2,
                },
            );
        }
        assert!(matches!(
            &out[0],
            ProxyAction::ToClient {
                msg: Msg::PutDone { put_epoch: 2, .. },
                ..
            }
        ));
        assert_eq!(p.open_puts(), 0);
    }

    #[test]
    fn late_chunks_of_an_aborted_put_are_swallowed() {
        let mut p = proxy(4, 1 << 30);
        let key = ObjectKey::new("k");
        // Client 0 gets only half its stripe to the proxy...
        for seq in 0..2u32 {
            p.on_client(
                ClientId(0),
                Msg::PutChunk {
                    id: ChunkId::new(key.clone(), seq),
                    lambda: LambdaId(seq % 4),
                    payload: Payload::synthetic(100),
                    object_size: 400,
                    total_chunks: 4,
                    repair: false,
                    put_epoch: 1,
                },
            );
        }
        // ...before client 1 overwrites the key.
        put_chunks_as(&mut p, ClientId(1), 1, "k", 4, 200);
        assert_eq!(p.aborted_put_tombstones(), 1);
        // Client 0's late chunks arrive: swallowed, not stored.
        for seq in 2..4u32 {
            let acts = p.on_client(
                ClientId(0),
                Msg::PutChunk {
                    id: ChunkId::new(key.clone(), seq),
                    lambda: LambdaId(seq % 4),
                    payload: Payload::synthetic(100),
                    object_size: 400,
                    total_chunks: 4,
                    repair: false,
                    put_epoch: 1,
                },
            );
            assert!(acts.is_empty(), "late chunks must be dropped: {acts:?}");
        }
        assert_eq!(p.aborted_put_tombstones(), 0, "tombstone must self-clean");
        assert_eq!(p.used_bytes(), 800, "only client 1's version is accounted");
        assert!(
            p.check_invariants().is_empty(),
            "{:?}",
            p.check_invariants()
        );
    }

    #[test]
    fn reordered_older_put_chunks_cannot_resurrect_stale_data() {
        // Two overlapping PUTs of the same key by one client can reach
        // the proxy newest-first (a smaller object has a shorter encode
        // delay). The older stripe must be swallowed, not treated as an
        // overwrite that evicts the newer version.
        let mut p = proxy(4, 1 << 30);
        put_chunks(&mut p, 2, "k", 4, 100); // newer PUT lands first
        let acts = put_chunks(&mut p, 1, "k", 4, 300); // older stripe, late
        assert!(acts.is_empty(), "stale stripe must be swallowed: {acts:?}");
        assert_eq!(p.stats.overwrites, 0);
        assert_eq!(p.used_bytes(), 400, "the newer version stays stored");
        assert_eq!(p.open_puts(), 1, "the newer PUT stays open");
        assert_eq!(
            p.aborted_put_tombstones(),
            0,
            "tombstone drains with the stripe"
        );
        // The newer PUT still completes normally.
        pong_all(&mut p, 1);
        let mut out = Vec::new();
        for seq in 0..4u32 {
            out = p.on_lambda(
                LambdaId(seq % 4),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new("k"), seq),
                    stored_bytes: 100,
                    epoch: 1,
                },
            );
        }
        assert!(matches!(
            &out[0],
            ProxyAction::ToClient {
                msg: Msg::PutDone { put_epoch: 2, .. },
                ..
            }
        ));
        assert!(
            p.check_invariants().is_empty(),
            "{:?}",
            p.check_invariants()
        );
    }

    #[test]
    fn get_during_incomplete_put_misses_unmapped_chunks() {
        let mut p = proxy(4, 1 << 30);
        // Only chunk 0 of 4 has been put.
        p.on_client(
            ClientId(0),
            Msg::PutChunk {
                id: ChunkId::new(ObjectKey::new("partial"), 0),
                lambda: LambdaId(0),
                payload: Payload::synthetic(10),
                object_size: 40,
                total_chunks: 4,
                repair: false,
                put_epoch: 1,
            },
        );
        let acts = p.on_client(
            ClientId(1),
            Msg::GetObject {
                key: ObjectKey::new("partial"),
                data_chunks: 3,
            },
        );
        let misses = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ProxyAction::ToClient {
                        msg: Msg::ChunkMiss { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(misses, 3);
    }

    /// Puts `key` as `chunks` chunks with an explicit placement function,
    /// then acks every chunk so the PUT completes.
    fn put_placed(
        p: &mut Proxy,
        put_epoch: u64,
        proxy_epoch: u64,
        key: &str,
        chunks: u32,
        place: impl Fn(u32) -> LambdaId,
    ) {
        for seq in 0..chunks {
            p.on_client(
                ClientId(0),
                Msg::PutChunk {
                    id: ChunkId::new(ObjectKey::new(key), seq),
                    lambda: place(seq),
                    payload: Payload::synthetic(64),
                    object_size: 64 * chunks as u64,
                    total_chunks: chunks,
                    repair: false,
                    put_epoch,
                },
            );
        }
        for seq in 0..chunks {
            p.on_lambda(
                place(seq),
                Msg::PutAck {
                    id: ChunkId::new(ObjectKey::new(key), seq),
                    stored_bytes: 0,
                    epoch: proxy_epoch,
                },
            );
        }
    }

    /// The stale-straggler regression behind the netbench scale sweep's
    /// spurious "0 of d chunks available" failures: a GET resolves at the
    /// parity threshold, its straggler `ChunkGet`s still queued at
    /// sleeping nodes; an overwrite then deletes the old chunks and
    /// re-places them elsewhere; the stragglers finally run, observe the
    /// deleted copies, and their `ChunkMiss`/`ChunkData` answers arrive
    /// after a *new* GET registered waiters under the same chunk ids.
    /// Those stale answers must neither unmap the freshly placed chunks
    /// nor be credited to the new GET's waiters.
    #[test]
    fn stale_answers_from_a_superseded_placement_are_dropped_and_requeried() {
        let mut p = proxy(4, 1 << 30);
        let chunk = |seq| ChunkId::new(ObjectKey::new("obj"), seq);

        // Version 1 on nodes 0,1; version 2 re-places swapped (1,0).
        put_placed(&mut p, 1, 1, "obj", 2, LambdaId);
        pong_all(&mut p, 10);
        put_placed(&mut p, 2, 2, "obj", 2, |seq| LambdaId(1 - seq));
        assert_eq!(p.chunk_owner(&chunk(0)), Some(LambdaId(1)));

        // A new GET registers waiters for the current version (both
        // chunks: a 2+0 stripe has no parity to hold back).
        p.on_client(
            ClientId(7),
            Msg::GetObject {
                key: ObjectKey::new("obj"),
                data_chunks: 2,
            },
        );
        assert_eq!(p.inflight_for(&chunk(0)), 1);

        // The version-1 stragglers answer from the *old* homes: a miss
        // for chunk 0 (its copy was deleted) and data for chunk 1 (read
        // just ahead of the delete). Neither may touch the waiters or
        // the mapping.
        let acts = p.on_lambda(LambdaId(0), Msg::ChunkMiss { id: chunk(0) });
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, ProxyAction::ToClient { .. })),
            "stale miss leaked to a client: {acts:?}"
        );
        let acts = p.on_lambda(
            LambdaId(1),
            Msg::ChunkData {
                id: chunk(1),
                payload: Payload::synthetic(64),
            },
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, ProxyAction::DataToClient { .. })),
            "stale data leaked to a client: {acts:?}"
        );
        assert_eq!(p.chunk_owner(&chunk(0)), Some(LambdaId(1)));
        assert_eq!(p.chunk_owner(&chunk(1)), Some(LambdaId(0)));
        assert_eq!(p.stats.stale_chunk_answers, 2);
        assert_eq!(p.inflight_for(&chunk(0)), 1);

        // The re-queried current home answers and the waiter is served.
        let acts = p.on_lambda(
            LambdaId(1),
            Msg::ChunkData {
                id: chunk(0),
                payload: Payload::synthetic(64),
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            ProxyAction::DataToClient {
                client: ClientId(7),
                msg: Msg::ChunkToClient { .. },
            }
        )));
    }

    /// Same-node variant: lazy deletions flush ahead of queued traffic,
    /// so when an overwrite re-places a chunk on the *same* node, a
    /// straggler `ChunkGet` can overtake the re-placing `ChunkPut` and
    /// observe the delete/store gap. Its miss arrives from the chunk's
    /// own mapped home while the overwrite PUT is still open — and must
    /// not unmap the chunk that is about to land.
    #[test]
    fn reordered_miss_during_open_put_does_not_unmap() {
        let mut p = proxy(4, 1 << 30);
        let chunk = ChunkId::new(ObjectKey::new("obj"), 0);

        put_placed(&mut p, 1, 1, "obj", 1, LambdaId);
        pong_all(&mut p, 10);
        // Overwrite onto the same node; the PUT stays open (no ack yet).
        p.on_client(
            ClientId(0),
            Msg::PutChunk {
                id: chunk.clone(),
                lambda: LambdaId(0),
                payload: Payload::synthetic(64),
                object_size: 64,
                total_chunks: 1,
                repair: false,
                put_epoch: 2,
            },
        );

        let acts = p.on_lambda(LambdaId(0), Msg::ChunkMiss { id: chunk.clone() });
        assert!(acts.is_empty(), "reordered miss produced actions: {acts:?}");
        assert_eq!(p.chunk_owner(&chunk), Some(LambdaId(0)));
        assert_eq!(p.stats.stale_chunk_answers, 1);

        // Once the PUT lands, a genuine miss (node reclaim) still unmaps.
        p.on_lambda(
            LambdaId(0),
            Msg::PutAck {
                id: chunk.clone(),
                stored_bytes: 0,
                epoch: 2,
            },
        );
        p.on_lambda(LambdaId(0), Msg::ChunkMiss { id: chunk.clone() });
        assert_eq!(p.chunk_owner(&chunk), None);
    }

    // ------------------------------------------------------------------
    // Data-first reads
    // ------------------------------------------------------------------

    /// A `d + p`-node pool with every connection `Active` and one object
    /// `"o"` stored with chunk `seq` on node `seq`.
    fn healthy(d: u32, p: u32) -> Proxy {
        let mut px = proxy(d + p, 1 << 30);
        px.on_warmup_tick();
        pong_all(&mut px, 100);
        put_placed(&mut px, 1, 1, "o", d + p, LambdaId);
        px
    }

    fn get(px: &mut Proxy, client: u16, data_chunks: u32) -> Vec<ProxyAction> {
        px.on_client(
            ClientId(client),
            Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks,
            },
        )
    }

    fn o(seq: u32) -> ChunkId {
        ChunkId::new(ObjectKey::new("o"), seq)
    }

    /// Shard indices of the `ChunkGet`s a batch sends to nodes.
    fn queried(acts: &[ProxyAction]) -> Vec<u32> {
        acts.iter()
            .filter_map(|a| match a {
                ProxyAction::ToLambda {
                    msg: Msg::ChunkGet { id },
                    ..
                } => Some(id.seq),
                _ => None,
            })
            .collect()
    }

    fn requested(acts: &[ProxyAction]) -> u32 {
        match &acts[0] {
            ProxyAction::ToClient {
                msg: Msg::GetAccepted { requested, .. },
                ..
            } => *requested,
            other => panic!("expected GetAccepted, got {other:?}"),
        }
    }

    fn data(px: &mut Proxy, seq: u32) -> Vec<ProxyAction> {
        px.on_lambda(
            LambdaId(seq),
            Msg::ChunkData {
                id: o(seq),
                payload: Payload::synthetic(64),
            },
        )
    }

    fn assert_nothing_held(px: &Proxy) {
        assert_eq!(px.held_parity_total(), 0);
        assert!(!px.holds_parity_for(ClientId(7)));
        assert_eq!(px.check_invariants(), Vec::<String>::new());
    }

    #[test]
    fn a_healthy_stripe_is_asked_for_its_data_chunks_only() {
        for (d, p) in [(4, 2), (1, 1), (2, 2), (10, 2)] {
            let mut px = healthy(d, p);
            let acts = get(&mut px, 7, d);
            assert_eq!(requested(&acts), d);
            assert_eq!(queried(&acts), (0..d).collect::<Vec<_>>(), "{d}+{p}");
            assert_eq!(px.held_parity_total(), 1);
            assert_eq!(px.check_invariants(), Vec::<String>::new());
            // The last data answer retires the held parity unasked.
            for seq in 0..d {
                assert_eq!(px.held_parity_total(), 1);
                assert!(px.holds_parity_for(ClientId(7)));
                assert!(!px.holds_parity_for(ClientId(8)));
                let acts = data(&mut px, seq);
                assert!(queried(&acts).is_empty());
                assert_eq!(acts.len(), 1, "one ChunkToClient");
            }
            assert_nothing_held(&px);
            assert_eq!(px.inflight_total(), 0);
            assert_eq!(px.stats.data_first_gets, 1);
            assert_eq!(px.stats.parity_releases_admission, 0);
        }
    }

    /// `data_chunks` is input, not a switch: a parity-less reader's count
    /// is the stripe size, and one that fits no stripe is clamped to it.
    #[test]
    fn a_data_count_that_leaves_no_parity_asks_for_the_whole_stripe() {
        for data_chunks in [6, 0, 9] {
            let mut px = healthy(4, 2);
            let acts = get(&mut px, 7, data_chunks);
            assert_eq!(requested(&acts), 6);
            assert_eq!(queried(&acts).len(), 6);
            assert_nothing_held(&px);
            assert_eq!(px.stats.data_first_gets, 0);
            assert_eq!(px.stats.parity_releases_admission, 0);
        }
    }

    #[test]
    fn one_unhealthy_home_at_admission_asks_for_the_whole_stripe() {
        // Sleeping — its instance returned, or was reclaimed while running
        // and took the connection with it — on a data and on a parity home.
        for (reclaimed, home) in [(false, 1), (false, 5), (true, 1), (true, 5)] {
            let mut px = healthy(4, 2);
            if reclaimed {
                assert!(px.on_connection_lost(LambdaId(home)).is_empty());
            } else {
                let instance = InstanceId(100 + home as u64);
                px.on_lambda(LambdaId(home), Msg::Bye { instance });
            }
            let acts = get(&mut px, 7, 4);
            assert_eq!(requested(&acts), 6);
            // Five go out now; the sixth waits behind the invoke.
            assert_eq!(queried(&acts).len(), 5);
            assert!(acts.iter().any(
                |a| matches!(a, ProxyAction::Invoke { lambda, .. } if *lambda == LambdaId(home))
            ));
            assert_eq!(px.member(LambdaId(home)).unwrap().queued(), 1);
            assert_nothing_held(&px);
            assert_eq!(px.stats.parity_releases_admission, 1);
        }
        // Maybe (connection replaced by a backup destination).
        let mut px = healthy(4, 2);
        px.on_lambda(
            LambdaId(2),
            Msg::HelloProxy {
                instance: InstanceId(900),
                source: LambdaId(2),
            },
        );
        let acts = get(&mut px, 7, 4);
        assert_eq!((requested(&acts), queried(&acts).len()), (6, 6));
        assert_nothing_held(&px);
        // Unmapped (a reclaim already reported by its home).
        let mut px = healthy(4, 2);
        px.on_lambda(LambdaId(4), Msg::ChunkMiss { id: o(4) });
        assert_eq!(px.chunk_owner(&o(4)), None);
        let acts = get(&mut px, 7, 4);
        assert_eq!((requested(&acts), queried(&acts).len()), (6, 5));
        assert!(acts.iter().any(|a| matches!(
            a,
            ProxyAction::ToClient { msg: Msg::ChunkMiss { id }, .. } if *id == o(4)
        )));
        assert_nothing_held(&px);
        assert_eq!(px.stats.data_first_gets, 0);
    }

    #[test]
    fn a_data_chunk_miss_releases_the_parity_requests_once() {
        let mut px = healthy(4, 2);
        get(&mut px, 7, 4);
        let acts = px.on_lambda(LambdaId(1), Msg::ChunkMiss { id: o(1) });
        assert!(matches!(
            &acts[0],
            ProxyAction::ToClient { client: ClientId(7), msg: Msg::ChunkMiss { id } } if *id == o(1)
        ));
        assert_eq!(queried(&acts), [4, 5]);
        assert_eq!(px.stats.parity_releases_miss, 1);
        assert_nothing_held(&px);
        // A second piece of evidence has nothing left to release.
        let acts = px.on_lambda(LambdaId(2), Msg::ChunkMiss { id: o(2) });
        assert!(queried(&acts).is_empty());
        assert!(
            queried(&px.on_delivery_failed(LambdaId(0), Msg::ChunkGet { id: o(0) })).is_empty()
        );
        assert_eq!(px.stats.parity_releases_miss, 1);
        assert_eq!(px.stats.parity_releases_bounce, 0);
    }

    #[test]
    fn a_bounced_data_query_releases_the_parity_requests_once() {
        let mut px = healthy(4, 2);
        get(&mut px, 7, 4);
        let acts = px.on_delivery_failed(LambdaId(3), Msg::ChunkGet { id: o(3) });
        assert_eq!(queried(&acts), [4, 5]);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProxyAction::Invoke { lambda, .. } if *lambda == LambdaId(3))));
        assert_eq!(px.stats.parity_releases_bounce, 1);
        assert_nothing_held(&px);
        // The released queries bouncing in turn release nothing more.
        let acts = px.on_delivery_failed(LambdaId(4), Msg::ChunkGet { id: o(4) });
        assert!(queried(&acts).is_empty());
        assert!(queried(&px.on_connection_lost(LambdaId(0))).is_empty());
        assert_eq!(px.stats.parity_releases_bounce, 1);
    }

    #[test]
    fn losing_a_data_homes_connection_releases_the_parity_requests_once() {
        let mut px = healthy(4, 2);
        get(&mut px, 7, 4);
        get(&mut px, 8, 4);
        // A parity home's loss is no evidence about the data.
        assert!(queried(&px.on_connection_lost(LambdaId(5))).is_empty());
        assert_eq!(px.held_parity_total(), 2);
        // Chunk 0 already answered: its home's loss strands nobody.
        data(&mut px, 0);
        assert!(queried(&px.on_connection_lost(LambdaId(0))).is_empty());
        assert_eq!(px.held_parity_total(), 2);
        // Chunk 2 is still out: both GETs get their parity asked for —
        // chunk 4 directly, chunk 5 in one query behind its (now
        // sleeping) home's invoke.
        let acts = px.on_connection_lost(LambdaId(2));
        assert_eq!(queried(&acts), [4, 4]);
        assert_eq!(px.member(LambdaId(5)).unwrap().queued(), 1);
        assert_eq!(px.inflight_for(&o(4)), 2);
        assert_eq!(px.inflight_for(&o(5)), 2);
        assert_eq!(px.stats.parity_releases_bounce, 2);
        assert_nothing_held(&px);
        assert!(queried(&px.on_connection_lost(LambdaId(1))).is_empty());
    }

    #[test]
    fn held_parity_never_outlives_its_reason() {
        for (d, p) in [(4, 2), (1, 1), (2, 2)] {
            // Eviction: the waiter is told every chunk is gone, parity too.
            let mut px = healthy(d, p);
            px.cfg.capacity_bytes = 64 * (d + p) as u64;
            get(&mut px, 7, d);
            let acts = put_chunks_as(&mut px, ClientId(0), 2, "other", d + p, 64);
            assert!(!px.contains_object(&ObjectKey::new("o")));
            let misses = acts
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        ProxyAction::ToClient {
                            client: ClientId(7),
                            msg: Msg::ChunkMiss { .. }
                        }
                    )
                })
                .count() as u32;
            assert_eq!(misses, d + p, "{d}+{p}");
            assert!(queried(&acts).is_empty(), "nothing left to query");
            assert_nothing_held(&px);

            // Overwrite: same, through the invalidation path.
            let mut px = healthy(d, p);
            get(&mut px, 7, d);
            put_chunks_as(&mut px, ClientId(0), 2, "o", d + p, 64);
            assert_nothing_held(&px);
            assert_eq!(px.inflight_total(), 0);

            // The reader hangs up mid-GET.
            let mut px = healthy(d, p);
            get(&mut px, 7, d);
            get(&mut px, 8, d);
            px.on_client_disconnected(ClientId(7));
            assert_eq!(px.held_parity_total(), 1, "client 8 still reads");
            assert!(!px.holds_parity_for(ClientId(7)));
            assert!(px.holds_parity_for(ClientId(8)));
            assert_eq!(px.check_invariants(), Vec::<String>::new());
            px.on_client_disconnected(ClientId(8));
            assert_eq!(px.held_parity_total(), 0);
            assert!(!px.holds_parity_for(ClientId(8)));

            // A re-issued GET takes over what its predecessor held.
            let mut px = healthy(d, p);
            get(&mut px, 7, d);
            data(&mut px, 0);
            get(&mut px, 7, d);
            assert_eq!(px.held_parity_total(), 1);
            assert_eq!(
                px.inflight_total(),
                d as usize,
                "a client waits once per chunk"
            );
            assert_eq!(px.check_invariants(), Vec::<String>::new());
        }
    }

    #[test]
    fn the_auditor_rejects_held_parity_nobody_waits_behind() {
        let mut px = healthy(4, 2);
        get(&mut px, 7, 4);
        // Corrupt the state: the waiters vanish, the held entry stays.
        px.inflight_gets.clear();
        let violations = px.check_invariants();
        assert!(
            violations.iter().any(|v| v.contains("never released")),
            "{violations:?}"
        );
    }

    /// The per-client count is derived from the entries, and audited
    /// against them: a count that drifts would hold a client's answers
    /// back forever, or not at all.
    #[test]
    fn the_auditor_recounts_the_per_client_holds() {
        let mut px = healthy(4, 2);
        get(&mut px, 7, 4);
        get(&mut px, 8, 4);
        assert_eq!(px.check_invariants(), Vec::<String>::new());
        px.held_parity.forget(ClientId(8));
        assert!(!px.holds_parity_for(ClientId(8)));
        let violations = px.check_invariants();
        assert!(
            violations.iter().any(|v| v.contains("do not recount")),
            "{violations:?}"
        );
    }

    /// Requests to a node that never comes back must not pile up: every
    /// GET used to leave another `ChunkGet` in the dead node's queue and
    /// another copy of its client among the chunk's waiters.
    #[test]
    fn reissued_gets_against_a_lost_connection_stay_bounded() {
        let mut px = healthy(4, 2);
        px.on_connection_lost(LambdaId(1));
        px.on_connection_lost(LambdaId(4));
        get(&mut px, 7, 4);
        for seq in [0, 2, 3, 5] {
            data(&mut px, seq);
        }
        let (queued, waiting) = (
            px.member(LambdaId(1)).unwrap().queued() + px.member(LambdaId(4)).unwrap().queued(),
            px.inflight_total(),
        );
        assert_eq!((queued, waiting), (2, 2));
        for _ in 0..1_000 {
            let acts = get(&mut px, 7, 4);
            assert_eq!(queried(&acts), [0, 2, 3, 5]);
            for seq in [0, 2, 3, 5] {
                data(&mut px, seq);
            }
        }
        assert_eq!(px.member(LambdaId(1)).unwrap().queued(), 1);
        assert_eq!(px.member(LambdaId(4)).unwrap().queued(), 1);
        assert_eq!(px.inflight_total(), waiting);
        assert_eq!(px.stats.coalesced_chunk_gets, 2_000);
        // When a node does return, its one answer serves the one waiter.
        let flushed = px.on_lambda(
            LambdaId(1),
            Msg::Pong {
                instance: InstanceId(500),
                stored_bytes: 0,
            },
        );
        assert_eq!(queried(&flushed), [1]);
        assert_eq!(data(&mut px, 1).len(), 1);
    }
}
