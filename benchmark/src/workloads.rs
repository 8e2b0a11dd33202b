//! The four workloads: their frozen parameters, and the seed-derived
//! operation sequences of the three socket workloads.
//!
//! Every socket workload is a *fixed op count* — `ops_per_second ×
//! --seconds`, with the per-second rates below frozen on the seed code —
//! so two commits measured with the same `--seconds` do identical work.
//! The rates are this box's closed-loop throughput with two clients;
//! they only steer how long a run takes, never what it reports.

use ic_common::hash::splitmix64;

/// Closed-loop client threads (= cores of the reference box); each owns
/// one `NetClient` and a disjoint slice of the key space.
pub const CLIENTS: usize = 2;

/// The measured phase is cut into this many equal rounds; rates and
/// percentiles are reported as the median of the per-round values.
pub const ROUNDS: usize = 5;

/// The unmeasured warm-up is this fraction of the measured op count.
const WARMUP_FRACTION: f64 = 0.10;

/// Warm-up ops each client runs ahead of `measured_ops` measured ones.
pub fn warmup_ops_per_client(measured_ops: usize) -> usize {
    ((measured_ops as f64 * WARMUP_FRACTION) as usize / CLIENTS).max(1)
}

/// A traced run (`--trace 1`) drives each socket phase with this
/// fraction of the untraced op count.
pub const TRACE_FRACTION: f64 = 0.20;

/// Frozen parameters of one socket workload.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Node daemons behind the single proxy.
    pub nodes: u32,
    /// Erasure code, data shards.
    pub ec_data: usize,
    /// Erasure code, parity shards.
    pub ec_parity: usize,
    /// Object size in bytes.
    pub object_bytes: usize,
    /// Preloaded keys, split evenly between the clients.
    pub keys: usize,
    /// GETs per hundred measured ops (the rest are overwrite PUTs).
    pub get_percent: u64,
    /// Nodes killed after preload, before warm-up (`LambdaId` 0..n).
    pub kill_nodes: u32,
    /// Measured ops per `--seconds` second (frozen; see module docs).
    pub ops_per_second: f64,
}

/// The paper's large-object regime: bytes dominate, and writes run
/// beside reads.
pub const LARGE_MIXED: NetSpec = NetSpec {
    name: "large_mixed",
    nodes: 14,
    ec_data: 10,
    ec_parity: 2,
    object_bytes: 1 << 20,
    keys: 64,
    get_percent: 50,
    kill_nodes: 0,
    ops_per_second: 540.0,
};

/// Smallest messages: per-message cost is everything, EC is nothing.
pub const SMALL_GET: NetSpec = NetSpec {
    name: "small_get",
    nodes: 8,
    ec_data: 4,
    ec_parity: 2,
    object_bytes: 4 << 10,
    keys: 256,
    get_percent: 100,
    kill_nodes: 0,
    ops_per_second: 5000.0,
};

/// Every stripe spans every node and `p` nodes are dead: each GET
/// finishes first-*d* from the survivors and most must reconstruct.
pub const DEGRADED_GET: NetSpec = NetSpec {
    name: "degraded_get",
    nodes: 6,
    ec_data: 4,
    ec_parity: 2,
    object_bytes: 256 << 10,
    keys: 64,
    get_percent: 100,
    kill_nodes: 2,
    ops_per_second: 2400.0,
};

/// Name of the simulator workload.
pub const SIM_TRACE: &str = "sim_trace";

/// Trace hours the simulator workload replays per `--seconds` second.
/// Replay cost is far from linear in trace time — the first 6-hourly
/// mass-reclaim spike (trace hour 4) costs as much wall time as the
/// seven quiet hours around it — so this only holds near the frozen
/// `run_seconds`; see the README.
pub const SIM_HOURS_PER_SECOND: f64 = 0.4;

/// The world seed of the simulator workload. `--seed` picks the *trace*;
/// the simulated platform's own randomness (which draws the severity of
/// the mass-reclaim spike, and with it ±10% of the replay's wall time)
/// stays fixed so that run-to-run spread measures the host, not the dice.
pub const SIM_WORLD_SEED: u64 = 2020;

/// The socket workload called `name`.
pub fn net_spec(name: &str) -> Option<NetSpec> {
    [LARGE_MIXED, SMALL_GET, DEGRADED_GET]
        .into_iter()
        .find(|s| s.name == name)
}

/// Every workload name, in the order `--aa` and `--smoke` run them.
pub const ALL: [&str; 4] = ["large_mixed", "small_get", "degraded_get", SIM_TRACE];

impl NetSpec {
    /// Measured ops of a run of `seconds`, rounded so every client gets
    /// the same whole number of ops in every round.
    pub fn measured_ops(&self, seconds: f64) -> usize {
        let unit = CLIENTS * ROUNDS;
        let ops = (self.ops_per_second * seconds).round() as usize;
        (ops / unit).max(1) * unit
    }
}

/// One operation of a client's sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the client's own key slice.
    pub key: u32,
    /// GET, or overwrite PUT.
    pub is_get: bool,
}

/// A counter-mode splitmix64 stream: tiny, seedable, and the same on
/// every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is
    /// below 2⁻⁵⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Ops per block of a sequence; every block holds exactly
/// `get_percent` GETs.
const BLOCK: usize = 100;

/// Client `client`'s sequence of `n` ops under `seed`: uniform keys over
/// its own slice; kinds are dealt in shuffled blocks of [`BLOCK`] with
/// exactly `get_percent` GETs each, so any round of a mixed workload
/// holds its share of GETs to within half a block — a Bernoulli draw
/// would leave one run in a hundred a few samples short of a supported
/// p99. A pure function of its arguments (and a prefix of any longer
/// sequence of the same client); the program under test only ever sees
/// the ops.
pub fn op_sequence(spec: &NetSpec, seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ splitmix64(0xc11e_0000 + client as u64));
    let keys = (spec.keys / CLIENTS) as u64;
    let mut ops = Vec::with_capacity(n + BLOCK);
    while ops.len() < n {
        let mut kinds: Vec<bool> = (0..BLOCK as u64).map(|i| i < spec.get_percent).collect();
        for i in (1..BLOCK).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        ops.extend(kinds.into_iter().map(|is_get| Op {
            key: rng.below(keys) as u32,
            is_get,
        }));
    }
    ops.truncate(n);
    ops
}

/// The key string of a client's `k`-th key. Key slices are disjoint, so
/// no client's PUT is ever aborted by the other client's overwrite.
pub fn key_name(client: usize, k: u32) -> String {
    format!("bench-c{client}-k{k}")
}

/// Order-sensitive hash of a sequence (determinism checks).
pub fn sequence_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(0x5eed, |h, op| {
        splitmix64(h ^ (u64::from(op.key) << 1 | u64::from(op.is_get)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_different() {
        let a = op_sequence(&LARGE_MIXED, 2020, 0, 5000);
        assert_eq!(a, op_sequence(&LARGE_MIXED, 2020, 0, 5000));
        assert_eq!(
            sequence_hash(&a),
            sequence_hash(&op_sequence(&LARGE_MIXED, 2020, 0, 5000))
        );
        assert_ne!(
            sequence_hash(&a),
            sequence_hash(&op_sequence(&LARGE_MIXED, 2021, 0, 5000))
        );
        // The two clients of one run draw different sequences too.
        assert_ne!(
            sequence_hash(&a),
            sequence_hash(&op_sequence(&LARGE_MIXED, 2020, 1, 5000))
        );
        // A longer run extends the shorter one (warm-up is a prefix-free
        // continuation, not a reshuffle).
        assert_eq!(a[..100], op_sequence(&LARGE_MIXED, 2020, 0, 100)[..]);
    }

    #[test]
    fn sequences_respect_the_spec() {
        let ops = op_sequence(&LARGE_MIXED, 7, 1, 20_000);
        assert!(ops
            .iter()
            .all(|o| (o.key as usize) < LARGE_MIXED.keys / CLIENTS));
        // Exactly half of every block of 100 are GETs, in a shuffled
        // order that differs from block to block.
        for block in ops.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|o| o.is_get).count(), 50);
        }
        assert_ne!(
            ops[..BLOCK].iter().map(|o| o.is_get).collect::<Vec<_>>(),
            ops[BLOCK..2 * BLOCK]
                .iter()
                .map(|o| o.is_get)
                .collect::<Vec<_>>()
        );
        assert!(op_sequence(&SMALL_GET, 7, 0, 1000).iter().all(|o| o.is_get));
    }

    #[test]
    fn op_counts_divide_evenly() {
        for spec in [LARGE_MIXED, SMALL_GET, DEGRADED_GET] {
            for seconds in [0.4, 4.0, 20.0] {
                let n = spec.measured_ops(seconds);
                assert_eq!(n % (CLIENTS * ROUNDS), 0);
                assert!(n >= CLIENTS * ROUNDS);
            }
        }
        assert_eq!(key_name(1, 5), "bench-c1-k5");
        assert!(net_spec("small_get").is_some() && net_spec("sim_trace").is_none());
    }
}
