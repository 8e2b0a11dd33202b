//! The loopback throughput benchmark: configurable client count, object
//! size, and op mix against a socket proxy, with latency percentiles.
//!
//! Driven by the `netbench` binary, which either sets up a loopback
//! cluster or targets an already-running proxy fleet (`--connect`).
//! Each client thread owns its own TCP connection *per proxy* and its
//! own key namespace, preloads its working set, then issues a seeded
//! GET/PUT mix ring-routed across the fleet, timing every blocking
//! operation end to end — encode, socket hops, proxy, node daemons,
//! decode. Every GET is verified against the key's deterministic
//! pattern.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_common::hash::hash_with_index;
use ic_common::{EcConfig, Error, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::client::NetClient;

/// Deterministic content for `key` at write-`version`: any process that
/// knows the key (and version) can regenerate and verify the bytes, so
/// `ic-cli put` in one process and `ic-cli get --verify` in another can
/// check byte-identity without shared state.
pub fn pattern_bytes(key: &str, version: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    let mut i = 0u64;
    while out.len() < len {
        let word = hash_with_index(key, version ^ (i.wrapping_mul(0x9e37_79b9))).to_le_bytes();
        let take = word.len().min(len - out.len());
        out.extend_from_slice(&word[..take]);
        i += 1;
    }
    Bytes::from(out)
}

/// Benchmark shape.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Concurrent client connections (one thread each).
    pub clients: usize,
    /// Measured operations per client (preload is extra).
    pub ops_per_client: usize,
    /// Object size in bytes.
    pub object_bytes: usize,
    /// Fraction of measured ops that are GETs (the rest are overwrite
    /// PUTs).
    pub get_fraction: f64,
    /// Keys per client namespace.
    pub key_space: usize,
    /// Client-side erasure code.
    pub ec: EcConfig,
    /// Seed for the op mix.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            clients: 4,
            ops_per_client: 200,
            object_bytes: 256 * 1024,
            get_fraction: 0.7,
            key_space: 16,
            ec: EcConfig::new(4, 2).expect("valid code"),
            seed: 42,
        }
    }
}

/// Latency summary of one op kind, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Operations measured.
    pub count: usize,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
}

impl LatencySummary {
    fn from_sorted(lat: &[u64]) -> LatencySummary {
        if lat.is_empty() {
            return LatencySummary::default();
        }
        let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p).round() as usize];
        LatencySummary {
            count: lat.len(),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
        }
    }
}

/// Aggregated benchmark result.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// GET latency summary.
    pub gets: LatencySummary,
    /// PUT latency summary.
    pub puts: LatencySummary,
    /// Application bytes moved (object sizes, not wire overhead).
    pub bytes_moved: u64,
    /// GETs whose payload failed pattern verification (must be zero).
    pub verify_failures: u64,
}

impl BenchReport {
    /// Total measured operations.
    pub fn total_ops(&self) -> usize {
        self.gets.count + self.puts.count
    }

    /// Overall operation rate.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Application throughput in MiB/s.
    pub fn throughput_mib_s(&self) -> f64 {
        self.bytes_moved as f64 / (1024.0 * 1024.0) / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs the benchmark against the proxy fleet at `addrs` (one client
/// port per proxy, in `ProxyId` order; a single-element slice is the
/// classic one-proxy run). Each worker connects to the whole fleet and
/// ring-routes its keys across it.
///
/// # Errors
///
/// [`Error::Transport`] when a client cannot connect or an operation
/// fails mid-run.
pub fn run(addrs: &[SocketAddr], cfg: &BenchConfig) -> Result<BenchReport> {
    // Workers connect and preload before the barrier; the measured phase
    // (and the wall clock) starts only once every worker is ready, so
    // setup cost never dilutes the reported throughput.
    let ready = Arc::new(Barrier::new(cfg.clients + 1));
    let addrs: Arc<Vec<SocketAddr>> = Arc::new(addrs.to_vec());
    let threads: Vec<_> = (0..cfg.clients)
        .map(|t| {
            let cfg = cfg.clone();
            let ready = ready.clone();
            let addrs = addrs.clone();
            std::thread::Builder::new()
                .name(format!("netbench-client-{t}"))
                .spawn(move || client_worker(&addrs, t, &cfg, &ready))
                .map_err(|e| Error::Transport(e.to_string()))
        })
        .collect::<Result<_>>()?;
    ready.wait();
    let start = Instant::now();
    let mut gets = Vec::new();
    let mut puts = Vec::new();
    let mut bytes_moved = 0u64;
    let mut verify_failures = 0u64;
    for t in threads {
        let worker = t
            .join()
            .map_err(|_| Error::Transport("bench worker panicked".into()))??;
        gets.extend(worker.get_lat);
        puts.extend(worker.put_lat);
        bytes_moved += worker.bytes_moved;
        verify_failures += worker.verify_failures;
    }
    let wall = start.elapsed();
    gets.sort_unstable();
    puts.sort_unstable();
    Ok(BenchReport {
        wall,
        gets: LatencySummary::from_sorted(&gets),
        puts: LatencySummary::from_sorted(&puts),
        bytes_moved,
        verify_failures,
    })
}

/// Derives one point of the connection-scaling sweep from the base
/// config: per-client op count and key space shrink as the client count
/// grows, so every point finishes in comparable wall time and stores a
/// comparable byte volume — the sweep measures *connection* scaling, not
/// ever-larger workloads.
pub fn scaled_for_clients(base: &BenchConfig, clients: usize) -> BenchConfig {
    let scale = |v: usize, floor: usize| {
        ((v * base.clients) / clients.max(1)).clamp(floor.min(v), v.max(1))
    };
    BenchConfig {
        clients,
        ops_per_client: scale(base.ops_per_client, 4),
        key_space: scale(base.key_space, 2),
        ..base.clone()
    }
}

/// Counts this process's proxy substrate threads (names starting with
/// `ic-proxy`, i.e. each running proxy's one event-loop thread) by
/// reading `/proc/self/task/*/comm`. `None` off Linux or when procfs is
/// unavailable. Used by the connection-scaling sweep to demonstrate the
/// event-loop property: one thread per proxy while connections grow
/// into the thousands.
pub fn proxy_thread_count() -> Option<usize> {
    threads_named("ic-proxy")
}

/// Counts this process's node-daemon threads (names starting with
/// `ic-node`, i.e. each running daemon loop, however many node ids it
/// hosts) the same way as [`proxy_thread_count`]: a loopback cluster
/// runs one per proxy.
pub fn node_thread_count() -> Option<usize> {
    threads_named("ic-node")
}

fn threads_named(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            count += 1;
        }
    }
    Some(count)
}

/// Explains a pattern mismatch on stderr: which byte ranges diverge,
/// and whether they match an older write version of the key —
/// separating stale-read bugs from codec bugs.
fn diagnose_verify_failure(key: &str, got: &Bytes, version: u64, len: usize) {
    let expect = pattern_bytes(key, version, len);
    if got.len() != expect.len() {
        eprintln!(
            "VERIFY {key}@v{version}: length {} != expected {}",
            got.len(),
            expect.len()
        );
        return;
    }
    let mut ranges = Vec::new();
    let mut start = None;
    for i in 0..len {
        match (got[i] == expect[i], start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                ranges.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        ranges.push((s, len));
    }
    let total_bad: usize = ranges.iter().map(|(s, e)| e - s).sum();
    eprint!(
        "VERIFY {key}@v{version}: {total_bad}/{len} bytes differ in {} ranges {:?}",
        ranges.len(),
        ranges.iter().take(4).collect::<Vec<_>>()
    );
    for v in version.saturating_sub(3)..version {
        let old = pattern_bytes(key, v, len);
        if ranges.iter().all(|&(s, e)| got[s..e] == old[s..e]) {
            eprint!(" — bad ranges match stale v{v}");
            break;
        }
    }
    eprintln!();
}

struct WorkerResult {
    get_lat: Vec<u64>,
    put_lat: Vec<u64>,
    bytes_moved: u64,
    verify_failures: u64,
}

/// Connects a bench worker's client, riding out the transient connect
/// failures of a large fleet arriving at once (a full listen backlog
/// refuses connections until the accept loop catches up).
fn connect_retrying(addrs: &[SocketAddr], ec: EcConfig, seed: u64) -> Result<NetClient> {
    let mut last = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        match NetClient::connect_multi(addrs, ec, seed) {
            Ok(c) => return Ok(c),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

fn client_worker(
    addrs: &[SocketAddr],
    thread: usize,
    cfg: &BenchConfig,
    ready: &Barrier,
) -> Result<WorkerResult> {
    let client = connect_retrying(addrs, cfg.ec, cfg.seed ^ ((thread as u64) << 8));
    if client.is_err() {
        // Release the coordinator and the other workers before erroring.
        ready.wait();
    }
    let mut client = client?;
    // Queueing delay grows linearly with the number of concurrent
    // clients sharing the host, so a fixed deadline that is generous at
    // 4 clients spuriously times out tail operations in the
    // thousand-connection sweep; scale it with the offered concurrency.
    let op_timeout = Duration::from_secs(30).max(Duration::from_millis(60) * cfg.clients as u32);
    client.set_op_timeout(op_timeout);
    let keys: Vec<String> = (0..cfg.key_space)
        .map(|k| format!("bench-c{thread}-k{k}"))
        .collect();
    let mut versions = vec![0u64; cfg.key_space];

    // Preload the namespace so the measured GETs all hit.
    for key in &keys {
        let preload = client.put(key, pattern_bytes(key, 0, cfg.object_bytes));
        if preload.is_err() {
            ready.wait();
            preload?;
        }
    }
    ready.wait();

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xbe4c_0000 ^ thread as u64);
    let mut res = WorkerResult {
        get_lat: Vec::with_capacity(cfg.ops_per_client),
        put_lat: Vec::new(),
        bytes_moved: 0,
        verify_failures: 0,
    };
    for _ in 0..cfg.ops_per_client {
        let k = rng.gen_range(0..cfg.key_space);
        let key = &keys[k];
        if rng.gen::<f64>() < cfg.get_fraction {
            let t0 = Instant::now();
            let got = client.get(key)?;
            res.get_lat.push(t0.elapsed().as_micros() as u64);
            match got {
                Some(b) => {
                    res.bytes_moved += b.len() as u64;
                    if b != pattern_bytes(key, versions[k], cfg.object_bytes) {
                        res.verify_failures += 1;
                        diagnose_verify_failure(key, &b, versions[k], cfg.object_bytes);
                    }
                }
                None => res.verify_failures += 1, // preloaded keys must hit
            }
        } else {
            versions[k] += 1;
            let data = pattern_bytes(key, versions[k], cfg.object_bytes);
            let t0 = Instant::now();
            client.put(key, data)?;
            res.put_lat.push(t0.elapsed().as_micros() as u64);
            res.bytes_moved += cfg.object_bytes as u64;
        }
    }
    Ok(res)
}

/// One-line human summary for stdout.
pub fn summary_line(report: &BenchReport) -> String {
    format!(
        "{} ops in {:.2} s: {:.0} ops/s, {:.1} MiB/s | GET p50 {} µs p99 {} µs | PUT p50 {} µs p99 {} µs",
        report.total_ops(),
        report.wall.as_secs_f64(),
        report.ops_per_sec(),
        report.throughput_mib_s(),
        report.gets.p50_us,
        report.gets.p99_us,
        report.puts.p50_us,
        report.puts.p99_us,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_key_dependent() {
        let a = pattern_bytes("k1", 0, 1000);
        assert_eq!(a, pattern_bytes("k1", 0, 1000));
        assert_ne!(a, pattern_bytes("k2", 0, 1000));
        assert_ne!(a, pattern_bytes("k1", 1, 1000));
        assert_eq!(pattern_bytes("k", 3, 13).len(), 13);
        assert_eq!(pattern_bytes("k", 3, 0).len(), 0);
    }

    #[test]
    fn latency_summary_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_sorted(&lat);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p99_us, 99);
        assert_eq!(LatencySummary::from_sorted(&[]).count, 0);
    }

    #[test]
    fn clients_sweep_scaling_keeps_points_comparable() {
        let base = BenchConfig::default(); // 4 clients × 200 ops × 16 keys
        let big = scaled_for_clients(&base, 1000);
        assert_eq!(big.clients, 1000);
        assert_eq!(big.ops_per_client, 4); // floored, not zeroed
        assert_eq!(big.key_space, 2);
        let same = scaled_for_clients(&base, base.clients);
        assert_eq!(same.ops_per_client, base.ops_per_client);
        assert_eq!(same.key_space, base.key_space);
        // Fewer clients than the base never inflate the per-client work.
        let small = scaled_for_clients(&base, 1);
        assert_eq!(small.ops_per_client, base.ops_per_client);
    }
}
