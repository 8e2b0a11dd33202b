//! `netbench`: the loopback throughput benchmark.
//!
//! Spins up a complete socket cluster (proxies + node daemons on
//! loopback TCP inside this process), drives it with a configurable
//! GET/PUT mix and prints throughput and latency percentiles. Every GET
//! is verified against the key's deterministic pattern; any mismatch
//! makes the run exit nonzero.
//!
//! ```text
//! netbench [--clients N] [--ops N] [--size BYTES] [--get-frac F]
//!          [--keys N] [--ec d+p] [--nodes N] [--proxies N] [--seed N]
//!          [--connect ADDR]... [--object-bytes LIST]
//!          [--proxies-sweep LIST] [--clients-sweep LIST] [--ec-sweep LIST]
//! ```
//!
//! The headline run is preceded by a short unmeasured warmup pass so its
//! numbers reflect steady state rather than allocator/page-cache
//! first-touch costs.
//!
//! `--proxies N` starts an N-proxy fleet (each proxy owns its own pool
//! of `--nodes` daemons — node count scales with the fleet) and the
//! bench clients ring-route keys across it. `--connect ADDR` (repeatable,
//! in `--proxy-id` order) skips the in-process cluster and targets an
//! already running `ic-proxy` fleet instead.
//!
//! `--object-bytes 65536,262144,1048576,4194304` additionally runs an
//! object-size sweep (ops scaled down for larger objects so each point
//! moves a comparable byte volume) and prints one line per size.
//!
//! `--proxies-sweep 1,2,4` runs the same workload against fresh loopback
//! clusters of each proxy count (same per-proxy pool size) — the scaling
//! trajectory past the single-proxy event loop. It always measures
//! loopback clusters, so it refuses to combine with `--connect`.
//!
//! `--clients-sweep 4,64,256,1000` runs the connection-scaling curve:
//! the same cluster as the main run, re-driven at each client count
//! (per-client ops and keys scaled down so every point does comparable
//! work — see [`bench::scaled_for_clients`]). Each point prints the
//! proxy substrate's thread count alongside throughput, demonstrating
//! the readiness event loop's one-thread-per-proxy threading while
//! connections grow into the thousands.
//! Loopback runs also print a `wire` line: how many vectored write
//! syscalls the proxies issued and how many frames they coalesced into
//! them — and each proxy's protocol counters (GETs admitted data-first,
//! parity releases by cause, bounces) as its loop exits.
//!
//! `--ec-sweep 4+2,10+2,12+3` runs the same workload against a fresh
//! loopback cluster per erasure-code shape (node pools grown to fit the
//! stripe width) — end-to-end throughput as a function of the EC compute
//! the client does on every PUT and degraded GET. Like `--proxies-sweep`
//! it always measures loopback clusters, so it refuses to combine with
//! `--connect`.

use std::net::{SocketAddr, ToSocketAddrs};

use ic_common::{DeploymentConfig, Error, Result};
use ic_net::args::Args;
use ic_net::bench::{self, BenchConfig};
use ic_net::cluster::LoopbackCluster;

/// Parses a `--flag a,b,c` list of numbers.
fn num_list<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Vec<T>> {
    match args.opt(name) {
        None => Ok(Vec::new()),
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| Error::Config(format!("--{name}: bad value {s}")))
            })
            .collect(),
    }
}

/// Parses a `--flag 4+2,10+2` list of erasure codes.
fn ec_list(args: &Args, name: &str) -> Result<Vec<ic_common::EcConfig>> {
    match args.opt(name) {
        None => Ok(Vec::new()),
        Some(list) => list
            .split(',')
            .map(|v| {
                let v = v.trim();
                let (d, p) = v
                    .split_once('+')
                    .ok_or_else(|| Error::Config(format!("--{name} wants d+p entries, got {v}")))?;
                let d = d
                    .parse()
                    .map_err(|_| Error::Config(format!("bad data shard count {d}")))?;
                let p = p
                    .parse()
                    .map_err(|_| Error::Config(format!("bad parity shard count {p}")))?;
                ic_common::EcConfig::new(d, p)
            })
            .collect(),
    }
}

fn deployment(nodes: u32, proxies: u16, cfg: &BenchConfig) -> DeploymentConfig {
    DeploymentConfig {
        proxies,
        backup_enabled: false,
        ..DeploymentConfig::small(nodes, cfg.ec)
    }
}

fn run() -> Result<()> {
    let args = Args::parse();
    let cfg = BenchConfig {
        clients: args.num("clients", 4)?,
        ops_per_client: args.num("ops", 200)?,
        object_bytes: args.num("size", 256 * 1024)?,
        get_fraction: args.num("get-frac", 0.7)?,
        key_space: args.num("keys", 16)?,
        ec: args.ec("ec", ic_common::EcConfig::new(4, 2).expect("valid code"))?,
        seed: args.num("seed", 42)?,
    };
    let nodes: u32 = args.num("nodes", 10)?;
    let proxies: u16 = args.num("proxies", 1)?;
    let sweep_sizes: Vec<usize> = num_list(&args, "object-bytes")?;
    let proxy_shapes: Vec<u16> = num_list(&args, "proxies-sweep")?;
    let client_counts: Vec<usize> = num_list(&args, "clients-sweep")?;
    let ec_shapes = ec_list(&args, "ec-sweep")?;
    if !proxy_shapes.is_empty() && !args.all("connect").is_empty() {
        // The sweep starts a fresh loopback cluster per shape; mixing
        // those points into an external run would silently compare
        // different clusters.
        return Err(Error::Config(
            "--proxies-sweep runs loopback clusters and cannot be combined with --connect".into(),
        ));
    }
    if !ec_shapes.is_empty() && !args.all("connect").is_empty() {
        // Same reasoning: each EC shape needs its own freshly-shaped pool.
        return Err(Error::Config(
            "--ec-sweep runs loopback clusters and cannot be combined with --connect".into(),
        ));
    }

    let (addrs, cluster) = match &args.all("connect")[..] {
        [] => {
            println!(
                "netbench: loopback cluster of {proxies} × {nodes} nodes, {} clients × {} ops, {} B objects, RS{}",
                cfg.clients, cfg.ops_per_client, cfg.object_bytes, cfg.ec
            );
            let cluster = LoopbackCluster::start(deployment(nodes, proxies, &cfg))?;
            let addrs = cluster.client_addrs();
            (addrs, Some(cluster))
        }
        list => {
            let addrs = list
                .iter()
                .map(|addr| {
                    addr.to_socket_addrs()
                        .map_err(|e| Error::Config(format!("--connect {addr}: {e}")))?
                        .next()
                        .ok_or_else(|| {
                            Error::Config(format!("--connect {addr} resolves to nothing"))
                        })
                })
                .collect::<Result<Vec<SocketAddr>>>()?;
            println!("netbench: targeting external proxies at {addrs:?}");
            (addrs, None)
        }
    };

    // Unmeasured warmup pass: faults in the cluster's buffers and
    // allocator arenas and walks the pool through its cold starts, so
    // the measured run reflects steady state rather than first-touch
    // page faults (worth ~10-15% on the headline otherwise).
    let warm = BenchConfig {
        ops_per_client: cfg.ops_per_client.min(40),
        ..cfg.clone()
    };
    bench::run(&addrs, &warm)?;

    let report = bench::run(&addrs, &cfg)?;
    println!("{}", bench::summary_line(&report));
    let mut failures = report.verify_failures;

    // Object-size sweep: same cluster, ops scaled down for large
    // objects so every point moves a comparable byte volume.
    for size in sweep_sizes {
        let ops = ((cfg.ops_per_client * cfg.object_bytes) / size.max(1)).clamp(30, 2000);
        let point = BenchConfig {
            object_bytes: size,
            ops_per_client: ops,
            ..cfg.clone()
        };
        let r = bench::run(&addrs, &point)?;
        println!(
            "sweep {size:>8} B × {ops} ops/client: {}",
            bench::summary_line(&r)
        );
        failures += r.verify_failures;
    }

    // Connection-scaling sweep: the same cluster, re-driven at growing
    // client counts; each point also snapshots the proxy substrate's
    // thread count (loopback runs — one event-loop thread per proxy).
    for n in client_counts {
        let point = bench::scaled_for_clients(&cfg, n);
        let r = bench::run(&addrs, &point)?;
        let proxy_threads = cluster.as_ref().and_then(|_| bench::proxy_thread_count());
        let threads = proxy_threads.map_or(String::from("?"), |t| t.to_string());
        println!(
            "clients {n:>5} × {} ops/client [{threads} proxy threads]: {}",
            point.ops_per_client,
            bench::summary_line(&r)
        );
        failures += r.verify_failures;
    }

    if let Some(w) = cluster.as_ref().map(|c| c.wire_stats()) {
        println!(
            "wire: {} frames over {} vectored writes ({:.2} frames/write)",
            w.frames_written,
            w.vectored_writes,
            w.frames_per_write()
        );
    }
    if let Some(c) = cluster {
        for (proxy, s) in c.shutdown_with_stats() {
            println!(
                "{proxy}: {} GETs accepted, {} data-first; parity released at admission {}, \
                 by a miss {}, by a bounce {}; {} delivery failures, {} stale chunk answers, \
                 {} coalesced chunk queries",
                s.get_hits,
                s.data_first_gets,
                s.parity_releases_admission,
                s.parity_releases_miss,
                s.parity_releases_bounce,
                s.delivery_failures,
                s.stale_chunk_answers,
                s.coalesced_chunk_gets,
            );
        }
    }

    // Proxy-count sweep: a fresh loopback fleet per shape (same per-proxy
    // pool size), same workload — how throughput scales past the
    // single-proxy event loop.
    for shape in proxy_shapes {
        let c = LoopbackCluster::start(deployment(nodes, shape, &cfg))?;
        let r = bench::run(&c.client_addrs(), &cfg)?;
        println!("proxies {shape}: {}", bench::summary_line(&r));
        failures += r.verify_failures;
        c.shutdown();
    }

    // Erasure-code sweep: a fresh loopback cluster per code (pool grown
    // to at least the stripe width), same workload — end-to-end cost of
    // the client's EC compute across shapes.
    for ec in ec_shapes {
        let point = BenchConfig { ec, ..cfg.clone() };
        let shard_nodes = nodes.max((ec.data + ec.parity) as u32);
        let c = LoopbackCluster::start(deployment(shard_nodes, proxies, &point))?;
        let r = bench::run(&c.client_addrs(), &point)?;
        println!("ec {ec}: {}", bench::summary_line(&r));
        failures += r.verify_failures;
        c.shutdown();
    }

    if failures > 0 {
        return Err(Error::Protocol(format!(
            "{failures} GETs failed verification"
        )));
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("netbench: {e}");
        std::process::exit(1);
    }
}
