//! `ic-proxy`: one InfiniCache proxy instance as a standalone process.
//!
//! Listens for clients on one port and for `ic-node` daemons on another,
//! and runs the proxy state machine (pool management, chunk mapping,
//! CLOCK-LRU eviction, backup coordination) over framed TCP.
//!
//! ```text
//! ic-proxy [--clients ADDR] [--nodes ADDR] [--pool N]
//!          [--proxy-id I] [--proxies N]
//!          [--memory-mb N] [--warmup-secs N] [--backup-secs N]
//! ```
//!
//! A deployment may run several instances: start each with the same
//! `--proxies N` and a distinct `--proxy-id I` (0-based). Instance `I`
//! owns the disjoint node-id range `[I·pool, (I+1)·pool)` — its
//! `ic-node` daemons must be started with ids from that range — and
//! clients (`ic-cli --proxy ... --proxy ...`, addresses in id order)
//! spread keys across the instances by consistent hashing.
//!
//! Port `0` in either address picks an ephemeral port; the bound
//! addresses are printed on stdout (machine-parseable, used by the
//! multi-process tests). `--warmup-secs 0` disables warm-up ticks.

use std::time::Duration;

use ic_common::{DeploymentConfig, EcConfig, ProxyId, Result, SimDuration};
use ic_net::args::Args;
use ic_net::proxy::{start, NetProxyConfig};

fn run() -> Result<()> {
    let args = Args::parse();
    let pool: u32 = args.num("pool", 8)?;
    let proxies: u16 = args.num("proxies", 1)?;
    let proxy_id: u16 = args.num("proxy-id", 0)?;
    let memory_mb: u32 = args.num("memory-mb", 1536)?;
    let warmup_secs: u64 = args.num("warmup-secs", 60)?;
    let backup_secs: u64 = args.num("backup-secs", 0)?;

    // The erasure code is a client-side choice; the proxy only needs a
    // shape that validates against its own pool.
    let deployment = DeploymentConfig {
        proxies,
        lambda_memory_mb: memory_mb,
        backup_enabled: backup_secs > 0,
        backup_interval: SimDuration::from_secs(backup_secs.max(1)),
        ..DeploymentConfig::small(pool, EcConfig::new(1, 0)?)
    };
    let cfg = NetProxyConfig {
        deployment,
        proxy: ProxyId(proxy_id),
        client_addr: args
            .get("clients", "127.0.0.1:7100")
            .parse()
            .map_err(|e| ic_common::Error::Config(format!("--clients: {e}")))?,
        node_addr: args
            .get("nodes", "127.0.0.1:7200")
            .parse()
            .map_err(|e| ic_common::Error::Config(format!("--nodes: {e}")))?,
        warmup: (warmup_secs > 0).then(|| Duration::from_secs(warmup_secs)),
        max_peer_backlog: ic_net::proxy::DEFAULT_PEER_BACKLOG,
    };

    let pool_range = cfg.deployment.proxy_pool(cfg.proxy).collect::<Vec<_>>();
    let handle = start(cfg)?;
    println!("ic-proxy: clients on {}", handle.client_addr);
    println!("ic-proxy: nodes on {}", handle.node_addr);
    println!(
        "ic-proxy: proxy {proxy_id}/{proxies}, pool of {pool} nodes (λ{}..λ{}), {memory_mb} MB each; Ctrl-C to stop",
        pool_range.first().expect("non-empty pool").0,
        pool_range.last().expect("non-empty pool").0,
    );

    // Serve until killed; the event-loop thread owns all the work.
    loop {
        std::thread::park();
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ic-proxy: {e}");
        std::process::exit(1);
    }
}
