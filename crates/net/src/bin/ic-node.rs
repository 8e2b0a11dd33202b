//! `ic-node`: emulated Lambda cache nodes as a standalone process.
//!
//! Dials the proxy's node port once per node id and serves their
//! instances until the proxy goes away or the process is killed. One
//! process hosts every `--id` it is given on a single thread (one
//! readiness loop; each id keeps its own connection, as each Lambda
//! does). The daemon persists nothing: `kill <pid>` (SIGTERM, SIGKILL, a
//! crash) loses every cached chunk of every id it hosts — exactly a
//! provider reclaim of each, which is how the README's fault-tolerance
//! demo knocks chunks out from under an object.
//!
//! ```text
//! ic-node --id N [--id N]... [--proxy ADDR] [--backup-secs N] [--retry-secs N]
//! ```
//!
//! `--id` is a node's *global* id: in a multi-proxy deployment, proxy
//! `I` (of pool size P) owns ids `[I·P, (I+1)·P)`, and this daemon must
//! dial that proxy's node port — an id outside the pool is refused at
//! the handshake.

use std::time::Duration;

use ic_common::{Error, LambdaId, Result, SimDuration};
use ic_lambda::runtime::RuntimeConfig;
use ic_net::args::Args;
use ic_net::node::NetNode;

fn run() -> Result<()> {
    let args = Args::parse();
    let ids = args
        .all("id")
        .into_iter()
        .map(|v| {
            v.parse()
                .map(LambdaId)
                .map_err(|_| Error::Config(format!("--id {v} is not a number")))
        })
        .collect::<Result<Vec<LambdaId>>>()?;
    if ids.is_empty() {
        return Err(Error::Config("ic-node requires --id N (repeatable)".into()));
    }
    let proxy = args.get("proxy", "127.0.0.1:7200");
    let backup_secs: u64 = args.num("backup-secs", 0)?;
    let retry_secs: u64 = args.num("retry-secs", 10)?;

    let rt_cfg = RuntimeConfig {
        backup_enabled: backup_secs > 0,
        backup_interval: SimDuration::from_secs(backup_secs.max(1)),
        ..RuntimeConfig::paper()
    };
    let names = ids
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let node = NetNode::connect(
        &ids,
        proxy.as_str(),
        rt_cfg,
        Duration::from_secs(retry_secs),
    )?;
    println!("ic-node: {names} connected to {proxy}");
    node.run();
    println!("ic-node: {names} shutting down");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ic-node: {e}");
        std::process::exit(1);
    }
}
