//! `ic-cli`: drive a running cluster from the command line.
//!
//! ```text
//! ic-cli [--proxy ADDR]... [--ec d+p] [--seed N] <command>
//!
//! commands:
//!   put KEY (--size BYTES | --file PATH)   store an object
//!   get KEY [--out PATH] [--verify]        fetch an object
//!   route KEY                              print the proxy a key maps to
//! ```
//!
//! Multi-proxy deployments: repeat `--proxy` once per instance, in
//! `--proxy-id` order (`--proxy host0:7100 --proxy host1:7100`); keys
//! spread over the fleet by consistent hashing, and a dead proxy only
//! takes out its own keys (the CLI exits 4 when the key's proxy is
//! down).
//!
//! `put --size N` stores a deterministic pattern derived from the key, so
//! a *different* process can later check byte-identity with
//! `get KEY --verify` — no shared state, just the key. `get` prints the
//! object length and a content hash; `--out` writes the bytes to a file.
//!
//! Load-testing a running fleet is `netbench --connect ADDR` (one
//! `--connect` per proxy, in `--proxy-id` order).

use std::net::{SocketAddr, ToSocketAddrs};

use bytes::Bytes;
use ic_common::hash::fnv1a;
use ic_common::{EcConfig, Error, Result};
use ic_net::args::Args;
use ic_net::bench::pattern_bytes;
use ic_net::client::NetClient;

fn resolve(addr: &str) -> Result<SocketAddr> {
    addr.to_socket_addrs()
        .map_err(|e| Error::Config(format!("--proxy {addr}: {e}")))?
        .next()
        .ok_or_else(|| Error::Config(format!("--proxy {addr} resolves to nothing")))
}

fn run() -> Result<()> {
    let args = Args::parse();
    let addrs: Vec<SocketAddr> = match &args.all("proxy")[..] {
        [] => vec![resolve("127.0.0.1:7100")?],
        list => list
            .iter()
            .map(|a| resolve(a))
            .collect::<Result<Vec<_>>>()?,
    };
    let ec = args.ec("ec", EcConfig::new(4, 2).expect("valid code"))?;
    let seed: u64 = args.num("seed", 7)?;

    let Some(cmd) = args.positional.first().map(String::as_str) else {
        return Err(Error::Config("usage: ic-cli <put|get|route> ...".into()));
    };
    match cmd {
        "put" => {
            let key = args
                .positional
                .get(1)
                .ok_or_else(|| Error::Config("put needs a KEY".into()))?;
            let data: Bytes = match (args.opt("file"), args.opt("size")) {
                (Some(path), _) => std::fs::read(path)
                    .map_err(|e| Error::Config(format!("--file {path}: {e}")))?
                    .into(),
                (None, Some(_)) => {
                    let size: usize = args.num("size", 0)?;
                    pattern_bytes(key, 0, size)
                }
                (None, None) => {
                    return Err(Error::Config(
                        "put needs --size BYTES or --file PATH".into(),
                    ))
                }
            };
            if data.is_empty() {
                return Err(Error::Config("cannot store an empty object".into()));
            }
            let len = data.len();
            let mut client = NetClient::connect_multi(&addrs, ec, seed)?;
            client.put(key, data)?;
            println!("stored {key}: {len} bytes as {} chunks", ec.shards());
        }
        "route" => {
            let key = args
                .positional
                .get(1)
                .ok_or_else(|| Error::Config("route needs a KEY".into()))?;
            let client = NetClient::connect_multi(&addrs, ec, seed)?;
            let proxy = client.proxy_for(key);
            println!(
                "route {key}: {proxy} ({})",
                if client.proxy_down(proxy) {
                    "down"
                } else {
                    "up"
                }
            );
        }
        "get" => {
            let key = args
                .positional
                .get(1)
                .ok_or_else(|| Error::Config("get needs a KEY".into()))?;
            let mut client = NetClient::connect_multi(&addrs, ec, seed)?;
            let Some((data, report)) = client.get_reported(key)? else {
                println!("miss: {key} is not cached");
                std::process::exit(3);
            };
            println!(
                "hit {key}: {} bytes, fnv1a {:016x}{}{}",
                data.len(),
                fnv1a(&data),
                if report.used_parity {
                    ", EC-decoded"
                } else {
                    ""
                },
                if report.lost_chunks > 0 {
                    format!(", {} lost chunks repaired", report.lost_chunks)
                } else {
                    String::new()
                },
            );
            if let Some(path) = args.opt("out") {
                std::fs::write(path, &data)
                    .map_err(|e| Error::Config(format!("--out {path}: {e}")))?;
            }
            if args.has("verify") {
                let expected = pattern_bytes(key, 0, data.len());
                if data != expected {
                    return Err(Error::Protocol(format!(
                        "verify FAILED: {key} does not match its deterministic pattern"
                    )));
                }
                println!("verify OK: byte-identical to the put pattern");
            }
        }
        other => return Err(Error::Config(format!("unknown command {other}"))),
    }
    Ok(())
}

fn main() {
    match run() {
        Ok(()) => {}
        // Unreachable/downed proxy: a distinct exit code so scripts (and
        // the multi-process fault test) can tell availability loss from
        // verification or usage failures.
        Err(e @ Error::Transport(_)) => {
            eprintln!("ic-cli: {e}");
            std::process::exit(4);
        }
        Err(e) => {
            eprintln!("ic-cli: {e}");
            std::process::exit(1);
        }
    }
}
