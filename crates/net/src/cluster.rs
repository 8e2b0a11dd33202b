//! An in-process loopback cluster: the full socket substrate — proxy
//! listeners, node daemons, framed TCP — wired up on `127.0.0.1`
//! ephemeral ports inside one process.
//!
//! Every byte still crosses a real kernel socket; only the process
//! boundary is collapsed (daemons run on threads). This is what the
//! parity tests and `netbench` use: same code paths as the `ic-proxy` /
//! `ic-node` / `ic-cli` binaries, none of the subprocess management.
//! Each proxy's whole pool is hosted by one node-daemon loop, so a
//! deployment is one proxy thread and one node thread per proxy however
//! many nodes it has — the paper's 400-node fleet included.
//!
//! Multi-proxy deployments (`DeploymentConfig::proxies > 1`) start one
//! socket proxy per [`ic_common::ProxyId`], each owning its disjoint
//! slice of the node-id space ([`DeploymentConfig::proxy_pool`]); every
//! node daemon dials the proxy that owns it, and clients connect to the
//! whole fleet ([`NetClient::connect_multi`]) and ring-route keys across
//! it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use ic_common::{DeploymentConfig, Error, LambdaId, ProxyId, Result};
use ic_lambda::runtime::RuntimeConfig;
use ic_proxy::ProxyStats;

use crate::client::NetClient;
use crate::node::{NetNode, NodeHandle};
use crate::proxy::{self, NetProxyConfig, NetProxyHandle};

/// A running loopback deployment: one socket proxy per configured
/// `ProxyId`, each with one in-process node daemon hosting its pool.
pub struct LoopbackCluster {
    cfg: DeploymentConfig,
    /// Indexed by `ProxyId.0`; `None` once killed.
    proxies: Vec<Option<NetProxyHandle>>,
    nodes: HashMap<LambdaId, NodeHandle>,
}

impl LoopbackCluster {
    /// Starts the cluster on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Returns [`ic_common::Error::Config`] for invalid deployments and
    /// [`ic_common::Error::Transport`] when sockets cannot be set up.
    pub fn start(cfg: DeploymentConfig) -> Result<LoopbackCluster> {
        let rt_cfg = RuntimeConfig::for_deployment(&cfg);
        let mut proxies = Vec::with_capacity(cfg.proxies as usize);
        let mut nodes = HashMap::new();
        for p in 0..cfg.proxies {
            let proxy = ProxyId(p);
            let handle = proxy::start(NetProxyConfig::loopback_proxy(cfg.clone(), proxy))?;
            let pool: Vec<LambdaId> = cfg.proxy_pool(proxy).collect();
            for node in
                NetNode::spawn_many(&pool, handle.node_addr, rt_cfg, Duration::from_secs(5))?
            {
                nodes.insert(node.lambda, node);
            }
            proxies.push(Some(handle));
        }
        Ok(LoopbackCluster {
            cfg,
            proxies,
            nodes,
        })
    }

    /// Address clients connect to on the first proxy (single-proxy
    /// deployments and external drivers like `ic-cli`; multi-proxy
    /// clients want [`LoopbackCluster::client_addrs`]).
    pub fn client_addr(&self) -> SocketAddr {
        self.proxy_handle(ProxyId(0)).client_addr
    }

    /// Client ports of every proxy, in `ProxyId` order.
    ///
    /// # Panics
    ///
    /// Panics if any proxy has been killed (its port is gone).
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        (0..self.cfg.proxies)
            .map(|p| self.proxy_handle(ProxyId(p)).client_addr)
            .collect()
    }

    /// Address node daemons connect to on `proxy`.
    pub fn node_addr_of(&self, proxy: ProxyId) -> SocketAddr {
        self.proxy_handle(proxy).node_addr
    }

    /// Address node daemons connect to on the first proxy.
    pub fn node_addr(&self) -> SocketAddr {
        self.node_addr_of(ProxyId(0))
    }

    fn proxy_handle(&self, proxy: ProxyId) -> &NetProxyHandle {
        self.proxies
            .get(proxy.0 as usize)
            .and_then(Option::as_ref)
            .expect("proxy is running")
    }

    /// Connects a new synchronous client (to every live-at-start proxy)
    /// with the deployment's EC config.
    ///
    /// # Errors
    ///
    /// See [`NetClient::connect_multi`].
    pub fn client(&self) -> Result<NetClient> {
        self.client_seeded(7)
    }

    /// Connects a client with an explicit placement seed.
    ///
    /// A killed proxy's address is preserved as unroutable, so the fresh
    /// client still carries the full ring and marks the dead proxy down
    /// (mirroring a real deployment, where the address outlives the
    /// process).
    ///
    /// # Errors
    ///
    /// See [`NetClient::connect_multi`].
    pub fn client_seeded(&self, seed: u64) -> Result<NetClient> {
        let addrs: Vec<SocketAddr> = (0..self.cfg.proxies)
            .map(|p| {
                self.proxies
                    .get(p as usize)
                    .and_then(Option::as_ref)
                    .map(|h| h.client_addr)
                    // Port 1 on loopback: reserved, connection refused —
                    // the killed proxy's stand-in address.
                    .unwrap_or_else(|| "127.0.0.1:1".parse().expect("static addr"))
            })
            .collect();
        NetClient::connect_multi(&addrs, self.cfg.ec, seed)
    }

    /// Aggregated socket-write coalescing counters across every live
    /// proxy's event loop (see [`crate::proxy::WireSnapshot`]): how many
    /// vectored write syscalls the fleet issued and how many frames they
    /// carried.
    pub fn wire_stats(&self) -> crate::proxy::WireSnapshot {
        let mut total = crate::proxy::WireSnapshot::default();
        for p in self.proxies.iter().flatten() {
            let s = p.wire_stats();
            total.vectored_writes += s.vectored_writes;
            total.frames_written += s.frames_written;
        }
        total
    }

    /// Provider-style reclaim of one node: its instances and cached
    /// chunks vanish, its daemon and socket stay up (the node answers
    /// `ChunkMiss` for lost chunks on the next request).
    pub fn reclaim_node(&self, lambda: LambdaId) {
        if let Some(h) = self.nodes.get(&lambda) {
            h.reclaim();
        }
    }

    /// Kills one node outright — the in-process equivalent of `kill
    /// <ic-node pid>` for a daemon hosting that id alone; the other ids
    /// on its loop keep serving. The socket drops, the proxy resets the
    /// member connection — releasing the parity requests of any
    /// data-first GET waiting on it — and the node's chunks go silent
    /// (subsequent GETs find the home down, ask for the whole stripe, and
    /// first-*d* streaming masks it).
    pub fn kill_node(&mut self, lambda: LambdaId) {
        if let Some(mut h) = self.nodes.remove(&lambda) {
            h.kill();
        }
    }

    /// Restarts a killed node (fresh instance state, like the provider
    /// placing the function on a new host), on a daemon loop of its own.
    /// It reconnects to the proxy that owns its id.
    ///
    /// # Errors
    ///
    /// See [`NetNode::spawn`].
    pub fn restart_node(&mut self, lambda: LambdaId) -> Result<()> {
        self.kill_node(lambda);
        let owner = self.cfg.owner_of(lambda);
        let handle = NetNode::spawn(
            lambda,
            self.node_addr_of(owner),
            RuntimeConfig::for_deployment(&self.cfg),
            Duration::from_secs(5),
        )?;
        self.nodes.insert(lambda, handle);
        Ok(())
    }

    /// Kills one proxy abruptly — the in-process equivalent of
    /// `kill -9 <ic-proxy pid>`: no goodbye frames, every peer observes
    /// its socket dropping. The proxy's node daemons die with it (their
    /// connection is gone and nothing will re-invoke them); clients mark
    /// the proxy down and keep serving keys owned by the survivors.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the proxy is unknown or already dead.
    pub fn kill_proxy(&mut self, proxy: ProxyId) -> Result<()> {
        let handle = self
            .proxies
            .get_mut(proxy.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| Error::Config(format!("{proxy} is not running")))?;
        handle.kill();
        // Reap the dead proxy's daemons: their sockets dropped, so their
        // run loops have exited (or will, the moment they notice).
        for lambda in self.cfg.proxy_pool(proxy) {
            if let Some(mut h) = self.nodes.remove(&lambda) {
                h.kill();
            }
        }
        Ok(())
    }

    /// Stops every proxy (orderly) and every node daemon.
    pub fn shutdown(self) {
        self.shutdown_with_stats();
    }

    /// [`LoopbackCluster::shutdown`], returning each still-running
    /// proxy's final protocol counters (see
    /// [`NetProxyHandle::shutdown_with_stats`]).
    pub fn shutdown_with_stats(mut self) -> Vec<(ProxyId, ProxyStats)> {
        self.teardown()
    }

    fn teardown(&mut self) -> Vec<(ProxyId, ProxyStats)> {
        let mut stats = Vec::new();
        for (id, p) in self.proxies.iter_mut().enumerate() {
            if let Some(p) = p.take() {
                stats.push((ProxyId(id as u16), p.shutdown_with_stats()));
            }
        }
        for (_, mut h) in self.nodes.drain() {
            h.kill();
        }
        stats
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("proxies", &self.proxies.iter().flatten().count())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}
