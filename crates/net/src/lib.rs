//! # ic-net: the real-socket TCP substrate
//!
//! InfiniCache is a networked system: the client library speaks to a
//! proxy over TCP, and the proxy holds long-lived connections to its
//! Lambda pool (Fig 6 of the paper). This crate carries the reproduction
//! across the process boundary — the execution substrate beside the
//! discrete-event simulator, and the only one that moves real bytes:
//!
//! * [`wire`] — the socket-level frame vocabulary (handshakes, invokes,
//!   instance-addressed delivery) over the shared length-prefixed codec
//!   in [`ic_common::frame`];
//! * [`node`] — [`node::NetNode`], the emulated Lambda node daemon: one
//!   readiness loop hosting any number of logical nodes, each with its
//!   own proxy connection and its [`ic_lambda::Runtime`] instances on
//!   real 100 ms billing cycles; killing the process is a provider
//!   reclaim of every node it hosts;
//! * [`proxy`] — the socket-backed proxy: one run-to-completion
//!   readiness loop (a single thread over the workspace [`polling`]
//!   shim, however many connections) owning all client and node sockets
//!   nonblocking *and* the same [`ic_proxy::Proxy`] state machine the
//!   other substrates drive, so a frame is decoded, dispatched and
//!   answered without leaving the thread; a deployment runs one
//!   instance per [`ic_common::ProxyId`], each owning its disjoint
//!   slice of the node-id space;
//! * [`client`] — [`client::NetClient`], a synchronous client facade
//!   (erasure coding on the client, §3.1) over one TCP connection per
//!   proxy — all multiplexed on a single poller inside the calling
//!   thread, no background threads — ring-routing keys across the fleet
//!   with per-connection framing state and failure isolation;
//! * [`cluster`] — [`cluster::LoopbackCluster`], the whole deployment
//!   (any proxy count) on loopback sockets inside one process, for tests
//!   and benchmarks;
//! * [`bench`](mod@bench) — the configurable GET/PUT throughput
//!   benchmark behind the `netbench` binary;
//! * [`replay`] — the substrate-parity driver: [`replay::run`] pushes
//!   one schedule through the simulator or the sockets, the workspace
//!   tests, the trace engine and `dbg_replay` alike.
//!
//! The architecture book in `docs/ARCHITECTURE.md` walks through the
//! thread structure; `docs/WIRE.md` is the normative wire-protocol
//! specification.
//!
//! Everything protocol-level is executed by the shared
//! [`infinicache::dispatch`] engines, so the sim-vs-net parity tests in
//! the workspace root can replay identical schedules through the simulator
//! and a loopback socket cluster and demand identical outcomes.
//!
//! Binaries (see the README's "Running a real cluster"): `ic-proxy`,
//! `ic-node`, `ic-cli`, and `netbench`. No async runtime — plain
//! `std::net` over the epoll/poll readiness shim in
//! `crates/shims/polling`, deployable anywhere the binaries run.

#![warn(missing_docs)]

pub mod args;
pub mod bench;
pub mod client;
pub mod cluster;
#[cfg(test)]
mod live;
pub mod node;
pub mod proxy;
pub mod replay;
pub mod wire;

pub use client::NetClient;
pub use cluster::LoopbackCluster;
pub use node::{NetNode, NodeHandle};
pub use proxy::{NetProxyConfig, NetProxyHandle, WireSnapshot};
pub use wire::{Frame, FrameStream};
