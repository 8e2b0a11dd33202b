//! The InfiniCache proxy (§3.2, Fig 5/6).
//!
//! A proxy manages a pool of Lambda cache nodes: it keeps the chunk→node
//! mapping table, evicts objects with a CLOCK-based LRU when the pool
//! fills, tracks which nodes are awake and lets each request validate its
//! own connection (the Fig 6 state machine in [`conn`], without the
//! preflight PING), streams chunks between clients and
//! nodes — a read of a stripe whose homes are all live connections asks
//! for the data chunks only and releases the parity requests on the
//! first evidence a data chunk may not come — and coordinates the delta-sync backup protocol (spawning relays,
//! switching connections to the backup destination).
//!
//! Like the Lambda runtime, the proxy is a pure state machine
//! ([`proxy::Proxy`]): `on_client` / `on_lambda` / `on_warmup_tick` /
//! `on_delivery_failed` return [`proxy::ProxyAction`]s for the embedding
//! transport.

pub mod conn;
pub mod proxy;

pub use conn::{ConnEffect, LambdaConn, Liveness};
pub use proxy::{Proxy, ProxyAction, ProxyConfig, ProxyStats};
