//! Connection-scaling properties of the readiness event loops: a proxy
//! is exactly one thread however many connections it holds, a node
//! daemon is one thread however many node ids it hosts, and a slow
//! reader is closed (backpressure) without harming its neighbours.

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_common::msg::Msg;
use ic_common::{DeploymentConfig, EcConfig, LambdaId, ObjectKey, ProxyId};
use ic_lambda::runtime::RuntimeConfig;
use ic_net::bench;
use ic_net::node::NetNode;
use ic_net::proxy::{self, NetProxyConfig};
use ic_net::{Frame, FrameStream, LoopbackCluster, NetClient};

/// The thread-count tests count `ic-proxy*` and `ic-node*` threads
/// process-wide, so the tests of this binary (each runs a proxy) take
/// turns.
static ONE_PROXY_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_proxy_at_a_time() -> MutexGuard<'static, ()> {
    // A poisoned lock only means the other test failed; this one can run.
    ONE_PROXY_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn deployment(nodes: u32) -> DeploymentConfig {
    DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(nodes, EcConfig::new(2, 1).unwrap())
    }
}

/// Performs a raw client handshake, returning the connected socket
/// (blocking mode) — a "client" that can then behave arbitrarily badly.
fn raw_client(addr: std::net::SocketAddr) -> FrameStream<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut stream = FrameStream::new(stream);
    stream.send(&Frame::HelloClient).expect("hello");
    match stream.recv().expect("welcome") {
        Frame::Welcome { .. } => stream,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// The soft `RLIMIT_NOFILE` bound, used to size the idle-connection
/// horde to what this environment can actually hold open.
fn max_open_files() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// A client that floods GETs without ever reading the replies must be
/// closed once its unread backlog exceeds the configured bound — and
/// every other connection keeps working.
#[test]
fn slow_reader_is_closed_without_harming_neighbours() {
    let _turn = one_proxy_at_a_time();
    let dep = deployment(4);
    let rt_cfg = RuntimeConfig::for_deployment(&dep);
    let cfg = NetProxyConfig {
        // Well above any single response burst (a GET of the 128 KiB
        // object streams ≈ 192 KiB), so healthy traffic never comes
        // close — but a client that keeps requesting without reading
        // accumulates responses past it within a handful of GETs.
        max_peer_backlog: 1024 * 1024,
        ..NetProxyConfig::loopback(dep.clone())
    };
    let handle = proxy::start(cfg).expect("proxy starts");
    let mut nodes = Vec::new();
    for lambda in dep.proxy_pool(ProxyId(0)) {
        nodes.push(
            NetNode::spawn(lambda, handle.node_addr, rt_cfg, Duration::from_secs(5)).unwrap(),
        );
    }

    let mut client = NetClient::connect(handle.client_addr, dep.ec, 7).expect("client connects");
    client
        .put("big", Bytes::from(vec![0xabu8; 128 * 1024]))
        .unwrap();

    // The slow reader: request the object over and over, never read a
    // byte back. The proxy's replies pile up in its per-connection write
    // queue until the backlog bound closes it — observable here as the
    // connection resetting under our writes.
    let mut slow = raw_client(handle.client_addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut closed = false;
    while Instant::now() < deadline {
        let frame = Frame::App {
            msg: Msg::GetObject {
                key: ObjectKey::new("big"),
                data_chunks: dep.ec.data as u32,
            },
        };
        if slow.send(&frame).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(closed, "slow reader was never disconnected");

    // Collateral check: the well-behaved client is unaffected, and so is
    // a fresh connection.
    assert_eq!(
        client.get("big").unwrap().expect("still cached").len(),
        128 * 1024
    );
    let mut fresh = NetClient::connect(handle.client_addr, dep.ec, 8).expect("fresh client");
    assert!(fresh.get("big").unwrap().is_some());

    drop(nodes);
    handle.shutdown();
}

/// A proxy is one thread — the event loop — and a thousand idle client
/// connections must leave it at one: readiness multiplexing, not
/// thread-per-connection. A live operation must still work with the
/// horde attached.
#[test]
fn idle_connection_horde_leaves_the_proxy_at_one_thread() {
    let _turn = one_proxy_at_a_time();
    let dep = deployment(4);
    let rt_cfg = RuntimeConfig::for_deployment(&dep);
    let handle = proxy::start(NetProxyConfig::loopback(dep.clone())).expect("proxy starts");
    let mut nodes = Vec::new();
    for lambda in dep.proxy_pool(ProxyId(0)) {
        nodes.push(
            NetNode::spawn(lambda, handle.node_addr, rt_cfg, Duration::from_secs(5)).unwrap(),
        );
    }
    let mut client = NetClient::connect(handle.client_addr, dep.ec, 7).expect("client connects");
    client
        .put("alive", Bytes::from(vec![7u8; 64 * 1024]))
        .unwrap();

    let before = bench::proxy_thread_count().expect("procfs thread count");
    assert_eq!(before, 1, "one running proxy is one thread");

    // Each idle connection costs two fds (one per side) plus headroom
    // for the cluster itself; cap the horde to what the fd limit holds.
    let conns = 1000.min(max_open_files().saturating_sub(200) / 2);
    let horde: Vec<FrameStream<TcpStream>> =
        (0..conns).map(|_| raw_client(handle.client_addr)).collect();
    assert!(horde.len() >= 100, "environment too small to mean anything");

    let after = bench::proxy_thread_count().expect("procfs thread count");
    assert_eq!(
        after,
        1,
        "{} idle connections changed the proxy thread count 1 -> {after}",
        horde.len()
    );

    // The proxy still serves real traffic with the horde attached.
    assert_eq!(
        client.get("alive").unwrap().expect("cached").len(),
        64 * 1024
    );

    drop(horde);
    drop(nodes);
    handle.shutdown();
}

/// The paper's deployment on real sockets: a 400-node 10+2 loopback
/// cluster runs on one proxy thread and one node thread — each node id
/// keeps its own connection, but they share one daemon loop. Objects
/// round-trip byte-identically, and reclaimed nodes are decoded around.
#[test]
fn paper_scale_fleet_is_one_proxy_thread_and_one_node_thread() {
    let _turn = one_proxy_at_a_time();
    let dep = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(400, EcConfig::new(10, 2).unwrap())
    };
    let cluster = LoopbackCluster::start(dep).expect("400-node cluster starts");
    let mut client = cluster.client().expect("client connects");
    let objects: Vec<(String, Bytes)> = (0..20)
        .map(|i| {
            let key = format!("paper-{i}");
            let data = bench::pattern_bytes(&key, 0, 100_000 + i * 4_099);
            (key, data)
        })
        .collect();
    for (key, data) in &objects {
        client.put(key, data.clone()).unwrap();
    }
    for (key, data) in &objects {
        assert_eq!(client.get(key).unwrap().as_ref(), Some(data), "{key}");
    }
    // Counted once both loops have served (a thread names itself as it
    // starts running).
    assert_eq!(bench::proxy_thread_count(), Some(1));
    assert_eq!(bench::node_thread_count(), Some(1));

    // Reclaim two nodes at a time until a pair held a chunk of one of
    // the objects (placement is the client's random draw), reading every
    // object back byte-identically after each pair: the lost chunks are
    // found by the reads and repaired.
    let mut reclaimed = 0;
    while client.stats().repaired_chunks == 0 {
        assert!(reclaimed < 400, "no reclaim ever cost an object a chunk");
        for l in [reclaimed, reclaimed + 1] {
            cluster.reclaim_node(LambdaId(l));
        }
        reclaimed += 2;
        std::thread::sleep(Duration::from_millis(20));
        for (key, data) in &objects {
            assert_eq!(client.get(key).unwrap().as_ref(), Some(data), "{key}");
        }
    }
    assert_eq!(bench::proxy_thread_count(), Some(1));
    assert_eq!(bench::node_thread_count(), Some(1));
    cluster.shutdown();
}
