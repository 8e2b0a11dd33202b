//! Functional tests of the socket substrate on an in-process loopback
//! cluster: every byte crosses real TCP, every protocol step runs the
//! shared dispatch engines.

use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;
use ic_common::msg::Msg;
use ic_common::{ChunkId, DeploymentConfig, EcConfig, Error, LambdaId, ObjectKey, Payload};
use ic_net::bench::{self, BenchConfig};
use ic_net::proxy::{self, NetProxyConfig};
use ic_net::{Frame, FrameStream, LoopbackCluster};

fn cluster(nodes: u32, d: usize, p: usize) -> LoopbackCluster {
    let cfg = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(nodes, EcConfig::new(d, p).unwrap())
    };
    LoopbackCluster::start(cfg).expect("cluster starts")
}

fn pattern(len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| ((i * 31 + 7) % 256) as u8)
            .collect::<Vec<u8>>(),
    )
}

#[test]
fn net_roundtrips_various_sizes_byte_identically() {
    let c = cluster(10, 4, 2);
    let mut client = c.client().unwrap();
    for len in [1usize, 100, 4096, 1 << 16, 3 * 1024 * 1024] {
        let data = pattern(len);
        client.put(format!("obj-{len}"), data.clone()).unwrap();
        let back = client.get(format!("obj-{len}")).unwrap().expect("cached");
        assert_eq!(back, data, "len {len}");
    }
    c.shutdown();
}

#[test]
fn net_miss_returns_none() {
    let c = cluster(8, 4, 1);
    let mut client = c.client().unwrap();
    assert!(client.get("absent").unwrap().is_none());
    c.shutdown();
}

#[test]
fn net_overwrite_returns_new_value() {
    let c = cluster(8, 4, 2);
    let mut client = c.client().unwrap();
    client.put("k", pattern(100_000)).unwrap();
    let v2 = Bytes::from(vec![9u8; 50_000]);
    client.put("k", v2.clone()).unwrap();
    assert_eq!(client.get("k").unwrap().unwrap(), v2);
    c.shutdown();
}

#[test]
fn net_two_clients_share_the_cache() {
    let c = cluster(8, 4, 1);
    let mut writer = c.client().unwrap();
    let mut reader = c.client_seeded(99).unwrap();
    assert_ne!(
        writer.id(),
        reader.id(),
        "the proxy must assign distinct ids"
    );
    let data = pattern(200_000);
    writer.put("shared", data.clone()).unwrap();
    assert_eq!(reader.get("shared").unwrap().unwrap(), data);
    c.shutdown();
}

/// Provider reclaim with the daemon still up: the fresh instances answer
/// `ChunkMiss`, the client decodes around the losses and read-repairs
/// them. With pool == stripe every node holds exactly one chunk, so
/// reclaiming two nodes deterministically loses two chunks — within the
/// (4+2) parity budget, and provably an EC decode.
#[test]
fn net_reclaim_within_parity_decodes_and_repairs() {
    let c = cluster(6, 4, 2);
    let mut client = c.client().unwrap();
    let data = pattern(400_000);
    client.put("tough", data.clone()).unwrap();
    c.reclaim_node(LambdaId(0));
    c.reclaim_node(LambdaId(1));
    std::thread::sleep(Duration::from_millis(50));
    // The two misses involve a re-invoke round trip, so they can race the
    // first-d delivery of any single GET; every read returns the exact
    // bytes regardless, and repeated reads must converge on repairing
    // both losses (each read gives the late misses another chance to be
    // observed).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.stats().repaired_chunks < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "repairs never converged: {:?}",
            client.stats()
        );
        let (back, _) = client.get_reported("tough").unwrap().expect("recoverable");
        assert_eq!(back, data, "decode must reconstruct the exact bytes");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(client.stats().recoveries >= 1, "{:?}", client.stats());
    // >= 2, not == 2: a miss already queued toward a node can race the
    // repair of the same chunk and trigger a second, redundant repair.
    assert!(client.stats().repaired_chunks >= 2, "{:?}", client.stats());
    // The repairs restored full redundancy: reclaim two *different*
    // nodes and the object still decodes.
    std::thread::sleep(Duration::from_millis(50));
    c.reclaim_node(LambdaId(2));
    c.reclaim_node(LambdaId(3));
    std::thread::sleep(Duration::from_millis(50));
    let back = client.get("tough").unwrap().expect("still recoverable");
    assert_eq!(back, data);
    c.shutdown();
}

/// Killing a node's daemon (process death) leaves its chunk silent, not
/// missed; first-*d* streaming masks it and the object still decodes.
#[test]
fn net_killed_daemon_is_masked_by_first_d_streaming() {
    let mut c = cluster(5, 4, 1);
    let mut client = c.client().unwrap();
    let data = pattern(300_000);
    client.put("survivor", data.clone()).unwrap();
    // Pool == stripe: the killed node holds exactly one chunk.
    c.kill_node(LambdaId(2));
    std::thread::sleep(Duration::from_millis(50));
    let back = client.get("survivor").unwrap().expect("masked by first-d");
    assert_eq!(back, data);
    c.shutdown();
}

/// A killed daemon that comes back (fresh state) answers misses for its
/// lost chunk, and the client repairs it — full recovery after a real
/// socket drop and reconnect.
#[test]
fn net_restarted_daemon_triggers_miss_and_repair() {
    let mut c = cluster(5, 4, 1);
    let mut client = c.client().unwrap();
    let data = pattern(250_000);
    client.put("phoenix", data.clone()).unwrap();
    c.kill_node(LambdaId(1));
    std::thread::sleep(Duration::from_millis(50));
    c.restart_node(LambdaId(1)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // The restarted daemon's chunk was lost; eventually the miss arrives
    // and the repair restores redundancy (possibly several GETs later if
    // the miss keeps racing first-d delivery). Every read is
    // byte-identical throughout.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.stats().repaired_chunks < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "repair never converged: {:?}",
            client.stats()
        );
        let (back, _) = client
            .get_reported("phoenix")
            .unwrap()
            .expect("recoverable");
        assert_eq!(back, data);
        std::thread::sleep(Duration::from_millis(100));
    }
    c.shutdown();
}

/// Delta-sync backup over the socket substrate: runtime-initiated rounds
/// spawn a peer replica through the in-daemon relay and replace the
/// proxy's connection (`HelloProxy` → Fig 6 `Maybe` state) — the cache
/// must keep serving byte-identical data across replacements.
#[test]
fn net_backup_rounds_survive_connection_replacement() {
    let cfg = DeploymentConfig {
        backup_enabled: true,
        backup_interval: ic_common::SimDuration::from_millis(300),
        ..DeploymentConfig::small(8, EcConfig::new(4, 1).unwrap())
    };
    let c = LoopbackCluster::start(cfg).expect("cluster starts");
    let mut client = c.client().unwrap();
    let data = pattern(200_000);
    client.put("backed", data.clone()).unwrap();
    // Real timers: after Tbak the next invocation starts a backup round
    // concurrently with the traffic that woke the node.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(client.get("backed").unwrap().unwrap(), data);
    std::thread::sleep(Duration::from_millis(600));
    client.put("after", data.clone()).unwrap();
    assert_eq!(client.get("after").unwrap().unwrap(), data);
    assert_eq!(client.get("backed").unwrap().unwrap(), data);
    c.shutdown();
}

/// Losing more chunks than parity tolerates must surface as
/// `ChunkUnavailable`, not hang or return corrupt data.
#[test]
fn net_total_loss_is_unrecoverable() {
    let c = cluster(6, 4, 1);
    let mut client = c.client().unwrap();
    client.put("fragile", pattern(100_000)).unwrap();
    for l in 0..6 {
        c.reclaim_node(LambdaId(l));
    }
    std::thread::sleep(Duration::from_millis(50));
    match client.get("fragile") {
        Err(Error::ChunkUnavailable { .. }) => {}
        other => panic!("expected unrecoverable, got {other:?}"),
    }
    c.shutdown();
}

#[test]
fn net_many_objects_across_clients() {
    let c = cluster(10, 5, 1);
    let mut client = c.client().unwrap();
    let objects: Vec<(String, Bytes)> = (0..20)
        .map(|i| (format!("obj-{i}"), pattern(10_000 + i * 137)))
        .collect();
    for (k, v) in &objects {
        client.put(k, v.clone()).unwrap();
    }
    let mut reader = c.client_seeded(11).unwrap();
    for (k, v) in &objects {
        assert_eq!(reader.get(k).unwrap().unwrap(), *v, "{k}");
    }
    c.shutdown();
}

/// The bench driver end to end on a small loopback cluster: it must
/// complete a mixed GET/PUT run with zero verification failures.
#[test]
fn netbench_driver_completes_a_verified_mixed_run() {
    let c = cluster(8, 4, 2);
    let cfg = BenchConfig {
        clients: 2,
        ops_per_client: 25,
        object_bytes: 64 * 1024,
        key_space: 4,
        ..BenchConfig::default()
    };
    let report = bench::run(&[c.client_addr()], &cfg).expect("bench completes");
    assert_eq!(report.total_ops(), 50);
    assert_eq!(report.verify_failures, 0);
    assert!(report.gets.count > 0 && report.puts.count > 0, "mixed run");
    assert!(report.gets.p50_us > 0 && report.gets.p99_us >= report.gets.p50_us);
    c.shutdown();
}

// ----------------------------------------------------------------------
// Multi-proxy deployments
// ----------------------------------------------------------------------

fn multi_cluster(proxies: u16, nodes_per_proxy: u32, d: usize, p: usize) -> LoopbackCluster {
    let cfg = DeploymentConfig {
        proxies,
        backup_enabled: false,
        ..DeploymentConfig::small(nodes_per_proxy, EcConfig::new(d, p).unwrap())
    };
    LoopbackCluster::start(cfg).expect("multi-proxy cluster starts")
}

/// Keys of the form `mp-N` that `client`'s ring routes to each proxy of
/// a 2-proxy fleet — the fixtures below need traffic on both rings.
fn keys_by_proxy(client: &ic_net::NetClient, n: usize) -> Vec<Vec<String>> {
    let mut by_proxy = vec![Vec::new(); client.proxies()];
    for i in 0..n {
        let key = format!("mp-{i}");
        by_proxy[client.proxy_for(&key).0 as usize].push(key);
    }
    by_proxy
}

/// The tentpole's happy path: a 2-proxy fleet serves byte-identical
/// round-trips with keys spread across both rings, and chunk placement
/// stays inside each key's owning pool.
#[test]
fn net_two_proxies_roundtrip_across_both_rings() {
    let c = multi_cluster(2, 6, 4, 1);
    let mut client = c.client().unwrap();
    assert_eq!(client.proxies(), 2);
    let by_proxy = keys_by_proxy(&client, 12);
    assert!(
        by_proxy.iter().all(|keys| !keys.is_empty()),
        "12 keys must spread over both proxies: {by_proxy:?}"
    );
    let mut stored = Vec::new();
    for (p, keys) in by_proxy.iter().enumerate() {
        for key in keys {
            let data = pattern(20_000 + p * 7 + key.len());
            client.put(key, data.clone()).unwrap();
            stored.push((key.clone(), data));
        }
    }
    // A second client (fresh connections, different seed) reads them all.
    let mut reader = c.client_seeded(99).unwrap();
    for (key, data) in &stored {
        assert_eq!(reader.get(key).unwrap().as_ref(), Some(data), "{key}");
    }
    c.shutdown();
}

/// Killing one proxy takes out exactly its own keys: the client marks it
/// down, keys on the surviving proxy stay byte-identical, and operations
/// on the dead proxy's keys fail fast with a transport error.
#[test]
fn net_killed_proxy_leaves_survivor_keys_intact() {
    let mut c = multi_cluster(2, 6, 4, 1);
    let mut client = c.client().unwrap();
    let by_proxy = keys_by_proxy(&client, 16);
    let mut stored = std::collections::HashMap::new();
    for keys in &by_proxy {
        for key in keys {
            let data = pattern(30_000 + key.len() * 13);
            client.put(key, data.clone()).unwrap();
            stored.insert(key.clone(), data);
        }
    }

    let victim = ic_common::ProxyId(1);
    c.kill_proxy(victim).unwrap();

    // Survivor keys: every GET still byte-identical, before and after
    // the client has noticed the death.
    for key in &by_proxy[0] {
        assert_eq!(
            client.get(key).unwrap().as_ref(),
            stored.get(key),
            "survivor key {key} corrupted by the other proxy's death"
        );
    }
    // Victim keys: fast transport failure (first op may need to observe
    // the socket drop; all must error, none may hang or corrupt).
    for key in &by_proxy[1] {
        match client.get(key) {
            Err(Error::Transport(_)) => {}
            other => panic!("victim key {key} must fail with Transport, got {other:?}"),
        }
    }
    assert!(
        client.proxy_down(victim),
        "client must mark the victim down"
    );
    assert!(!client.proxy_down(ic_common::ProxyId(0)));

    // The survivor still accepts fresh writes.
    let key = by_proxy[0].first().expect("survivor keys exist");
    let fresh = pattern(12_345);
    client.put(key, fresh.clone()).unwrap();
    assert_eq!(client.get(key).unwrap().unwrap(), fresh);
    c.shutdown();
}

/// A client connecting *after* a proxy died still works: the dead proxy
/// stays on the ring (its keys must not silently reroute and read stale
/// or empty data), marked down from the start.
#[test]
fn net_client_connecting_after_proxy_death_keeps_the_ring() {
    let mut c = multi_cluster(2, 6, 4, 1);
    let mut writer = c.client().unwrap();
    let by_proxy = keys_by_proxy(&writer, 10);
    let survivor_key = by_proxy[0].first().expect("keys on proxy 0").clone();
    let victim_key = by_proxy[1].first().expect("keys on proxy 1").clone();
    let data = pattern(50_000);
    writer.put(&survivor_key, data.clone()).unwrap();
    writer.put(&victim_key, data.clone()).unwrap();
    drop(writer);

    c.kill_proxy(ic_common::ProxyId(1)).unwrap();
    let mut late = c.client_seeded(123).expect("partial fleet still connects");
    assert_eq!(late.proxies(), 2, "the dead proxy must stay on the ring");
    assert!(late.proxy_down(ic_common::ProxyId(1)));
    assert_eq!(late.get(&survivor_key).unwrap().unwrap(), data);
    match late.get(&victim_key) {
        Err(Error::Transport(_)) => {}
        other => panic!("dead proxy's key must fail fast, got {other:?}"),
    }
    c.shutdown();
}

/// EC repair still works per-ring in a fleet: reclaiming nodes of one
/// proxy's pool is decoded around and repaired onto *that* pool, leaving
/// the other proxy untouched.
#[test]
fn net_two_proxies_reclaim_repairs_within_the_owning_pool() {
    let c = multi_cluster(2, 6, 4, 2);
    let mut client = c.client().unwrap();
    let by_proxy = keys_by_proxy(&client, 8);
    let key = by_proxy[1].first().expect("keys on proxy 1").clone();
    let data = pattern(200_000);
    client.put(&key, data.clone()).unwrap();
    // Reclaim two of proxy 1's nodes (global ids 6..12); at most two of
    // the stripe's chunks are lost — within the (4+2) parity budget.
    c.reclaim_node(LambdaId(6));
    c.reclaim_node(LambdaId(7));
    std::thread::sleep(Duration::from_millis(50));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.stats().repaired_chunks < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "repairs never converged: {:?}",
            client.stats()
        );
        let (back, _) = client.get_reported(&key).unwrap().expect("recoverable");
        assert_eq!(back, data, "decode must reconstruct the exact bytes");
        std::thread::sleep(Duration::from_millis(100));
    }
    c.shutdown();
}

// ----------------------------------------------------------------------
// The proxy event loop against rude peers, and its two ways of stopping
// ----------------------------------------------------------------------

/// A hand-driven client connection, handshake done, reads bounded so a
/// failing test cannot hang.
fn raw_client(addr: std::net::SocketAddr) -> FrameStream<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut stream = FrameStream::new(stream);
    stream.send(&Frame::HelloClient).expect("hello");
    match stream.recv().expect("welcome") {
        Frame::Welcome { .. } => stream,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// One chunk of a six-chunk PUT of `key`, addressed to `lambda`.
fn put_chunk(key: &str, seq: u32, lambda: LambdaId) -> Frame {
    Frame::App {
        msg: Msg::PutChunk {
            id: ChunkId::new(ObjectKey::new(key), seq),
            lambda,
            payload: Payload::bytes(vec![seq as u8; 8192]),
            object_size: 4 * 8192,
            total_chunks: 6,
            repair: false,
            put_epoch: 1,
        },
    }
}

/// Clients that vanish mid-PUT with a GET's answer unread, and a daemon
/// killed while GETs are in flight, cost a well-behaved client nothing:
/// every read stays byte-identical, and the orderly shutdown's invariant
/// audit (debug builds; a failure re-raises from `shutdown`) is clean.
#[test]
fn net_rude_peers_leave_a_bystanders_reads_byte_identical() {
    let mut c = cluster(6, 4, 2);
    let mut client = c.client().unwrap();
    let data = pattern(300_000);
    client.put("kept", data.clone()).unwrap();
    for round in 0..20u32 {
        let mut rude = raw_client(c.client_addr());
        let get = Msg::GetObject {
            key: ObjectKey::new("kept"),
            data_chunks: 4,
        };
        rude.send(&Frame::App { msg: get }).unwrap();
        for seq in 0..2 {
            let key = format!("doomed-{round}");
            rude.send(&put_chunk(&key, seq, LambdaId(seq))).unwrap();
        }
        drop(rude);
        assert_eq!(client.get("kept").unwrap().unwrap(), data, "round {round}");
    }
    // The daemon dies once the reader is demonstrably mid-stream.
    let (first_get_done, wait_first_get) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            for i in 0..60 {
                assert_eq!(client.get("kept").unwrap().unwrap(), data, "get {i}");
                if i == 0 {
                    first_get_done.send(()).unwrap();
                }
            }
        });
        wait_first_get.recv().unwrap();
        c.kill_node(LambdaId(1));
        reader.join().expect("every GET verified");
    });
    c.shutdown();
}

/// Starts a one-node proxy and returns a client and a node connection
/// that are both demonstrably past their handshakes: the chunk the client
/// sends makes the proxy invoke λ0, and the node reads that invoke.
fn handshaken_peers(
    handle: &proxy::NetProxyHandle,
) -> (FrameStream<TcpStream>, FrameStream<TcpStream>) {
    let node = TcpStream::connect(handle.node_addr).expect("connect");
    node.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut node = FrameStream::new(node);
    node.send(&Frame::HelloNode {
        lambda: LambdaId(0),
    })
    .unwrap();
    let mut client = raw_client(handle.client_addr);
    client.send(&put_chunk("k", 0, LambdaId(0))).unwrap();
    match node.recv().expect("the invoke") {
        Frame::Invoke { .. } => (client, node),
        other => panic!("expected Invoke, got {other:?}"),
    }
}

/// A daemon's [`Frame::Reclaimed`] is a lost connection to the proxy:
/// the node counts as sleeping from then on, so the next request for it
/// goes behind a fresh invoke instead of to the instance that is gone.
#[test]
fn net_reclaimed_notice_puts_the_node_to_sleep() {
    let dep = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(1, EcConfig::new(1, 0).unwrap())
    };
    let handle = proxy::start(NetProxyConfig::loopback(dep)).unwrap();
    let (mut client, mut node) = handshaken_peers(&handle);
    let instance = ic_common::InstanceId(5);
    let pong = Msg::Pong {
        instance,
        stored_bytes: 0,
    };
    let pong = Frame::FromInstance {
        instance,
        msg: pong,
    };
    node.send(&pong).unwrap();
    // Awake: the chunk that caused the invoke arrives, instance-addressed.
    match node.recv().expect("the queued chunk") {
        Frame::ToInstance { instance: to, .. } => assert_eq!(to, instance),
        other => panic!("expected ToInstance, got {other:?}"),
    }
    node.send(&Frame::Reclaimed).unwrap();
    // The notice and the client's chunks travel different sockets: keep
    // sending until one finds the node asleep (bounded by the sockets'
    // read timeouts — a proxy deaf to the notice never invokes again).
    for seq in 1.. {
        client.send(&put_chunk("k", seq, LambdaId(0))).unwrap();
        match node.recv().expect("a chunk or an invoke") {
            Frame::ToInstance { .. } => {} // sent before the notice landed
            Frame::Invoke { .. } => break,
            other => panic!("expected ToInstance or Invoke, got {other:?}"),
        }
    }
    handle.kill();
}

/// Reads a peer's stream to its end; `true` if a `Shutdown` notice came
/// before the socket dropped.
fn saw_shutdown_notice(mut peer: FrameStream<TcpStream>) -> bool {
    loop {
        match peer.recv() {
            Ok(Frame::Shutdown) => return true,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
}

/// `shutdown()` tells every handshaken peer; `kill()` tells nobody — the
/// sockets just drop, as when the process is `kill -9`ed.
#[test]
fn net_shutdown_notifies_peers_and_kill_does_not() {
    let dep = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(1, EcConfig::new(1, 0).unwrap())
    };
    let handle = proxy::start(NetProxyConfig::loopback(dep.clone())).unwrap();
    let (client, node) = handshaken_peers(&handle);
    handle.shutdown();
    assert!(saw_shutdown_notice(client), "client misses the notice");
    assert!(saw_shutdown_notice(node), "node misses the notice");

    let handle = proxy::start(NetProxyConfig::loopback(dep)).unwrap();
    let (client, node) = handshaken_peers(&handle);
    handle.kill();
    assert!(!saw_shutdown_notice(client), "a killed proxy says nothing");
    assert!(!saw_shutdown_notice(node), "a killed proxy says nothing");
}
