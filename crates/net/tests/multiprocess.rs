//! The acceptance test of the socket substrate: a real multi-process
//! cluster — `ic-proxy` + 3 × `ic-node` + `ic-cli`, each a separate OS
//! process on loopback — round-trips a multi-chunk object
//! byte-identically and recovers it via EC decode after one node process
//! is killed. Further fleets split the node ids over two proxies, and
//! host several ids in one `ic-node` process. `netbench --connect`
//! load-tests a running cluster from another process.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ic_common::{DeploymentConfig, EcConfig};
use ic_net::LoopbackCluster;

/// Kills every child on drop so a failing assertion cannot leak
/// processes.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Reads `ic-proxy`'s startup lines to learn its ephemeral ports.
fn read_proxy_addrs(proxy: &mut Child) -> (String, String) {
    let stdout = proxy.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut client_addr = None;
    let mut node_addr = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while client_addr.is_none() || node_addr.is_none() {
        assert!(
            Instant::now() < deadline,
            "ic-proxy did not announce its ports"
        );
        let line = lines.next().expect("proxy stdout open").expect("readable");
        if let Some(a) = line.strip_prefix("ic-proxy: clients on ") {
            client_addr = Some(a.trim().to_string());
        } else if let Some(a) = line.strip_prefix("ic-proxy: nodes on ") {
            node_addr = Some(a.trim().to_string());
        }
    }
    // Keep draining stdout so the proxy never blocks on a full pipe.
    std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
    (
        client_addr.expect("announced"),
        node_addr.expect("announced"),
    )
}

fn cli_fleet(client_addrs: &[&str], ec: &str, args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ic-cli"));
    for addr in client_addrs {
        cmd.arg("--proxy").arg(addr);
    }
    cmd.args(["--ec", ec])
        .args(args)
        .output()
        .expect("ic-cli runs")
}

fn cli(client_addr: &str, args: &[&str]) -> std::process::Output {
    cli_fleet(&[client_addr], "2+1", args)
}

fn assert_ok(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn multiprocess_cluster_roundtrips_and_recovers_from_a_killed_node() {
    // One proxy process on ephemeral ports, 3-node pool.
    let proxy = Command::new(env!("CARGO_BIN_EXE_ic-proxy"))
        .args(["--clients", "127.0.0.1:0", "--nodes", "127.0.0.1:0"])
        .args(["--pool", "3", "--warmup-secs", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ic-proxy spawns");
    let mut procs = Reaper(vec![proxy]);
    let (client_addr, node_addr) = read_proxy_addrs(&mut procs.0[0]);

    // Three node daemon processes.
    for id in 0..3 {
        let node = Command::new(env!("CARGO_BIN_EXE_ic-node"))
            .args(["--id", &id.to_string(), "--proxy", &node_addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("ic-node spawns");
        procs.0.push(node);
    }

    // PUT a multi-chunk object (RS(2+1): 3 chunks on 3 nodes) from one
    // ic-cli process, GET + byte-verify from another.
    let put = cli(
        &client_addr,
        &["put", "acceptance-object", "--size", "300000"],
    );
    assert_ok(&put, "ic-cli put");
    let get = cli(&client_addr, &["get", "acceptance-object", "--verify"]);
    assert_ok(&get, "ic-cli get (healthy cluster)");
    assert!(
        String::from_utf8_lossy(&get.stdout).contains("verify OK"),
        "healthy GET must verify"
    );

    // Kill one ic-node process: its chunk's bytes are gone with it. The
    // object must still come back byte-identical (EC decode from the
    // first d=2 of the surviving chunks).
    let mut victim = procs.0.remove(1); // λ0's process
    victim.kill().expect("kill ic-node");
    victim.wait().expect("reap ic-node");
    std::thread::sleep(Duration::from_millis(100));

    let get = cli(&client_addr, &["get", "acceptance-object", "--verify"]);
    assert_ok(&get, "ic-cli get (one node killed)");
    let stdout = String::from_utf8_lossy(&get.stdout);
    assert!(
        stdout.contains("verify OK"),
        "post-kill GET must stay byte-identical: {stdout}"
    );

    // A fresh PUT under a different key still succeeds only if its
    // placement avoids needing the dead node to ack — with 3 chunks on a
    // 3-node pool it cannot, so don't demand PUT liveness here; GETs are
    // the paper's availability story (first-d streaming, Fig 14).
}

/// The multi-proxy acceptance test: a real 2-proxy fleet — two
/// `ic-proxy`, four `ic-node` (2 per ring slice), and `ic-cli`, every
/// one its own OS process — stores pattern objects across both rings,
/// byte-verifies them
/// from separate client processes, then loses one whole proxy (SIGKILL,
/// taking its node daemons' connections with it) and keeps serving the
/// survivor's keys byte-identically while the victim's keys fail fast.
#[test]
fn multiprocess_two_proxy_fleet_survives_a_proxy_kill() {
    // Two proxy processes on ephemeral ports; proxy I of 2 owns the
    // global node ids [I*2, I*2+2).
    let mut proxy_addrs = Vec::new(); // (client_addr, node_addr)
    let mut procs = Reaper(Vec::new());
    for id in 0..2 {
        let proxy = Command::new(env!("CARGO_BIN_EXE_ic-proxy"))
            .args(["--clients", "127.0.0.1:0", "--nodes", "127.0.0.1:0"])
            .args(["--pool", "2", "--warmup-secs", "0"])
            .args(["--proxies", "2", "--proxy-id", &id.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("ic-proxy spawns");
        procs.0.push(proxy);
        let addrs = read_proxy_addrs(procs.0.last_mut().expect("just pushed"));
        proxy_addrs.push(addrs);
    }
    let fleet: Vec<&str> = proxy_addrs.iter().map(|(c, _)| c.as_str()).collect();

    // Four node daemons: global ids 0,1 dial proxy 0; ids 2,3 dial
    // proxy 1.
    for id in 0..4u32 {
        let (_, node_addr) = &proxy_addrs[(id / 2) as usize];
        let node = Command::new(env!("CARGO_BIN_EXE_ic-node"))
            .args(["--id", &id.to_string(), "--proxy", node_addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("ic-node spawns");
        procs.0.push(node);
    }

    // Store pattern objects until both rings own at least two keys
    // (routing is deterministic, so the split is stable per key name).
    let keys: Vec<String> = (0..8).map(|i| format!("fleet-obj-{i}")).collect();
    let mut owner = std::collections::HashMap::new();
    for key in &keys {
        let route = cli_fleet(&fleet, "1+1", &["route", key]);
        assert_ok(&route, "ic-cli route");
        let stdout = String::from_utf8_lossy(&route.stdout);
        let proxy = if stdout.contains("proxy0") {
            0u16
        } else {
            assert!(stdout.contains("proxy1"), "unparseable route: {stdout}");
            1
        };
        owner.insert(key.clone(), proxy);
        let put = cli_fleet(&fleet, "1+1", &["put", key, "--size", "150000"]);
        assert_ok(&put, "ic-cli put");
        let get = cli_fleet(&fleet, "1+1", &["get", key, "--verify"]);
        assert_ok(&get, "ic-cli get (healthy fleet)");
        assert!(
            String::from_utf8_lossy(&get.stdout).contains("verify OK"),
            "healthy GET must verify"
        );
    }
    let on = |p: u16| keys.iter().filter(|k| owner[*k] == p).count();
    assert!(
        on(0) >= 2 && on(1) >= 2,
        "8 keys must spread over both rings (got {} / {})",
        on(0),
        on(1)
    );

    // Kill proxy 1's process (and, for good measure, its daemons keep
    // running but their proxy is gone). The fleet keeps serving ring 0.
    let mut victim = procs.0.remove(1);
    victim.kill().expect("kill ic-proxy");
    victim.wait().expect("reap ic-proxy");
    std::thread::sleep(Duration::from_millis(100));

    for key in &keys {
        let get = cli_fleet(&fleet, "1+1", &["get", key, "--verify"]);
        if owner[key] == 0 {
            assert_ok(&get, "ic-cli get (survivor ring)");
            assert!(
                String::from_utf8_lossy(&get.stdout).contains("verify OK"),
                "survivor key {key} must stay byte-identical"
            );
        } else {
            assert_eq!(
                get.status.code(),
                Some(4),
                "victim key {key} must fail with the transport exit code\nstdout: {}\nstderr: {}",
                String::from_utf8_lossy(&get.stdout),
                String::from_utf8_lossy(&get.stderr),
            );
        }
    }
}

/// Open file descriptors of a child process (its sockets among them).
fn open_fds(child: &Child) -> usize {
    std::fs::read_dir(format!("/proc/{}/fd", child.id()))
        .expect("procfs")
        .count()
}

/// One `ic-node` process hosts three node ids on one thread. Killing it
/// loses all three at once — the proxy tears down exactly three
/// connections — and an object that lost three chunks to it, within its
/// parity, still reads back byte-identically.
#[test]
fn one_node_process_hosting_three_ids_dies_as_three_nodes() {
    let proxy = Command::new(env!("CARGO_BIN_EXE_ic-proxy"))
        .args(["--clients", "127.0.0.1:0", "--nodes", "127.0.0.1:0"])
        .args(["--pool", "5", "--warmup-secs", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ic-proxy spawns");
    let mut procs = Reaper(vec![proxy]);
    let (client_addr, node_addr) = read_proxy_addrs(&mut procs.0[0]);

    // λ0–λ2 in one process, λ3–λ4 in another.
    for ids in [&["0", "1", "2"][..], &["3", "4"]] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ic-node"));
        for id in ids {
            cmd.args(["--id", id]);
        }
        let node = cmd
            .args(["--proxy", &node_addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("ic-node spawns");
        procs.0.push(node);
    }

    // RS(2+3): five chunks on five nodes, any two of them decode.
    let cli = |args: &[&str]| cli_fleet(&[&client_addr], "2+3", args);
    assert_ok(
        &cli(&["put", "shared-host", "--size", "200000"]),
        "ic-cli put",
    );
    let get = cli(&["get", "shared-host", "--verify"]);
    assert_ok(&get, "ic-cli get (healthy cluster)");
    assert!(String::from_utf8_lossy(&get.stdout).contains("verify OK"));

    let status = std::fs::read_to_string(format!("/proc/{}/status", procs.0[1].id())).unwrap();
    assert!(
        status
            .lines()
            .any(|l| l.split_whitespace().eq(["Threads:", "1"])),
        "three ids, one thread:\n{status}"
    );

    // With no client connected, the proxy's descriptors settle; killing
    // the three-id process takes exactly three of them (one connection
    // per id), and the two-id process keeps its two.
    let settled = Instant::now() + Duration::from_secs(10);
    let mut before = open_fds(&procs.0[0]);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = open_fds(&procs.0[0]);
        if now == before {
            break;
        }
        assert!(Instant::now() < settled, "proxy descriptors never settle");
        before = now;
    }
    let mut victim = procs.0.remove(1);
    victim.kill().expect("kill ic-node");
    victim.wait().expect("reap ic-node");
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds(&procs.0[0]) != before - 3 {
        assert!(
            Instant::now() < deadline,
            "proxy holds {} descriptors, expected {}",
            open_fds(&procs.0[0]),
            before - 3
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(open_fds(&procs.0[0]), before - 3, "three connections lost");

    let get = cli(&["get", "shared-host", "--verify"]);
    assert_ok(&get, "ic-cli get (three of five chunks lost)");
    let stdout = String::from_utf8_lossy(&get.stdout);
    assert!(stdout.contains("verify OK"), "{stdout}");
}

/// `netbench --connect` drives an already running cluster from another
/// process: every GET verifies (netbench exits 1 on any mismatch) and
/// the headline summary line covers the whole measured run.
#[test]
fn netbench_connect_drives_a_running_cluster_verified() {
    let cluster = LoopbackCluster::start(DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(8, EcConfig::new(4, 2).unwrap())
    })
    .expect("cluster starts");
    let out = Command::new(env!("CARGO_BIN_EXE_netbench"))
        .args(["--connect", &cluster.client_addr().to_string()])
        .args(["--clients", "2", "--ops", "20"])
        .args(["--size", "65536", "--keys", "4"])
        .output()
        .expect("netbench runs");
    cluster.shutdown();
    assert_ok(&out, "netbench --connect");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("40 ops in ") && l.contains(" ops/s, ")),
        "{stdout}"
    );
}
