//! Workspace-level integration tests: the full stack (client library →
//! proxy → Lambda runtimes → platform → network) exercised through the
//! public APIs of the `infinicache` and `ic-net` crates, on both
//! execution substrates.

use bytes::Bytes;
use ic_common::pricing::CostCategory;
use ic_common::{
    ClientId, DeploymentConfig, EcConfig, LambdaId, ObjectKey, Payload, SimDuration, SimTime,
};
use ic_net::bench::pattern_bytes;
use ic_net::replay::StepOutcome;
use ic_net::LoopbackCluster;
use ic_simfaas::reclaim::{HourlyPoisson, NoReclaim};
use ic_workload::{generate, WorkloadSpec};
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::schedule::Schedule;
use infinicache::world::SimWorld;

mod common;
use common::sim_and_net;

fn key(s: &str) -> ObjectKey {
    ObjectKey::new(s)
}

#[test]
fn simulated_deployment_serves_a_mixed_object_population() {
    let cfg = DeploymentConfig {
        lambdas_per_proxy: 24,
        ..DeploymentConfig::small(24, EcConfig::new(10, 2).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 1);
    // Sizes spanning KBs to 100s of MBs, like the registry workload.
    let sizes = [50_000u64, 1_000_000, 25_000_000, 100_000_000, 400_000_000];
    for (i, &size) in sizes.iter().enumerate() {
        w.submit(
            SimTime::from_secs(1 + 5 * i as u64),
            ClientId(0),
            Op::Put {
                key: key(&format!("o{i}")),
                payload: Payload::synthetic(size),
            },
        );
        w.submit(
            SimTime::from_secs(60 + 5 * i as u64),
            ClientId(0),
            Op::Get {
                key: key(&format!("o{i}")),
                size,
            },
        );
    }
    w.run_until(SimTime::from_secs(200));
    let gets: Vec<_> = w
        .metrics
        .requests
        .iter()
        .filter(|r| r.kind == OpKind::Get)
        .collect();
    assert_eq!(gets.len(), sizes.len());
    for g in &gets {
        assert!(matches!(g.outcome, Outcome::Hit { .. }), "{g:?}");
    }
    // Larger objects take longer end to end.
    let small = gets.iter().find(|g| g.size == 50_000).unwrap();
    let large = gets.iter().find(|g| g.size == 400_000_000).unwrap();
    assert!(large.latency() > small.latency());
}

#[test]
fn multi_proxy_deployment_spreads_objects() {
    let cfg = DeploymentConfig {
        proxies: 4,
        lambdas_per_proxy: 16,
        backup_enabled: false,
        ..DeploymentConfig::small(16, EcConfig::new(4, 1).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 2);
    for i in 0..24u64 {
        let k = key(&format!("spread-{i}"));
        let c = ClientId((i % 2) as u16);
        w.submit(
            SimTime::from_secs(1 + i),
            c,
            Op::Put {
                key: k.clone(),
                payload: Payload::synthetic(5_000_000),
            },
        );
        w.submit(
            SimTime::from_secs(120 + i),
            c,
            Op::Get {
                key: k,
                size: 5_000_000,
            },
        );
    }
    w.run_until(SimTime::from_secs(300));
    // Every proxy should have seen traffic.
    let mut busy = 0;
    for p in 0..4u16 {
        let st = w.proxy_stats(ic_common::ProxyId(p));
        if st.get_hits > 0 {
            busy += 1;
        }
    }
    assert!(
        busy >= 3,
        "consistent hashing should use most proxies ({busy}/4)"
    );
    assert!((w.metrics.hit_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn trace_replay_hits_reasonable_ratio_and_bills_all_categories() {
    let trace = generate(&WorkloadSpec::mini(), 9);
    let cfg = DeploymentConfig {
        lambdas_per_proxy: 48,
        lambda_memory_mb: 512,
        backup_interval: SimDuration::from_mins(3),
        ..DeploymentConfig::small(48, EcConfig::new(10, 2).unwrap())
    };
    let report = infinicache::experiments::trace_replay(
        &trace,
        cfg,
        Box::new(HourlyPoisson::new(20.0, "churn")),
        SimParams::paper(),
    );
    assert!(report.hit_ratio > 0.2, "hit ratio {}", report.hit_ratio);
    assert!(report.category_cost[0] > 0.0, "serving must cost something");
    assert!(
        report.category_cost[1] > 0.0,
        "warm-ups must cost something"
    );
    assert!(report.category_cost[2] > 0.0, "backups must cost something");
    assert!(
        report.availability > 0.8,
        "availability {}",
        report.availability
    );
}

/// The loopback socket deployment is the live cluster: proxy and node
/// daemons exchanging real bytes, chunks through real Reed–Solomon.
#[test]
fn live_cluster_roundtrips_various_sizes_through_real_ec() {
    let cfg = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(10, EcConfig::new(4, 2).unwrap())
    };
    let cluster = LoopbackCluster::start(cfg).unwrap();
    let mut cache = cluster.client().unwrap();
    for len in [1usize, 100, 4096, 1 << 16, 3 * 1024 * 1024] {
        let key = format!("obj-{len}");
        let data = pattern_bytes(&key, 0, len);
        cache.put(&key, data.clone()).unwrap();
        let back = cache.get(&key).unwrap().expect("cached");
        assert_eq!(back, data, "len {len}");
    }
    cluster.shutdown();
}

#[test]
fn live_cluster_recovers_after_reclaims_and_repairs() {
    let cfg = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(12, EcConfig::new(6, 2).unwrap())
    };
    let cluster = LoopbackCluster::start(cfg).unwrap();
    let mut cache = cluster.client().unwrap();
    let data: Bytes = vec![0xA5u8; 2 << 20].into();
    cache.put("survivor", data.clone()).unwrap();
    // Reclaim nodes one at a time, reading after each; read repair keeps
    // the loss per read at <= 1 chunk, within parity.
    for node in 0..12u32 {
        cluster.reclaim_node(LambdaId(node));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let back = cache.get("survivor").unwrap().expect("recoverable");
        assert_eq!(back, data, "after reclaiming λ{node}");
    }
    assert!(
        cache.stats().recoveries > 0,
        "some reads must have recovered"
    );
    cluster.shutdown();
}

fn parity_script() -> Schedule {
    "put alpha 300000
     put beta 1200000
     get alpha
     get beta
     get ghost          # never stored: must miss on both substrates
     get alpha          # still cached: must hit again
     put alpha 300000   # a same-size overwrite ...
     get alpha          # ... must read the new version, not the old"
        .parse()
        .expect("valid schedule")
}

/// The tentpole invariant of the shared dispatch layer: the same
/// PUT/GET/miss script pushed through `SimWorld` (timed events, network
/// flows) and the socket cluster (`ic-net` loopback TCP, real bytes)
/// produces identical application-visible outcomes, because both
/// substrates execute the identical protocol actions through
/// `infinicache::dispatch`. Each key's n-th PUT stores its own bytes, so
/// a socket GET that returned the overwritten version would be
/// `Corrupt`, not `Hit`. (The driver is `ic_net::replay::run`;
/// `tests/chaos.rs` runs it on sampled schedules.)
#[test]
fn simulated_and_net_execution_agree_on_hit_miss_outcomes() {
    let script = parity_script();
    let (sim, net) = sim_and_net(&script, 1);
    assert_eq!(sim, net, "sim and net outcomes diverged");
    let expected = [
        StepOutcome::Stored,
        StepOutcome::Stored,
        StepOutcome::Hit,
        StepOutcome::Hit,
        StepOutcome::Miss,
        StepOutcome::Hit,
        StepOutcome::Stored,
        StepOutcome::Hit,
    ];
    assert_eq!(sim, expected, "script must store, hit, and miss as written");
}

/// The same script on a live two-proxy socket fleet: the client
/// ring-routes its keys across both proxies' pools, and the outcomes
/// still match the simulator's fleet — and the single-proxy outcomes.
#[test]
fn simulated_and_live_execution_agree_on_hit_miss_outcomes() {
    let script = parity_script();
    let (sim, live) = sim_and_net(&script, 2);
    assert_eq!(sim, live, "sim and live fleet outcomes diverged");
    let one_proxy = ic_net::replay::run(&script, 1, ic_net::replay::Substrate::Sim).outcomes;
    assert_eq!(sim, one_proxy, "the proxy count changed outcomes");
}

/// What the read policy did over one scenario, as the proxy and the
/// client counted it — the part of it no wall clock decides. Whether the
/// socket leg's *first* GET lands inside the PUT's 100 ms billing cycle
/// (every home a live connection: data-first) or after it (whole
/// stripe) is up to the scheduler, so the two admissions are
/// compared as a sum and the first GET's decode not at all; the
/// simulator, where time is scripted, pins them in
/// [`read_policy_on_sim`].
#[derive(Debug, PartialEq, Eq)]
struct ReadPolicyCounters {
    get_hits: u64,
    /// Data-first plus whole-stripe admissions of striped reads.
    admissions: u64,
    /// Parity released mid-GET by a miss or by a bounce / lost connection.
    mid_get_releases: [u64; 2],
    delivered: u64,
    /// Whether the lost chunk was re-inserted. Not a count: a miss that
    /// beats the delivery is repaired then and once more when the GET's
    /// accounting closes (a double repair older than this policy), so the
    /// count follows the timing.
    repaired: bool,
}

impl ReadPolicyCounters {
    fn of(proxy: ic_proxy::ProxyStats, client: ic_client::ClientStats) -> Self {
        // The second GET finds the reclaimed home down, whatever the
        // first one found.
        assert!(proxy.parity_releases_admission >= 1, "{proxy:?}");
        assert!(client.parity_decodes >= 1, "{client:?}");
        ReadPolicyCounters {
            get_hits: proxy.get_hits,
            admissions: proxy.data_first_gets + proxy.parity_releases_admission,
            mid_get_releases: [proxy.parity_releases_miss, proxy.parity_releases_bounce],
            delivered: client.hits,
            repaired: client.repaired_chunks > 0,
        }
    }
}

const POLICY_OBJECT: u64 = 300_000;
/// Longer than a billing cycle: every instance has returned, said BYE,
/// and is idle — reclaimable, as far as a provider is concerned.
const IDLE: std::time::Duration = std::time::Duration::from_millis(250);

/// The scenario on the simulator: a PUT, a GET inside the PUT's billing
/// cycle (every home a live connection), then — after the cycle lapsed —
/// the reclaim of the node holding data chunk 0 and another GET. Also
/// names that node: both substrates seed client 0 alike, so the
/// first PUT is placed alike.
fn read_policy_on_sim() -> (ReadPolicyCounters, LambdaId) {
    let params = SimParams::paper().with_seed(6); // client 0 draws from seed 7
    let mut w = SimWorld::new(
        ic_net::replay::parity_config(1),
        params,
        Box::new(NoReclaim),
        1,
    );
    w.write_through = false;
    let step = SimDuration::from_millis(1);
    let mut t = SimTime::from_secs(1);
    let mut run_to = |w: &mut SimWorld, recorded: usize| {
        while w.metrics.requests.len() < recorded {
            t += step;
            w.run_until(t);
        }
        t
    };
    w.submit(
        SimTime::from_secs(1),
        ClientId(0),
        Op::Put {
            key: key("k"),
            payload: Payload::synthetic(POLICY_OBJECT),
        },
    );
    let stored = run_to(&mut w, 1);
    let get = Op::Get {
        key: key("k"),
        size: POLICY_OBJECT,
    };
    w.submit(stored + step, ClientId(0), get.clone());
    let read = run_to(&mut w, 2);
    let healthy = w.metrics.requests[1].outcome;
    assert!(
        matches!(
            healthy,
            Outcome::Hit {
                used_parity: false,
                lost_chunks: 0
            }
        ),
        "{healthy:?}"
    );

    let proxy = &w.proxies()[0];
    let home = proxy
        .chunk_owner(&ic_common::ChunkId::new(key("k"), 0))
        .expect("stored");
    let instance = proxy
        .member(home)
        .and_then(|m| m.instance())
        .expect("woken");
    let idle = read + SimDuration::from_secs(5);
    w.run_until(idle);
    assert!(
        w.apply(infinicache::scheduler::Choice::Reclaim { instance }),
        "an instance that returned is reclaimable"
    );
    w.submit(idle + step, ClientId(0), get);
    w.run_until(idle + SimDuration::from_secs(5));
    let degraded = w.metrics.requests[2].outcome;
    assert!(
        matches!(
            degraded,
            Outcome::Hit {
                used_parity: true,
                ..
            }
        ),
        "{degraded:?}"
    );
    assert_eq!(w.check_invariants(), Vec::<String>::new());
    // Scripted time: the healthy read was admitted data-first — no
    // parity asked for, none decoded — and the degraded one whole.
    let (proxy, client) = (
        w.proxy_stats(ic_common::ProxyId(0)),
        w.client_stats(ClientId(0)),
    );
    assert_eq!(
        (proxy.data_first_gets, proxy.parity_releases_admission),
        (1, 1)
    );
    assert_eq!(client.parity_decodes, 1);
    (ReadPolicyCounters::of(proxy, client), home)
}

/// Calls `poll` (a GET of a key nobody stored: the synchronous clients
/// read their connection only inside a call) until the chunk the
/// degraded read lost has been repaired — its miss may trail the first-d
/// delivery.
fn await_repair(mut poll: impl FnMut() -> ic_client::ClientStats) -> ic_client::ClientStats {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = poll();
        if stats.repaired_chunks > 0 || std::time::Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

fn read_policy_on_net(home: LambdaId) -> ReadPolicyCounters {
    let data = pattern_bytes("k", 0, POLICY_OBJECT as usize);
    let cluster = LoopbackCluster::start(ic_net::replay::parity_config(1)).unwrap();
    let mut cache = cluster.client().unwrap();
    cache.put("k", data.clone()).unwrap();
    let (bytes, report) = cache.get_reported("k").unwrap().expect("cached");
    assert_eq!(bytes, data);
    // Only a whole-stripe read can lose the race to a parity chunk: one
    // admitted data-first asked for none.
    let raced = report.used_parity;
    std::thread::sleep(IDLE);
    cluster.reclaim_node(home);
    let (bytes, report) = cache.get_reported("k").unwrap().expect("recoverable");
    assert_eq!(bytes, data);
    assert!(report.used_parity, "the reclaimed node held a data chunk");
    let client = await_repair(|| {
        assert_eq!(cache.get("ghost").unwrap(), None);
        cache.stats()
    });
    drop(cache);
    let proxy = cluster.shutdown_with_stats().remove(0).1;
    assert!(proxy.data_first_gets == 0 || !raced);
    ReadPolicyCounters::of(proxy, client)
}

/// The read policy on both substrates: every striped read is
/// admitted once, data-first or whole; a stripe with a home known to be
/// down is asked for whole, loses one data chunk to the reclaim, decodes
/// through parity and repairs it; nothing is released mid-GET (whether
/// the loss is known by delivery time or only after is a matter of
/// timing, so `recoveries` is not compared).
#[test]
fn data_first_reads_and_their_fallback_agree_across_substrates() {
    let (sim, home) = read_policy_on_sim();
    let expected = ReadPolicyCounters {
        get_hits: 2,
        admissions: 2,
        mid_get_releases: [0, 0],
        delivered: 2,
        repaired: true,
    };
    assert_eq!(sim, expected);
    assert_eq!(read_policy_on_net(home), expected, "net");
}

#[test]
fn billing_cycles_round_up_per_invocation_end_to_end() {
    // One warm-up tick on a tiny idle pool: every invocation bills exactly
    // one 100 ms cycle at the configured memory.
    let cfg = DeploymentConfig {
        lambda_memory_mb: 1024,
        backup_enabled: false,
        ..DeploymentConfig::small(5, EcConfig::new(4, 1).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 1);
    w.run_until(SimTime::from_secs(65)); // one warm-up tick
    w.run_until(SimTime::from_secs(100));
    let warm = w.platform.billing.category(CostCategory::Warmup);
    assert_eq!(warm.invocations, 5);
    let gb = 1024.0 * 1024.0 * 1024.0 / 1e9;
    assert!(
        (warm.gb_seconds - 5.0 * 0.1 * gb).abs() < 1e-9,
        "billed {} GB-s",
        warm.gb_seconds
    );
}

#[test]
fn erasure_coding_tolerance_boundary_is_exact() {
    // With RS(4+1): exactly one loss recovers, two losses RESET.
    let cfg = DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(10, EcConfig::new(4, 1).unwrap())
    };
    let cluster = LoopbackCluster::start(cfg).unwrap();
    let mut cache = cluster.client().unwrap();
    let data: Bytes = vec![7u8; 1 << 20].into();
    cache.put("edge", data.clone()).unwrap();

    // Lose everything: with only 5 chunks on 10 nodes, reclaiming all
    // nodes guarantees > p losses.
    for node in 0..10u32 {
        cluster.reclaim_node(LambdaId(node));
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        cache.get("edge").is_err(),
        "total loss must be unrecoverable"
    );
    cluster.shutdown();
}
