//! The socket workloads' load generator: a closed loop of
//! [`CLIENTS`] threads, one `NetClient` each, against a
//! `LoopbackCluster`, measured in rounds.
//!
//! Each client PUTs only to its own key slice, remembers the bytes it
//! last stored under every key, and compares every GET against them —
//! the stored bytes are `ic_net::bench::pattern_bytes(key, version)`, so
//! a stale or torn read cannot pass.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_common::{DeploymentConfig, EcConfig, Error, LambdaId};
use ic_net::bench::pattern_bytes;
use ic_net::{LoopbackCluster, NetClient, WireSnapshot};

use crate::procfs::{self, Role, RoleUsage};
use crate::spans::{Recorder, Span};
use crate::stats;
use crate::workloads::{key_name, op_sequence, warmup_ops_per_client, NetSpec, Op, CLIENTS};

/// One client thread's connection and what it knows it stored.
struct ClientCtx {
    index: usize,
    client: NetClient,
    keys: Vec<String>,
    versions: Vec<u64>,
    expected: Vec<Bytes>,
}

/// What one client measured in one round.
#[derive(Default)]
struct RoundSamples {
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    /// GETs that returned an object.
    hits: u64,
    /// GETs lost to more than `p` missing chunks.
    unavailable: u64,
    /// GETs that decoded through parity.
    reconstructs: u64,
    /// Errors, timeouts, misses of stored keys and verify failures.
    failed: u64,
}

/// One measured round, both clients merged.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds between the round's start and end barriers.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) over the same interval.
    pub cpu_s: f64,
    /// Resident set size at the round's end barrier, MiB.
    pub rss_mib: f64,
    /// GET latencies, ns, ascending.
    pub get_ns: Vec<u64>,
    /// PUT latencies, ns, ascending.
    pub put_ns: Vec<u64>,
    /// GETs that returned an object.
    pub hits: u64,
    /// GETs lost to more than `p` missing chunks.
    pub unavailable: u64,
    /// GETs that decoded through parity.
    pub reconstructs: u64,
    /// Failed operations.
    pub failed: u64,
}

impl Round {
    /// Operations the round attempted.
    pub fn ops(&self) -> usize {
        self.get_ns.len() + self.put_ns.len()
    }
}

/// A measured phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Its rounds, in order.
    pub rounds: Vec<Round>,
    /// Op spans, when the phase was traced (all clients, unordered).
    pub spans: Vec<Span>,
    /// Per-role thread CPU and context switches over the whole phase,
    /// when it was traced.
    pub roles: HashMap<Role, RoleUsage>,
}

impl Phase {
    /// Sum over rounds of `f`.
    pub fn total(&self, f: impl Fn(&Round) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }

    /// Operations attempted.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(Round::ops).sum()
    }

    /// GETs attempted.
    pub fn gets(&self) -> usize {
        self.rounds.iter().map(|r| r.get_ns.len()).sum()
    }

    /// Per-round operations per wall second.
    pub fn ops_per_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.ops() as f64 / r.wall_s)
            .collect()
    }

    /// Process CPU microseconds per operation over the whole phase. Not a
    /// median of rounds: `/proc/self/stat` counts 10 ms ticks, and a
    /// round's few hundred ticks would quantize the result into a
    /// handful of values.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.rounds.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6 / self.ops() as f64
    }

    /// A GET latency percentile in microseconds, as the median of the
    /// per-round values.
    ///
    /// # Errors
    ///
    /// See [`percentile_us`]; every round must support the percentile.
    pub fn median_round_get_us(&self, p: f64, strict: bool) -> Result<f64, String> {
        let per_round: Result<Vec<f64>, String> = self
            .rounds
            .iter()
            .map(|r| percentile_us(&r.get_ns, p, strict))
            .collect();
        Ok(stats::median(&per_round?))
    }

    /// All rounds' latencies of one kind pooled, ascending.
    pub fn pooled(&self, f: impl Fn(&Round) -> &Vec<u64>) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Nearest-rank percentile of an ascending latency sample, in
/// microseconds; 0 for an empty sample (a workload without that op
/// kind). With `strict` the sample must hold ≥ 10 values beyond the
/// percentile; otherwise the nearest-rank value of a too-small sample is
/// accepted (smoke runs).
///
/// # Errors
///
/// Says how many samples there were when `strict` rejects them.
pub fn percentile_us(sorted: &[u64], p: f64, strict: bool) -> Result<f64, String> {
    if sorted.is_empty() {
        return Ok(0.0);
    }
    match stats::percentile(sorted, p) {
        Ok(ns) => Ok(ns as f64 / 1e3),
        Err(u) if !strict => Ok(u.nearest as f64 / 1e3),
        Err(u) => Err(format!(
            "{} samples are too few for p{:.0} with 10 beyond it",
            u.samples,
            p * 100.0
        )),
    }
}

/// A started cluster with connected, preloaded, warmed-up clients.
pub struct Rig {
    spec: NetSpec,
    cluster: LoopbackCluster,
    ctxs: Vec<ClientCtx>,
    /// Each client's full op sequence; phases consume it front to back.
    plans: Vec<std::vec::IntoIter<Op>>,
}

fn deployment(spec: &NetSpec) -> Result<DeploymentConfig, Error> {
    Ok(DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(spec.nodes, EcConfig::new(spec.ec_data, spec.ec_parity)?)
    })
}

impl Rig {
    /// Set-up, timed: cluster start, connect, preload of every key,
    /// node kills (degraded workload), and a fixed-count unmeasured
    /// warm-up of 10% of `measured_ops`. `total_ops` is
    /// how many measured ops (all phases together) will follow, so the
    /// clients' sequences can be drawn once.
    ///
    /// # Errors
    ///
    /// Any cluster, connect or preload failure.
    pub fn setup(
        spec: &NetSpec,
        seed: u64,
        measured_ops: usize,
        total_ops: usize,
    ) -> Result<(Rig, f64), Error> {
        let t0 = Instant::now();
        let mut cluster = LoopbackCluster::start(deployment(spec)?)?;
        let per_client_keys = spec.keys / CLIENTS;
        let warm = warmup_ops_per_client(measured_ops);
        let mut ctxs = Vec::with_capacity(CLIENTS);
        let mut plans = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut client = cluster.client_seeded(seed ^ ((c as u64 + 1) << 32))?;
            client.set_op_timeout(Duration::from_secs(10));
            let keys: Vec<String> = (0..per_client_keys as u32)
                .map(|k| key_name(c, k))
                .collect();
            ctxs.push(ClientCtx {
                index: c,
                client,
                versions: vec![0; keys.len()],
                expected: Vec::with_capacity(keys.len()),
                keys,
            });
            plans.push(op_sequence(spec, seed, c, warm + total_ops / CLIENTS).into_iter());
        }
        // Preload: every client stores version 0 of its own keys.
        let size = spec.object_bytes;
        std::thread::scope(|s| {
            let handles: Vec<_> = ctxs
                .iter_mut()
                .map(|ctx| {
                    s.spawn(move || -> Result<(), Error> {
                        for key in &ctx.keys {
                            let data = pattern_bytes(key, 0, size);
                            ctx.client.put(key, data.clone())?;
                            ctx.expected.push(data);
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("preload thread panicked"))
        })?;
        for l in 0..spec.kill_nodes {
            cluster.kill_node(LambdaId(l));
        }
        let mut rig = Rig {
            spec: *spec,
            cluster,
            ctxs,
            plans,
        };
        let warmup = rig.run_phase(warm * CLIENTS, 1, false);
        let failed = warmup.total(|r| r.failed);
        if failed > 0 {
            return Err(Error::Transport(format!(
                "{failed} warm-up operations failed"
            )));
        }
        Ok((rig, t0.elapsed().as_secs_f64()))
    }

    /// Runs the next `ops` operations of the clients' sequences as
    /// `rounds` equal rounds. The calling thread stands at the barriers
    /// that open and close each round and stamps wall and CPU time there.
    /// A traced phase also records one span per op and samples every
    /// thread's CPU and context switches before the first round and
    /// after the last (the client threads live exactly as long as the
    /// phase, so they are sampled before they may exit).
    pub fn run_phase(&mut self, ops: usize, rounds: usize, trace: bool) -> Phase {
        let per_round = ops / CLIENTS / rounds;
        let barrier = Barrier::new(CLIENTS + 1);
        let size = self.spec.object_bytes;
        let mut phase = Phase::default();
        let epoch = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .ctxs
                .iter_mut()
                .zip(self.plans.iter_mut())
                .map(|(ctx, plan)| {
                    let barrier = &barrier;
                    std::thread::Builder::new()
                        .name(format!("bench-client-{}", ctx.index))
                        .spawn_scoped(s, move || {
                            let mut rec = trace.then(|| Recorder::at(epoch));
                            let mut out = Vec::with_capacity(rounds);
                            let mut op_id = 0;
                            for _ in 0..rounds {
                                barrier.wait();
                                let mut samples = RoundSamples::default();
                                for op in plan.by_ref().take(per_round) {
                                    if let Some(rec) = rec.as_mut() {
                                        rec.set_op(op_id * CLIENTS as u32 + ctx.index as u32);
                                    }
                                    op_id += 1;
                                    run_op(ctx, op, size, &mut samples, rec.as_mut());
                                }
                                barrier.wait();
                                out.push(samples);
                            }
                            barrier.wait(); // hold the thread until it was sampled
                            (out, rec.map_or(Vec::new(), |r| r.spans().to_vec()))
                        })
                        .expect("spawn client thread")
                })
                .collect();
            let before = if trace {
                procfs::read_threads()
            } else {
                HashMap::new()
            };
            for _ in 0..rounds {
                barrier.wait();
                let (t0, cpu0) = (Instant::now(), procfs::read_process_cpu_seconds());
                barrier.wait();
                phase.rounds.push(Round {
                    wall_s: t0.elapsed().as_secs_f64(),
                    cpu_s: procfs::read_process_cpu_seconds() - cpu0,
                    rss_mib: procfs::read_rss_mib(),
                    ..Round::default()
                });
            }
            if trace {
                phase.roles = procfs::usage_between(&before, &procfs::read_threads());
            }
            barrier.wait();
            for h in handles {
                let (per_round, spans) = h.join().expect("client thread panicked");
                phase.spans.extend(spans);
                for (round, s) in phase.rounds.iter_mut().zip(per_round) {
                    round.get_ns.extend(s.get_ns);
                    round.put_ns.extend(s.put_ns);
                    round.hits += s.hits;
                    round.unavailable += s.unavailable;
                    round.reconstructs += s.reconstructs;
                    round.failed += s.failed;
                }
            }
        });
        for r in &mut phase.rounds {
            r.get_ns.sort_unstable();
            r.put_ns.sort_unstable();
        }
        phase
    }

    /// The proxy's socket-write counters so far.
    pub fn wire_stats(&self) -> WireSnapshot {
        self.cluster.wire_stats()
    }

    /// Stops the clients, the proxy and every node daemon.
    pub fn shutdown(self) {
        drop(self.ctxs);
        self.cluster.shutdown();
    }
}

/// One closed-loop operation: timed, then (outside the timed interval)
/// verified against the bytes this client last stored under the key.
fn run_op(
    ctx: &mut ClientCtx,
    op: Op,
    size: usize,
    samples: &mut RoundSamples,
    rec: Option<&mut Recorder>,
) {
    let k = op.key as usize;
    let (t0, t1, name);
    if op.is_get {
        t0 = Instant::now();
        let got = ctx.client.get_reported(&ctx.keys[k]);
        t1 = Instant::now();
        name = "net.get";
        samples.get_ns.push((t1 - t0).as_nanos() as u64);
        match got {
            Ok(Some((bytes, report))) => {
                samples.hits += 1;
                samples.reconstructs += u64::from(report.used_parity);
                if bytes != ctx.expected[k] {
                    samples.failed += 1;
                }
            }
            // Every key was stored, so a miss is a failure too.
            Ok(None) => samples.failed += 1,
            Err(Error::ChunkUnavailable { .. }) => {
                samples.unavailable += 1;
                samples.failed += 1;
            }
            Err(_) => samples.failed += 1,
        }
    } else {
        ctx.versions[k] += 1;
        let data = pattern_bytes(&ctx.keys[k], ctx.versions[k], size);
        t0 = Instant::now();
        let put = ctx.client.put(&ctx.keys[k], data.clone());
        t1 = Instant::now();
        name = "net.put";
        samples.put_ns.push((t1 - t0).as_nanos() as u64);
        match put {
            Ok(()) => ctx.expected[k] = data,
            Err(_) => samples.failed += 1,
        }
    }
    if let Some(rec) = rec {
        rec.push(name, t0, t1);
    }
}
