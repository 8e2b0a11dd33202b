//! The four workloads' runners: what an untraced run and a traced run of
//! each measure, and how the measurements become named metrics.

use std::fmt::Write as _;

use crate::netload::{percentile_us, Phase, Rig};
use crate::probe::{self, ProbeReport};
use crate::procfs::{self, Role};
use crate::workloads::{self, NetSpec, Op, CLIENTS, ROUNDS, SIM_TRACE, TRACE_FRACTION};
use crate::{simload, spans, stats, Decl, Manifest};

/// The result of one run, before rendering.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra JSON members for the detail line (no braces).
    pub detail: String,
    /// Doubts about the run's validity that do not make it incorrect.
    pub warnings: Vec<String>,
}

/// Set-ups per untraced measuring run; `setup_s` is their median. (A
/// smoke run sets up once and accepts percentiles its few samples cannot
/// support.)
const SETUP_REPEATS: usize = 3;

fn setup_repeats(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        SETUP_REPEATS
    }
}

pub type Metrics = Vec<(String, f64)>;

fn named(metrics: Vec<(&str, f64)>) -> Metrics {
    metrics
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// Per-layer metrics only the simulator workload can produce.
fn is_sim_metric(name: &str) -> bool {
    name == "cost_vs_elasticache"
        || ["core.", "simfaas.", "cost.", "trace.", "baselines.", "sim."]
            .iter()
            .any(|p| name.starts_with(p))
}

/// Per-layer metrics every workload produces.
fn is_shared_metric(name: &str) -> bool {
    matches!(name, "net.trace_overhead_ratio" | "bench.round_spread")
}

/// Zeroes for the declared per-layer metrics that belong to the other
/// substrate (`sim` says which one is running).
fn other_substrate_zeroes(
    per_layer: &[Decl],
    sim: bool,
) -> impl Iterator<Item = (String, f64)> + '_ {
    per_layer
        .iter()
        .filter(move |d| !is_shared_metric(&d.name) && is_sim_metric(&d.name) != sim)
        .map(|d| (d.name.clone(), 0.0))
}

fn fmt_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

// ----------------------------------------------------------------------
// Socket workloads
// ----------------------------------------------------------------------

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Hit ratio and availability of a phase: GETs that returned an object,
/// and GETs not lost to more than `p` missing chunks, over GETs of
/// stored keys (every key is stored).
fn hit_and_availability(phase: &Phase) -> (f64, f64) {
    let gets = phase.gets() as u64;
    (
        ratio(phase.total(|r| r.hits), gets),
        ratio(gets - phase.total(|r| r.unavailable), gets),
    )
}

fn net_end_to_end(spec: &NetSpec, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let ops = spec.measured_ops(seconds);
    let mut setups = Vec::with_capacity(setup_repeats(smoke));
    let mut rig = None;
    for _ in 0..setup_repeats(smoke) {
        if let Some(old) = rig.take() {
            Rig::shutdown(old);
        }
        let (r, s) = Rig::setup(spec, seed, ops, ops).map_err(|e| e.to_string())?;
        setups.push(s);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let phase = rig.run_phase(ops, ROUNDS, false);
    rig.shutdown();

    let (hit_ratio, availability) = hit_and_availability(&phase);
    let ops_per_s = phase.ops_per_s();
    let failed = phase.total(|r| r.failed);
    let metrics = named(vec![
        ("setup_s", stats::median(&setups)),
        ("ops_per_s", stats::median(&ops_per_s)),
        ("get_p50_us", phase.median_round_get_us(0.50, !smoke)?),
        ("get_p99_us", phase.median_round_get_us(0.99, !smoke)?),
        ("cpu_us_per_op", phase.cpu_us_per_op()),
        ("peak_rss_mib", procfs::read_peak_rss_mib()),
        ("hit_ratio", hit_ratio),
        ("availability", availability),
    ]);
    let detail = format!(
        "\"ops\": {}, \"rounds\": {ROUNDS}, \"gets_per_round\": {}, \"setups_s\": {}, \
         \"round_ops_per_s\": {}, \"round_rss_mib\": {}, \"round_spread\": {:.4}, \"reconstructs\": {}, \
         \"sequence_hash\": \"{:016x}\"",
        phase.ops(),
        phase.gets() / ROUNDS,
        fmt_list(&setups),
        fmt_list(&ops_per_s),
        fmt_list(&phase.rounds.iter().map(|r| r.rss_mib).collect::<Vec<_>>()),
        stats::spread(&ops_per_s),
        phase.total(|r| r.reconstructs),
        workloads::sequence_hash(&workloads::op_sequence(spec, seed, 0, ops / CLIENTS)),
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: phase.ops() as u64,
        failed,
        metrics,
        detail,
        warnings: Vec::new(),
    })
}

/// The two clients' sequences interleaved, as one thread replays them.
fn interleave(spec: &NetSpec, seed: u64, per_client: usize) -> Vec<(usize, Op)> {
    let seqs: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| workloads::op_sequence(spec, seed, c, per_client))
        .collect();
    (0..per_client)
        .flat_map(|i| (0..CLIENTS).map(move |c| (c, i)))
        .map(|(c, i)| (c, seqs[c][i]))
        .collect()
}

fn net_traced(
    spec: &NetSpec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    per_layer: &[Decl],
) -> Result<Outcome, String> {
    let n = spec.measured_ops(seconds * TRACE_FRACTION);
    let (mut rig, _) = Rig::setup(spec, seed, n, 2 * n).map_err(|e| e.to_string())?;
    let untraced = rig.run_phase(n, ROUNDS, false);
    let wire0 = rig.wire_stats();
    let traced = rig.run_phase(n, ROUNDS, true);
    let wire1 = rig.wire_stats();
    rig.shutdown();

    let warm = workloads::warmup_ops_per_client(n);
    let plan = interleave(spec, seed, warm + n / CLIENTS);
    let probe = probe::run(spec, seed, &plan, warm * CLIENTS);
    dump_spans(spec.name, &traced, &probe);

    let ops = traced.ops() as f64;
    let per_op = |v: f64| v / ops;
    let role_cpu_us =
        |role: Role| per_op(traced.roles.get(&role).map_or(0.0, |u| u.cpu_seconds) * 1e6);
    let ctx: u64 = traced.roles.values().map(|u| u.ctx_switches).sum();
    let writes = (wire1.vectored_writes - wire0.vectored_writes) as f64;
    let frames = (wire1.frames_written - wire0.frames_written) as f64;

    // The traced phase's latencies are its op spans' durations.
    let traced_get_p50 = percentile_us(&traced.pooled(|r| &r.get_ns), 0.50, !smoke)?;
    let traced_put_p50 = percentile_us(&traced.pooled(|r| &r.put_ns), 0.50, !smoke)?;
    let untraced_puts = untraced.pooled(|r| &r.put_ns);
    let pipeline_get = probe.pipeline_us(probe::GET);
    let pipeline_put = probe.pipeline_us(probe::PUT);
    let get_share = probe.gets as f64 / probe.ops as f64;
    let mix = |get: f64, put: f64| get * get_share + put * (1.0 - get_share);
    let transport_get = traced_get_p50 - pipeline_get;
    let transport_put = if probe.puts == 0 {
        0.0
    } else {
        traced_put_p50 - pipeline_put
    };
    let transport = mix(transport_get, transport_put);
    let op_p50 = mix(traced_get_p50, traced_put_p50);

    let untraced_rate = stats::median(&untraced.ops_per_s());
    let overhead = stats::median(&traced.ops_per_s()) / untraced_rate;
    let user_bytes = (probe.ops * spec.object_bytes) as f64;
    let (plan_hits, plan_misses) = probe.plan_cache;
    let failed = untraced.total(|r| r.failed) + traced.total(|r| r.failed) + probe.failed;
    let attempted = (untraced.ops() + traced.ops() + probe.ops) as u64;
    let reconstruct_ratio = ratio(traced.total(|r| r.reconstructs), traced.gets() as u64);

    let mut metrics = named(vec![
        ("put_p50_us", percentile_us(&untraced_puts, 0.50, !smoke)?),
        ("put_p99_us", percentile_us(&untraced_puts, 0.99, !smoke)?),
        ("fail_ratio", ratio(failed, attempted)),
        ("ec.encode_us_per_put", probe.ec_encode_us_per_put()),
        ("ec.decode_us_per_get", probe.ec_decode_us_per_get()),
        (
            "ec.reconstruct_us_per_get",
            probe.ec_reconstruct_us_per_get(),
        ),
        ("ec.reconstruct_ratio", reconstruct_ratio),
        (
            "ec.plan_cache_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
        ),
        (
            "frame.encode_us_per_op",
            probe.layer_us_per_op(probe::FRAME_ENCODE),
        ),
        (
            "frame.copy_us_per_op",
            probe.layer_us_per_op(probe::FRAME_COPY),
        ),
        (
            "frame.decode_us_per_op",
            probe.layer_us_per_op(probe::FRAME_DECODE),
        ),
        ("frame.msgs_per_op", probe.frames as f64 / probe.ops as f64),
        (
            "frame.wire_bytes_per_user_byte",
            probe.wire_bytes as f64 / user_bytes,
        ),
        (
            "client.lib_us_per_op",
            probe.layer_us_per_op(probe::CLIENT_LIB),
        ),
        (
            "proxy.dispatch_us_per_op",
            probe.layer_us_per_op(probe::PROXY_DISPATCH),
        ),
        (
            "proxy.actions_per_op",
            probe.proxy_actions as f64 / probe.ops as f64,
        ),
        (
            "lambda.runtime_us_per_op",
            probe.layer_us_per_op(probe::LAMBDA_RUNTIME),
        ),
        (
            "lambda.store_bytes_per_user_byte",
            probe.stored_bytes as f64 / (spec.keys * spec.object_bytes) as f64,
        ),
        ("pipeline.us_per_op", mix(pipeline_get, pipeline_put)),
        ("pipeline.get_us", pipeline_get),
        ("pipeline.put_us", pipeline_put),
        ("pipeline.glue_share", probe.glue_share()),
        ("pipeline.tail_us_per_op", probe.tail_us_per_op()),
        ("net.traced_get_p50_us", traced_get_p50),
        ("net.traced_put_p50_us", traced_put_p50),
        ("net.get_transport_us", transport_get),
        ("net.put_transport_us", transport_put),
        ("net.transport_us_per_op", transport),
        ("net.transport_share", transport / op_p50),
        ("net.client_cpu_us_per_op", role_cpu_us(Role::Client)),
        ("net.proxy_io_cpu_us_per_op", role_cpu_us(Role::ProxyIo)),
        (
            "net.proxy_events_cpu_us_per_op",
            role_cpu_us(Role::ProxyEvents),
        ),
        ("net.node_cpu_us_per_op", role_cpu_us(Role::Node)),
        ("net.vectored_writes_per_op", per_op(writes)),
        (
            "net.frames_per_write",
            if writes > 0.0 { frames / writes } else { 0.0 },
        ),
        ("net.ctx_switches_per_op", per_op(ctx as f64)),
        ("net.trace_overhead_ratio", overhead),
        ("bench.round_spread", stats::spread(&untraced.ops_per_s())),
    ]);
    metrics.extend(other_substrate_zeroes(per_layer, false));

    // `correct` covers the outputs; `warnings` the validity of the
    // decomposition, which short phases on a shared host can disturb.
    let mut warnings = Vec::new();
    if probe.glue_us_per_op() > 0.05 * op_p50 {
        warnings.push(format!(
            "probe glue {:.1} us/op exceeds 5% of the traced op p50 {op_p50:.1} us",
            probe.glue_us_per_op()
        ));
    }
    if transport_get < 0.0 || transport_put < 0.0 {
        warnings.push("pipeline cost exceeds the traced socket latency".into());
    }
    if overhead < 0.9 {
        warnings.push(format!(
            "traced phase ran at {overhead:.3} of the untraced rate"
        ));
    }
    // With p nodes dead a GET dodges reconstruction only when both held
    // parity (1 stripe in 15 at 4+2): a ratio far below that means the
    // kill did not take.
    let degraded_ok = spec.kill_nodes == 0 || reconstruct_ratio >= 0.8;
    let detail = format!(
        "\"ops_per_phase\": {n}, \"probe_ops\": {}, \"probe_reconstructs\": {}, \
         \"untraced_ops_per_s\": {untraced_rate:.3}, \"warnings\": [{}]",
        probe.ops,
        probe.reconstructs,
        warnings
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    Ok(Outcome {
        correct: failed == 0 && degraded_ok,
        attempted,
        failed,
        metrics,
        detail,
        warnings,
    })
}

/// Leaves the spans of the first hundred operations of both instruments
/// under `benchmark/out/` for inspection.
fn dump_spans(workload: &str, traced: &Phase, probe: &ProbeReport) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(
        format!("{dir}/spans-{workload}-socket.json"),
        spans::dump_json(&traced.spans, 100),
    );
    let _ = std::fs::write(
        format!("{dir}/spans-{workload}-probe.json"),
        spans::dump_json(&probe.spans, 100),
    );
}

// ----------------------------------------------------------------------
// Simulator workload
// ----------------------------------------------------------------------

fn sim_setups(seed: u64, hours: u64, repeats: usize) -> Vec<simload::Setup> {
    (0..repeats).map(|_| simload::setup(seed, hours)).collect()
}

fn sim_end_to_end(seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let hours = simload::horizon_hours(seconds);
    let setups = sim_setups(seed, hours, setup_repeats(smoke));
    let setup_s: Vec<f64> = setups.iter().map(simload::Setup::total_s).collect();
    let setup = setups.last().expect("at least one set-up");
    let run = simload::replay(setup);
    let r = &run.report;
    let gets = r.gets as f64;
    let metrics = named(vec![
        ("setup_s", stats::median(&setup_s)),
        ("ops_per_s", gets / run.wall_s),
        // Simulated latencies: a pure function of (trace, world seed).
        ("get_p50_us", r.get_latency_ms[0] * 1e3),
        ("get_p99_us", r.get_latency_ms[2] * 1e3),
        ("cpu_us_per_op", run.cpu_s * 1e6 / gets),
        ("peak_rss_mib", procfs::read_peak_rss_mib()),
        ("hit_ratio", r.hit_ratio),
        ("availability", r.availability),
    ]);
    let correct = setup.roundtrip_ok
        && r.ops == setup.data.records.len()
        && r.gets == setup.data.gets()
        && r.hit_ratio > 0.0
        && r.availability > 0.0;
    let detail = format!(
        "\"trace_hours\": {hours}, \"records\": {}, \"wall_s\": {:.4}, \"setups_s\": {}, \
         \"cost_vs_elasticache\": {:.4}, \"resets\": {}, \"recoveries\": {}",
        r.ops,
        run.wall_s,
        fmt_list(&setup_s),
        setup.baselines.cost_vs_elasticache(r.total_cost),
        r.resets,
        r.recoveries,
    );
    Outcome {
        correct,
        attempted: r.gets as u64,
        failed: 0,
        metrics,
        detail,
        warnings: Vec::new(),
    }
}

fn sim_traced(seed: u64, seconds: f64, smoke: bool, per_layer: &[Decl]) -> Outcome {
    let hours = simload::horizon_hours(seconds);
    let setups = sim_setups(seed, hours, setup_repeats(smoke));
    let med =
        |f: fn(&simload::Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let setup = setups.last().expect("at least one set-up");
    let records = setup.data.records.len() as f64;
    let product = simload::replay(setup);
    let own = simload::replay_traced(setup);
    let agrees = own.agrees_with(&product.report);
    let gets = product.report.gets as f64;
    let events = own.events as f64;
    let total_cost: f64 = own.cost.iter().sum();

    let mut metrics = named(vec![
        (
            "cost_vs_elasticache",
            setup.baselines.cost_vs_elasticache(total_cost),
        ),
        ("core.sim_events_per_s", events / own.wall_s),
        ("core.sim_events_per_op", events / gets),
        ("core.sim_us_per_event", own.wall_s * 1e6 / events),
        (
            "simfaas.queue_ns_per_event",
            simload::queue_ns_per_event(own.mean_queue_depth as usize),
        ),
        ("core.reclaims", own.reclaims as f64),
        ("core.recoveries", own.recoveries as f64),
        ("cost.serving_usd", own.cost[0]),
        ("cost.warmup_usd", own.cost[1]),
        ("cost.backup_usd", own.cost[2]),
        ("trace.synth_s", med(|s| s.synth_s)),
        ("trace.encode_records_per_s", records / med(|s| s.encode_s)),
        ("trace.decode_records_per_s", records / med(|s| s.decode_s)),
        ("baselines.pricing_s", med(|s| s.pricing_s)),
        ("sim.replay_agreement", f64::from(u8::from(agrees))),
        // Two executions of one deterministic computation: how far their
        // wall times disagree is host disturbance, nothing else.
        ("net.trace_overhead_ratio", product.wall_s / own.wall_s),
        (
            "bench.round_spread",
            (product.wall_s - own.wall_s).abs() / product.wall_s,
        ),
    ]);
    metrics.extend(other_substrate_zeroes(per_layer, true));
    let detail = format!(
        "\"trace_hours\": {hours}, \"events\": {}, \"mean_queue_depth\": {:.0}, \
         \"product_wall_s\": {:.4}, \"own_wall_s\": {:.4}",
        own.events, own.mean_queue_depth, product.wall_s, own.wall_s
    );
    Outcome {
        correct: agrees && setup.roundtrip_ok,
        attempted: product.report.gets as u64,
        failed: 0,
        metrics,
        detail,
        warnings: Vec::new(),
    }
}

// ----------------------------------------------------------------------
// Running and rendering
// ----------------------------------------------------------------------

pub fn run_workload(
    m: &Manifest,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    match (workloads::net_spec(workload), trace) {
        (Some(spec), false) => net_end_to_end(&spec, seed, seconds, smoke),
        (Some(spec), true) => net_traced(&spec, seed, seconds, smoke, &m.per_layer),
        (None, false) if workload == SIM_TRACE => Ok(sim_end_to_end(seed, seconds, smoke)),
        (None, true) if workload == SIM_TRACE => Ok(sim_traced(seed, seconds, smoke, &m.per_layer)),
        _ => Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::ALL
        )),
    }
}

impl Outcome {
    /// Checks the emitted metrics against the declared ones (every declared
    /// name exactly once, nothing undeclared, well-formed names) and renders
    /// the result line.
    pub fn render(&self, declared: &[Decl]) -> Result<String, String> {
        let outcome = self;
        let mut problems = Vec::new();
        for d in declared {
            let n = outcome.metrics.iter().filter(|m| m.0 == d.name).count();
            if n != 1 {
                problems.push(format!("{} emitted {n} times", d.name));
            }
        }
        for (name, value) in &outcome.metrics {
            let well_formed = !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
            if !well_formed || !declared.iter().any(|d| d.name == *name) {
                problems.push(format!("{name} is not a declared metric name"));
            }
            if !value.is_finite() {
                problems.push(format!("{name} is {value}"));
            }
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            outcome.correct, outcome.attempted, outcome.failed
        );
        for (i, d) in declared.iter().enumerate() {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.0 == d.name)
                .expect("checked above")
                .1;
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints every digit an f64 holds.
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}
