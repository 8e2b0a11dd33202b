//! The repository's benchmark: four workloads, end-to-end metrics from
//! an untraced run and per-layer metrics from a traced one, every number
//! printed by name with its unit. See `README.md` beside this package.
//!
//! ```text
//! ic-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ic-benchmark --aa N [--seconds S]      # A/A check of every workload
//! ic-benchmark --smoke                   # all workloads at 1/50 scale
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; a line before it
//! carries the `host` block and per-round detail.

mod checks;
mod json;
mod netload;
mod probe;
mod procfs;
mod runs;
mod simload;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Json;

/// The contract file at the repository root — the single source of
/// metric names, units, bounds and the frozen run length. Embedded so a
/// run can never emit a metric the file does not declare, or miss one.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
pub struct Manifest {
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
    pub run_seconds: f64,
}

impl Manifest {
    /// The metrics a run with (`--trace 1`) or without tracing prints.
    pub fn declared(&self, trace: bool) -> &[Decl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn manifest() -> Manifest {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let decls = |key: &str| -> Vec<Decl> {
        doc.get(key)
            .map_or(&[][..], Json::items)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                Decl {
                    name: field("name").to_string(),
                    unit: field("unit").to_string(),
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    };
    Manifest {
        end_to_end: decls("end_to_end"),
        per_layer: decls("per_layer"),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
    }
}

fn single_run(m: &Manifest, workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let loadavg = procfs::read_loadavg();
    let line = runs::run_workload(m, workload, seed, seconds, trace, false).and_then(|outcome| {
        println!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {trace}, \"host\": {}, {}}}",
            procfs::host_json(&loadavg),
            outcome.detail
        );
        outcome.render(m.declared(trace))
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ic-benchmark: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ic-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ic-benchmark --aa N [--seconds S]\n\
         \x20      ic-benchmark --smoke\n\
         workloads: {:?}",
        workloads::ALL
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ic-benchmark: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let m = manifest();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let parsed = |flag: &str, default: f64| match value(flag) {
        None => Some(default),
        Some(v) => v.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0),
    };
    let Some(seconds) = parsed("--seconds", m.run_seconds) else {
        return usage();
    };
    if args.iter().any(|a| a == "--smoke") {
        return checks::smoke(&m);
    }
    if let Some(n) = value("--aa") {
        return match n.parse::<usize>() {
            Ok(n) if n > 0 => checks::aa(&m, n, seconds),
            _ => usage(),
        };
    }
    let seed = match value("--seed").map(str::parse::<u64>) {
        None => 2020,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage(),
    };
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    match value("--workload") {
        Some(workload) => single_run(&m, workload, seed, seconds, trace),
        None => usage(),
    }
}
