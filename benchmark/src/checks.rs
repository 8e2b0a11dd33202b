//! The benchmark checking itself: `--smoke` (every workload, both
//! instruments, tiny scale: names, units, invariants) and `--aa N` (the
//! same code as two interleaved sets of runs: do they agree within the
//! bounds?).

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::runs::run_workload;
use crate::workloads::{self, SIM_TRACE};
use crate::{stats, Manifest};

/// `--smoke` runs everything at this fraction of the frozen run length.
const SMOKE_SCALE: f64 = 1.0 / 50.0;

/// `--smoke`: every workload, both instruments, at 1/50 scale; checks
/// the emitted names against `BENCHMARK.json` and the invariants a
/// healthy run must show.
pub fn smoke(m: &Manifest) -> ExitCode {
    let seconds = m.run_seconds * SMOKE_SCALE;
    let mut problems = Vec::new();
    for workload in workloads::ALL {
        for trace in [false, true] {
            let tag = format!("{workload} trace={}", u8::from(trace));
            let outcome = match run_workload(m, workload, 2020, seconds, trace, true) {
                Ok(o) => o,
                Err(e) => {
                    problems.push(format!("{tag}: {e}"));
                    continue;
                }
            };
            if let Err(e) = outcome.render(m.declared(trace)) {
                problems.push(format!("{tag}: {e}"));
            }
            if !outcome.correct || outcome.failed != 0 {
                problems.push(format!(
                    "{tag}: correct={} failed={} ({})",
                    outcome.correct, outcome.failed, outcome.detail
                ));
            }
            // Rounds of a few dozen ops are too short to compare rates.
            for w in outcome
                .warnings
                .iter()
                .filter(|w| !w.contains("untraced rate"))
            {
                problems.push(format!("{tag}: {w}"));
            }
            let value = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            if workload != SIM_TRACE && !trace && value("hit_ratio") != Some(1.0) {
                problems.push(format!("{tag}: hit_ratio {:?} != 1.0", value("hit_ratio")));
            }
            println!("smoke: {tag}: {} metrics ok", outcome.metrics.len());
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Runs this binary as a child and returns its end-to-end metrics.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).into_owned());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(stdout.lines().last().unwrap_or_default())?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("child reported an incorrect run: {stdout}"));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("child printed no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// `--aa N`: every workload N times as set A and N times as set B,
/// interleaved A/B/A/B over the same seeds, as child processes (peak RSS
/// is per process). Prints per metric the two medians, their relative
/// difference against the bound, and each set's quartile spread; fails
/// on any difference or spread beyond the bound (`setup_s` spread is
/// reported only, as in the acceptance check).
pub fn aa(m: &Manifest, n: usize, seconds: f64) -> ExitCode {
    let mut breaches = 0;
    for workload in workloads::ALL {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            for set in &mut sets {
                match child_run(workload, 2020 + i as u64, seconds) {
                    Ok(metrics) => set.push(metrics),
                    Err(e) => {
                        eprintln!("aa: {workload}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("{workload}  (A/A, {n} runs per set, {seconds} s)");
        println!(
            "  {:<16} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "|A-B|/A", "spread A", "spread B", "bound"
        );
        for d in &m.end_to_end {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|kv| kv.0 == d.name).map(|kv| kv.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let diff = (ma - mb).abs() / ma;
            let spread = |v: &[f64]| {
                stats::quartiles(v).map_or(0.0, |(q1, q3)| (q3 - q1) / stats::median(v))
            };
            let (sa, sb) = (spread(&a), spread(&b));
            let bound = d.bound.unwrap_or(0.0);
            let spread_counts = d.name != "setup_s";
            let breach = diff > bound || spread_counts && (sa > bound || sb > bound);
            let wide = spread_counts && sa.max(sb) > bound / 3.0;
            breaches += usize::from(breach);
            println!(
                "  {:<16} {ma:>14.4} {mb:>14.4} {diff:>9.4} {sa:>9.4} {sb:>9.4} {bound:>7.2}{}",
                d.name,
                if breach {
                    "  BREACH"
                } else if wide {
                    "  (spread > bound/3)"
                } else {
                    ""
                }
            );
        }
    }
    if breaches == 0 {
        println!("aa: ok");
        ExitCode::SUCCESS
    } else {
        println!("aa: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}
