//! Runs every experiment binary in sequence (same process, shared trace
//! cache). `IC_SCALE=quick` makes this a minutes-scale smoke pass; the
//! default full scale regenerates every figure and table (README,
//! "Reproducing the paper").

use std::process::Command;

const BINARIES: &[&str] = &[
    "fig01_trace_characteristics",
    "fig04_colocation",
    "fig08_reclaim_timeline",
    "fig09_reclaim_distribution",
    "fig11_microbenchmark",
    "fig12_scalability",
    "fig13_cost",
    "fig14_fault_tolerance",
    "fig15_latency_cdf",
    "fig16_normalized_latency",
    "fig17_cost_crossover",
    "table1_hit_ratios",
    "sec43_availability_model",
    "ablation_backup",
    "ablation_warmup",
    "ablation_first_d",
    "ablation_function_memory",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in BINARIES {
        println!("\n================== {bin} ==================");
        let path = dir.join(bin);
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("!! {bin} failed: {other:?}");
                failed.push(*bin);
            }
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiment binaries completed", BINARIES.len());
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
