//! `dbg_replay`: replay a schedule through either execution substrate
//! and diff the application-visible outcomes.
//!
//! The substrate-parity tests (`tests/end_to_end.rs`, `tests/chaos.rs`,
//! `tests/mc.rs`, `tests/trace.rs`) push schedules through the
//! discrete-event world and the loopback socket cluster and demand
//! identical outcomes. When one of them reports a divergence, this
//! binary makes the failure a standalone artifact — it calls the *same*
//! driver (`ic_net::replay::run`), so the deployment shape, payloads and
//! outcome mapping cannot drift from the tests:
//!
//! ```text
//! dbg_replay --seed 42 [--mode all] [--proxies N]
//! dbg_replay --script repro.txt --proxies 2 --mode all
//! dbg_replay --trace counterexample.mc --mode all
//! dbg_replay --seed 42 --dump > repro.txt    # save the schedule to a file
//! ```
//!
//! Script files are the `Schedule` text form, one step per line —
//! `[@SECS] [CLIENT] put KEY SIZE`, `… get KEY` or `… kill-proxy P`,
//! `#` comments — which is what a failing parity test prints, so a
//! failure can be saved, minimized by hand and replayed against one
//! substrate. `--seed N` samples the 24-step, 6-key schedule of the
//! single-proxy chaos leg. Modes: `sim`, `net`, or `all` (default;
//! diffs the two and exits nonzero on divergence).
//!
//! `--trace` loads a model-checker counterexample (`ic-mc` trace
//! format) and replays its *operation schedule* (its `op` lines)
//! through the selected substrates. The adversarial interleaving itself
//! only exists in the sim scheduler — `mc replay` re-executes that —
//! but replaying the schedule here confirms the trace's workload is
//! substrate-portable and behaves identically end-to-end on both.
//!
//! `--proxies N` replays both legs on an N-proxy fleet.

use ic_net::replay::{run, StepOutcome, Substrate};
use infinicache::schedule::Schedule;

fn read(flag: &str, path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read --{flag} {path}: {e}"))
}

fn main() {
    let args = ic_net::args::Args::parse();
    let schedule = match (args.opt("script"), args.opt("trace"), args.opt("seed")) {
        (Some(path), _, _) => read("script", path)
            .parse()
            .unwrap_or_else(|e| panic!("bad --script {path}: {e}")),
        (None, Some(path), _) => {
            ic_mc::parse_trace(&read("trace", path))
                .unwrap_or_else(|e| panic!("bad --trace {path}: {e}"))
                .0
                .ops
        }
        (None, None, Some(_)) => {
            Schedule::sample(args.num("seed", 0).expect("--seed must be a number"), 24, 6)
        }
        (None, None, None) => {
            eprintln!(
                "usage: dbg_replay (--script PATH | --trace PATH | --seed N) \
                 [--mode sim|net|all] [--proxies N] [--dump]"
            );
            std::process::exit(2);
        }
    };

    if args.has("dump") {
        print!("{schedule}");
        return;
    }

    let mode = args.get("mode", "all");
    let proxies: u16 = args.num("proxies", 1).expect("--proxies must be a number");
    let mut runs: Vec<(&str, Vec<StepOutcome>)> = Vec::new();
    if mode == "sim" || mode == "all" {
        runs.push(("sim", run(&schedule, proxies, Substrate::Sim).outcomes));
    }
    if mode == "net" || mode == "all" {
        let net = run(&schedule, proxies, Substrate::Net { time_scale: 0.0 });
        runs.push(("net", net.outcomes));
    }
    if runs.is_empty() {
        eprintln!("unknown --mode {mode} (want sim, net, or all)");
        std::process::exit(2);
    }

    // Step-by-step table.
    print!("{:>4}  {:<28}", "step", "op");
    for (name, _) in &runs {
        print!("  {name:>11}");
    }
    println!();
    let mut diverged = false;
    for (i, step) in schedule.steps.iter().enumerate() {
        print!("{i:>4}  {:<28}", format!("{} {}", step.client, step.action));
        let first = runs[0].1[i];
        let mut mark = "";
        for (_, outcomes) in &runs {
            print!("  {:>11}", format!("{:?}", outcomes[i]).to_lowercase());
            if outcomes[i] != first {
                mark = "  <-- DIVERGED";
                diverged = true;
            }
        }
        println!("{mark}");
    }
    if diverged {
        eprintln!("substrates diverged");
        std::process::exit(1);
    }
    println!(
        "all {} substrate(s) agree over {} steps",
        runs.len(),
        schedule.steps.len()
    );
}
