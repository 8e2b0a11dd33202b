//! `dbg_replay`: replay a PUT/GET script through any execution substrate
//! and diff the application-visible outcomes.
//!
//! The substrate-parity tests (`tests/end_to_end.rs`, `tests/chaos.rs`)
//! replay sampled scripts through the discrete-event world and the
//! loopback socket cluster and demand identical outcomes. When one of
//! them reports a divergence for a seed, this binary makes the failure
//! a standalone artifact — it calls the
//! *same* harness (`ic_net::replay`), so the deployment shape, payload
//! pattern, and outcome mapping cannot drift from the tests:
//!
//! ```text
//! dbg_replay --seed 42 [--steps 24] [--keys 6] [--mode all] [--proxies N]
//! dbg_replay --script repro.txt --mode net
//! dbg_replay --trace counterexample.mc --mode all
//! dbg_replay --seed 42 --dump > repro.txt    # save the script to a file
//! ```
//!
//! Script files are one step per line — `put KEY SIZE` or `get KEY`,
//! `#` comments — so a failing schedule can be saved, minimized by hand,
//! and replayed against a single substrate. Modes: `sim`, `net`, or `all`
//! (default; diffs the two and exits nonzero on divergence).
//!
//! `--trace` loads a model-checker counterexample (`ic-mc` trace
//! format) and replays its *operation schedule* through the selected
//! substrates. The adversarial interleaving itself only exists in the
//! sim scheduler — `mc replay` re-executes that — but replaying the
//! schedule here confirms the trace's workload is substrate-portable
//! and behaves identically end-to-end on both.
//!
//! `--proxies N` replays both legs on an N-proxy fleet (the
//! multi-proxy parity tests' shape).

use ic_net::replay::{replay_net_proxies, replay_sim_proxies, StepOutcome};
use infinicache::chaos::{sample_schedule, ScriptStep};

fn parse_script(path: &str) -> Vec<ScriptStep> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read --script {path}: {e}"));
    let mut steps = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("put"), Some(key), Some(size)) => steps.push(ScriptStep::Put {
                key: key.to_string(),
                size: size
                    .parse()
                    .unwrap_or_else(|_| panic!("line {}: bad size {size}", lineno + 1)),
            }),
            (Some("get"), Some(key), None) => steps.push(ScriptStep::Get {
                key: key.to_string(),
            }),
            _ => panic!(
                "line {}: expected `put KEY SIZE` or `get KEY`, got `{line}`",
                lineno + 1
            ),
        }
    }
    steps
}

/// Extracts the operation schedule from an `ic-mc` counterexample
/// trace (client assignments are dropped: the parity harness drives a
/// single client session).
fn parse_trace_schedule(path: &str) -> Vec<ScriptStep> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read --trace {path}: {e}"));
    let (cfg, _choices, _recorded) =
        ic_mc::parse_trace(&text).unwrap_or_else(|e| panic!("bad --trace {path}: {e}"));
    cfg.ops.into_iter().map(|op| op.step).collect()
}

fn main() {
    let args = ic_net::args::Args::parse();
    let script = match (args.opt("script"), args.opt("trace"), args.opt("seed")) {
        (Some(path), _, _) => parse_script(path),
        (None, Some(path), _) => parse_trace_schedule(path),
        (None, None, Some(_)) => {
            let seed: u64 = args.num("seed", 0).expect("--seed must be a number");
            let steps: usize = args.num("steps", 24).expect("--steps must be a number");
            let keys: usize = args.num("keys", 6).expect("--keys must be a number");
            sample_schedule(seed, steps, keys)
        }
        (None, None, None) => {
            eprintln!(
                "usage: dbg_replay (--script PATH | --trace PATH | --seed N) [--steps N] \
                 [--keys N] [--mode sim|net|all] [--proxies N] [--dump]"
            );
            std::process::exit(2);
        }
    };

    if args.has("dump") {
        for step in &script {
            match step {
                ScriptStep::Put { key, size } => println!("put {key} {size}"),
                ScriptStep::Get { key } => println!("get {key}"),
            }
        }
        return;
    }

    let mode = args.get("mode", "all");
    let proxies: u16 = args.num("proxies", 1).expect("--proxies must be a number");
    let mut runs: Vec<(&str, Vec<StepOutcome>)> = Vec::new();
    if mode == "sim" || mode == "all" {
        runs.push(("sim", replay_sim_proxies(&script, proxies)));
    }
    if mode == "net" || mode == "all" {
        runs.push(("net", replay_net_proxies(&script, proxies)));
    }
    if runs.is_empty() {
        eprintln!("unknown --mode {mode} (want sim, net, or all)");
        std::process::exit(2);
    }

    // Step-by-step table.
    print!("{:>4}  {:<28}", "step", "op");
    for (name, _) in &runs {
        print!("  {name:>6}");
    }
    println!();
    let mut diverged = false;
    for (i, step) in script.iter().enumerate() {
        let op = match step {
            ScriptStep::Put { key, size } => format!("put {key} ({size} B)"),
            ScriptStep::Get { key } => format!("get {key}"),
        };
        print!("{i:>4}  {op:<28}");
        let first = runs[0].1[i];
        let mut mark = "";
        for (_, outcomes) in &runs {
            print!("  {:>6}", outcomes[i].to_string());
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
        script.len()
    );
}
