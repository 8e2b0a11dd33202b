//! `mc` — run the protocol model checker from the command line.
//!
//! ```text
//! mc explore [--preset tiny|small|race|put|read] [--seed N] [--depth N] [--bfs]
//!            [--reclaims N] [--disconnects N] [--timers N] [--settle N]
//!            [--prune] [--all-violations] [--max-states N]
//!            [--bug early|stale] [--trace-out PATH]
//! mc replay --trace PATH
//! ```
//!
//! `explore` prints the exploration report and exits 1 if any violation
//! was found (writing the first minimized counterexample to
//! `--trace-out` when given). `replay` re-executes a saved trace
//! choice-for-choice and confirms the recorded violation reproduces.

use std::path::PathBuf;
use std::process::ExitCode;

use ic_mc::{explore, load_trace, replay_violates, McConfig, SearchMode};

fn usage() -> ! {
    eprintln!(
        "usage:\n  mc explore [--preset tiny|small|race|put|read] [--seed N] [--depth N] [--bfs]\n             \
         [--reclaims N] [--disconnects N] [--timers N] [--settle N] [--prune]\n             \
         [--all-violations] [--max-states N] [--bug early|stale]\n             \
         [--trace-out PATH]\n  mc replay --trace PATH"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

fn parse_num<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric argument");
        std::process::exit(2);
    })
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let mut preset = "small".to_string();
    let mut seed = 1u64;
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--preset" => preset = it.next().cloned().unwrap_or_else(|| usage()),
            "--seed" => seed = parse_num(&mut it, "--seed"),
            "--depth" | "--reclaims" | "--disconnects" | "--timers" | "--max-states"
            | "--settle" | "--bug" => {
                let v = it.next().cloned().unwrap_or_else(|| usage());
                overrides.push((a.clone(), v));
            }
            "--bfs" | "--prune" | "--all-violations" => {
                overrides.push((a.clone(), String::new()));
            }
            "--trace-out" => trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let mut cfg = match preset.as_str() {
        "tiny" => McConfig::tiny(seed),
        "small" => McConfig::small(seed),
        "race" => McConfig::race(seed),
        "put" => McConfig::put(seed),
        "read" => McConfig::read(seed),
        _ => usage(),
    };
    for (flag, v) in overrides {
        match flag.as_str() {
            "--depth" => cfg.depth = v.parse().unwrap_or_else(|_| usage()),
            "--reclaims" => cfg.max_reclaims = v.parse().unwrap_or_else(|_| usage()),
            "--disconnects" => cfg.max_disconnects = v.parse().unwrap_or_else(|_| usage()),
            "--timers" => cfg.max_timer_fires = v.parse().unwrap_or_else(|_| usage()),
            "--max-states" => cfg.max_states = v.parse().unwrap_or_else(|_| usage()),
            "--settle" => cfg.settle_prefix = v.parse().unwrap_or_else(|_| usage()),
            "--bfs" => cfg.mode = SearchMode::Bfs,
            "--prune" => cfg.prune_commuting = true,
            "--all-violations" => cfg.stop_at_first = false,
            "--bug" => match v.as_str() {
                "early" => cfg.hooks.drop_early_answers = true,
                "stale" => cfg.hooks.drop_stale_requery = true,
                _ => usage(),
            },
            _ => unreachable!("override flags are filtered above"),
        }
    }

    let started = std::time::Instant::now();
    let report = explore(&cfg);
    let secs = started.elapsed().as_secs_f64();
    println!(
        "explored {} states, {} transitions in {secs:.2}s \
         ({} deduped, {} pruned, {} terminals, {} depth cutoffs{})",
        report.states,
        report.transitions,
        report.deduped,
        report.pruned,
        report.terminals,
        report.depth_cutoffs,
        if report.capped { ", CAPPED" } else { "" },
    );
    if report.ok() {
        println!("no violations");
        return ExitCode::SUCCESS;
    }
    for v in &report.violations {
        println!(
            "VIOLATION ({}) after {} choices:",
            v.kind,
            v.trace.choices.len()
        );
        for c in &v.trace.choices {
            println!("  choice {c}");
        }
        for m in &v.messages {
            println!("  {m}");
        }
    }
    if let Some(path) = trace_out {
        match report.violations[0].save(&path) {
            Ok(()) => println!("minimized trace written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    ExitCode::FAILURE
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let Some(path) = trace else { usage() };
    let (cfg, choices, recorded) = match load_trace(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} choices over {} proxies / {} clients / {} nodes (seed {})",
        choices.len(),
        cfg.proxies,
        cfg.clients,
        cfg.lambdas_per_proxy,
        cfg.seed,
    );
    match replay_violates(&cfg, &choices) {
        Some((kind, messages)) => {
            println!("violation reproduces ({kind}):");
            for m in &messages {
                println!("  {m}");
            }
            if !recorded.is_empty() {
                println!("as recorded in the trace:");
                for r in &recorded {
                    println!("  {r}");
                }
            }
            // Reproducing the recorded violation is this command's
            // *success* mode: the trace is a live counterexample.
            ExitCode::SUCCESS
        }
        None => {
            if recorded.is_empty() {
                println!("trace replays cleanly (no violation, none recorded)");
                ExitCode::SUCCESS
            } else {
                println!(
                    "trace recorded a violation but replay found none — \
                     the protocol has likely been fixed since this trace was saved"
                );
                ExitCode::FAILURE
            }
        }
    }
}
