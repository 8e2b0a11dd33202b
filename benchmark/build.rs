//! Records which compiler and which commit built the benchmark, for the
//! `host` block of its output. Neither is available at run time without
//! spawning processes; both are facts about the build anyway.

use std::process::Command;

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=BENCH_RUSTC_VERSION={}",
        first_line(Command::new(rustc).arg("--version"))
    );
    // A checkout that is not a git repository (an exported tree) builds
    // fine and records "unknown".
    println!(
        "cargo:rustc-env=BENCH_GIT_COMMIT={}",
        first_line(Command::new("git").args(["rev-parse", "HEAD"]))
    );
}
