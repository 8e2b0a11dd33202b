//! `/proc` readers: process CPU time and peak RSS for the end-to-end
//! metrics, per-thread CPU and context switches for the per-role
//! accounting of a traced run, and the `host` block every run records.
//!
//! Every parser is a pure function over the file's text so it can be
//! tested on canned input; the `read_*` wrappers do the I/O.

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), the unit of `utime` and
/// `stime` in `/proc/<pid>/stat`. It is 100 on every Linux ABI; reading
/// it properly needs `sysconf`, which needs `unsafe`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds.
///
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// The numeric value of one `Key:   value [kB]` line of a
/// `/proc/<pid>/status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches of a `status` file.
pub fn parse_status_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// On-CPU nanoseconds of a `/proc/<pid>/task/<tid>/schedstat` line
/// (`run_ns wait_ns timeslices`). Nanosecond resolution, unlike the
/// 10 ms ticks of `stat` — which matters when fourteen node threads
/// share a few hundred milliseconds.
pub fn parse_schedstat_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Process CPU seconds so far (`/proc/self/stat`), 0 when unreadable.
pub fn read_process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

fn read_status_mib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Peak resident set size (`VmHWM`) in MiB, 0 when unreadable.
pub fn read_peak_rss_mib() -> f64 {
    read_status_mib("VmHWM")
}

/// Current resident set size (`VmRSS`) in MiB, 0 when unreadable.
pub fn read_rss_mib() -> f64 {
    read_status_mib("VmRSS")
}

/// The thread roles a traced socket run accounts CPU to, by the names
/// the substrate (and this benchmark's load generator) give its threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// This benchmark's closed-loop client threads (`bench-client-N`).
    Client,
    /// The proxy's socket I/O shards (`ic-proxy-io-N`).
    ProxyIo,
    /// The proxy's protocol thread (`ic-proxy-events`).
    ProxyEvents,
    /// The node daemons (`ic-node-N`).
    Node,
}

/// Maps a thread's `comm` to its role; `None` for the main thread and
/// anything else.
pub fn role_of(comm: &str) -> Option<Role> {
    let comm = comm.trim_end();
    if comm.starts_with("bench-client") {
        Some(Role::Client)
    } else if comm.starts_with("ic-proxy-io") {
        Some(Role::ProxyIo)
    } else if comm.starts_with("ic-proxy-events") {
        Some(Role::ProxyEvents)
    } else if comm.starts_with("ic-node") {
        Some(Role::Node)
    } else {
        None
    }
}

/// One thread's counters at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadSample {
    /// The thread's role.
    pub role: Role,
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Context switches, voluntary and not.
    pub ctx_switches: u64,
}

/// Parses one thread's three `/proc/self/task/<tid>/` files; `None` for
/// threads without a role.
pub fn parse_thread(comm: &str, schedstat: &str, status: &str) -> Option<ThreadSample> {
    Some(ThreadSample {
        role: role_of(comm)?,
        cpu_ns: parse_schedstat_cpu_ns(schedstat)?,
        ctx_switches: parse_status_ctx_switches(status)?,
    })
}

/// Samples every role-bearing thread of this process, keyed by tid.
pub fn read_threads() -> HashMap<u64, ThreadSample> {
    let mut out = HashMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let read = |file: &str| fs::read_to_string(dir.join(file)).unwrap_or_default();
        let tid = task.file_name().to_string_lossy().parse::<u64>();
        let sample = parse_thread(&read("comm"), &read("schedstat"), &read("status"));
        if let (Ok(tid), Some(sample)) = (tid, sample) {
            out.insert(tid, sample);
        }
    }
    out
}

/// CPU seconds and context switches per role between two samples. A
/// thread absent from `before` started in between and counts in full.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoleUsage {
    /// On-CPU seconds.
    pub cpu_seconds: f64,
    /// Context switches.
    pub ctx_switches: u64,
}

/// Per-role usage between two [`read_threads`] samples.
pub fn usage_between(
    before: &HashMap<u64, ThreadSample>,
    after: &HashMap<u64, ThreadSample>,
) -> HashMap<Role, RoleUsage> {
    let mut out: HashMap<Role, RoleUsage> = HashMap::new();
    for (tid, a) in after {
        let (cpu0, ctx0) = before
            .get(tid)
            .filter(|b| b.role == a.role)
            .map_or((0, 0), |b| (b.cpu_ns, b.ctx_switches));
        let u = out.entry(a.role).or_default();
        u.cpu_seconds += a.cpu_ns.saturating_sub(cpu0) as f64 / 1e9;
        u.ctx_switches += a.ctx_switches.saturating_sub(ctx0);
    }
    out
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The 1/5/15-minute load averages.
pub fn read_loadavg() -> String {
    read_trimmed("/proc/loadavg")
        .split_ascii_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `host` block: what a reader needs to judge whether two runs are
/// comparable. `loadavg_before` is passed in because it must be sampled
/// before the run loads the machine.
pub fn host_json(loadavg_before: &str) -> String {
    format!(
        "{{\"nproc\": {}, \"kernel\": \"{}\", \"loadavg_before\": \"{}\", \"loadavg_after\": \"{}\", \
         \"rustc\": \"{}\", \"git_commit\": \"{}\", \"profile\": \"release lto=thin codegen-units=1\"}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        read_trimmed("/proc/sys/kernel/osrelease"),
        loadavg_before,
        read_loadavg(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_GIT_COMMIT"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "10832 (ic bench) (x)) R 10827 10832 10827 0 -1 4194304 109 0 0 0 \
                        1234 66 0 0 20 0 19 0 302128 2703360 309 18446744073709551615 1 1 0";

    const STATUS: &str = "Name:\tic-node-3\nUmask:\t0022\nState:\tS (sleeping)\n\
                          VmPeak:\t  245652 kB\nVmHWM:\t  233196 kB\nVmRSS:\t  120000 kB\n\
                          Threads:\t19\nvoluntary_ctxt_switches:\t4021\n\
                          nonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        // utime 1234 + stime 66 ticks = 13 s; the comm holds spaces and
        // a ')' of its own.
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds(""), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(233_196));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(19));
        // A key that is only a prefix of a real one must not match.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
        assert_eq!(parse_status_ctx_switches(STATUS), Some(4038));
        assert_eq!(parse_status_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn per_task_parsers_and_roles() {
        assert_eq!(parse_schedstat_cpu_ns("570819 61241 1\n"), Some(570_819));
        assert_eq!(parse_schedstat_cpu_ns(""), None);
        assert_eq!(role_of("ic-proxy-io-1\n"), Some(Role::ProxyIo));
        assert_eq!(role_of("ic-proxy-events\n"), Some(Role::ProxyEvents));
        assert_eq!(role_of("ic-node-13\n"), Some(Role::Node));
        assert_eq!(role_of("bench-client-0\n"), Some(Role::Client));
        assert_eq!(role_of("ic-benchmark\n"), None);
        let t = parse_thread("ic-node-3\n", "2000000000 5 9\n", STATUS).unwrap();
        assert_eq!(
            t,
            ThreadSample {
                role: Role::Node,
                cpu_ns: 2_000_000_000,
                ctx_switches: 4038
            }
        );
        assert_eq!(parse_thread("main\n", "1 1 1\n", STATUS), None);
    }

    #[test]
    fn usage_is_a_per_role_delta() {
        let s = |role, cpu_ns, ctx_switches| ThreadSample {
            role,
            cpu_ns,
            ctx_switches,
        };
        let before = HashMap::from([(1, s(Role::Node, 1_000_000_000, 10))]);
        let after = HashMap::from([
            (1, s(Role::Node, 1_500_000_000, 25)),
            (2, s(Role::Node, 250_000_000, 5)), // started in between
            (3, s(Role::Client, 2_000_000_000, 7)),
        ]);
        let u = usage_between(&before, &after);
        assert_eq!(
            u[&Role::Node],
            RoleUsage {
                cpu_seconds: 0.75,
                ctx_switches: 20
            }
        );
        assert_eq!(u[&Role::Client].cpu_seconds, 2.0);
        assert!(!u.contains_key(&Role::ProxyIo));
    }

    #[test]
    fn live_procfs_reads_are_sane() {
        assert!(read_peak_rss_mib() > 0.0);
        assert!(read_process_cpu_seconds() >= 0.0);
        assert_eq!(read_loadavg().split(' ').count(), 3);
    }
}
