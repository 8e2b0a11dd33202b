//! Experiment-facing measurements: per-request records, fault-tolerance
//! timelines, and aggregate summaries.

use ic_common::{ObjectKey, SimDuration, SimTime};

/// What kind of operation a record describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A GET.
    Get,
    /// A PUT.
    Put,
}

/// How a GET concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Served from the cache.
    Hit {
        /// Parity-chunk decoding was needed (slow/lost data chunk).
        used_parity: bool,
        /// Chunks reported lost and repaired (≤ p).
        lost_chunks: usize,
    },
    /// The proxy had no metadata (cold miss or evicted): backed by S3 and
    /// re-inserted.
    ColdMiss,
    /// Metadata existed but more than `p` chunks were gone: the paper's
    /// RESET (fetch from backing store and re-insert).
    Reset,
    /// PUT completed (PUTs have no hit/miss semantics).
    Stored,
    /// PUT aborted by the proxy before completion (evicted under capacity
    /// pressure or superseded by an overwrite racing it).
    PutAborted,
}

/// One completed request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Object key.
    pub key: ObjectKey,
    /// GET or PUT.
    pub kind: OpKind,
    /// Object size in bytes.
    pub size: u64,
    /// When the application issued it.
    pub issued: SimTime,
    /// When the application got its answer.
    pub completed: SimTime,
    /// How it concluded.
    pub outcome: Outcome,
    /// Distinct VM hosts that served chunks (Fig 4's x-axis); zero for
    /// PUTs and misses.
    pub hosts_touched: u32,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed - self.issued
    }
}

/// A fault-tolerance activity (Fig 14's timeline).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FtKind {
    /// EC decoded around ≤ p lost chunks and repaired them.
    Recovery,
    /// > p chunks lost; object refetched from the backing store.
    Reset,
}

/// The world's measurement sink.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Completed requests in completion order.
    pub requests: Vec<RequestRecord>,
    /// Fault-tolerance events in time order.
    pub ft_events: Vec<(SimTime, FtKind)>,
}

impl Metrics {
    /// GET hit ratio: hits / (hits + cold misses + resets).
    pub fn hit_ratio(&self) -> f64 {
        let mut hits = 0u64;
        let mut total = 0u64;
        for r in &self.requests {
            if r.kind != OpKind::Get {
                continue;
            }
            total += 1;
            if matches!(r.outcome, Outcome::Hit { .. }) {
                hits += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }

    /// Count of loss-induced RESETs.
    pub fn resets(&self) -> u64 {
        self.ft_events
            .iter()
            .filter(|(_, k)| *k == FtKind::Reset)
            .count() as u64
    }

    /// Count of EC recoveries.
    pub fn recoveries(&self) -> u64 {
        self.ft_events
            .iter()
            .filter(|(_, k)| *k == FtKind::Recovery)
            .count() as u64
    }

    /// The paper's §5.2 availability metric: of the GETs that found cache
    /// metadata (hits + resets), the fraction actually served from cache.
    pub fn availability(&self) -> f64 {
        let hits = self
            .requests
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Hit { .. }))
            .count() as f64;
        let resets = self.resets() as f64;
        if hits + resets == 0.0 {
            return 1.0;
        }
        hits / (hits + resets)
    }

    /// GET latencies in milliseconds (for summaries/CDFs), optionally
    /// filtered by a minimum object size.
    pub fn get_latencies_ms(&self, min_size: u64) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.kind == OpKind::Get && r.size >= min_size)
            .map(|r| r.latency().as_millis_f64())
            .collect()
    }

    /// Per-hour counts of an event kind (Fig 14 timeline rows).
    pub fn ft_hourly(&self, kind: FtKind, hours: usize) -> Vec<u64> {
        let mut buckets = vec![0u64; hours];
        for (t, k) in &self.ft_events {
            if *k == kind {
                let h = t.hour() as usize;
                if h < hours {
                    buckets[h] += 1;
                }
            }
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, outcome: Outcome, ms: u64) -> RequestRecord {
        RequestRecord {
            key: ObjectKey::new("k"),
            kind,
            size: 100,
            issued: SimTime::ZERO,
            completed: SimTime::from_millis(ms),
            outcome,
            hosts_touched: 0,
        }
    }

    #[test]
    fn hit_ratio_counts_only_gets() {
        let mut m = Metrics::default();
        m.requests.push(rec(
            OpKind::Get,
            Outcome::Hit {
                used_parity: false,
                lost_chunks: 0,
            },
            5,
        ));
        m.requests.push(rec(OpKind::Get, Outcome::ColdMiss, 50));
        m.requests.push(rec(OpKind::Put, Outcome::Stored, 9));
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn availability_matches_paper_definition() {
        let mut m = Metrics::default();
        for _ in 0..95 {
            m.requests.push(rec(
                OpKind::Get,
                Outcome::Hit {
                    used_parity: false,
                    lost_chunks: 0,
                },
                5,
            ));
        }
        for i in 0..5 {
            m.requests.push(rec(OpKind::Get, Outcome::Reset, 100));
            m.ft_events.push((SimTime::from_secs(i), FtKind::Reset));
        }
        assert!((m.availability() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn hourly_buckets_split_by_time() {
        let mut m = Metrics::default();
        m.ft_events.push((SimTime::from_secs(10), FtKind::Recovery));
        m.ft_events
            .push((SimTime::from_secs(3_700), FtKind::Recovery));
        m.ft_events.push((SimTime::from_secs(3_800), FtKind::Reset));
        let rec = m.ft_hourly(FtKind::Recovery, 2);
        assert_eq!(rec, vec![1, 1]);
        let rst = m.ft_hourly(FtKind::Reset, 2);
        assert_eq!(rst, vec![0, 1]);
    }

    #[test]
    fn latency_filter_by_size() {
        let mut m = Metrics::default();
        let mut big = rec(
            OpKind::Get,
            Outcome::Hit {
                used_parity: false,
                lost_chunks: 0,
            },
            10,
        );
        big.size = 20_000_000;
        m.requests.push(big);
        m.requests.push(rec(
            OpKind::Get,
            Outcome::Hit {
                used_parity: false,
                lost_chunks: 0,
            },
            1,
        ));
        assert_eq!(m.get_latencies_ms(0).len(), 2);
        assert_eq!(m.get_latencies_ms(10_000_000).len(), 1);
    }
}
