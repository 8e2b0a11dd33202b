//! Trace statistics: everything Fig 1 and Table 1 report about the
//! workload, computed from a generated (or, in principle, real) trace.

use std::collections::BTreeMap;

use ic_analytics::summary::Cdf;
use ic_common::units::to_gib;

use crate::format::TraceData;
use crate::LARGE_OBJECT_BYTES;

/// Aggregate statistics of a trace.
///
/// ```
/// use ic_trace::synth::{synthesize, TraceGenConfig};
/// use ic_trace::TraceStats;
///
/// // The scaled-down Dallas-like profile: large objects are a minority
/// // of objects but the majority of bytes.
/// let stats = TraceStats::compute(&synthesize(&TraceGenConfig::mini(), 42));
/// assert!(stats.total_accesses > 0);
/// assert!(stats.large_object_fraction < 0.5);
/// assert!(stats.large_byte_fraction > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Distinct objects accessed.
    pub unique_objects: usize,
    /// Total accesses (records).
    pub total_accesses: usize,
    /// Working-set size in bytes (distinct objects accessed).
    pub working_set_bytes: u64,
    /// Mean accesses per hour over the horizon.
    pub hourly_rate: f64,
    /// Fraction of accessed objects larger than 10 MB (Fig 1a's complement
    /// at the 10 MB mark).
    pub large_object_fraction: f64,
    /// Fraction of working-set bytes held in >10 MB objects (Fig 1b).
    pub large_byte_fraction: f64,
    /// CDF of object sizes over distinct accessed objects (Fig 1a).
    pub size_cdf: Cdf,
    /// CDF of per-object byte footprint, weighted by size (Fig 1b): the
    /// fraction of total bytes contributed by objects of at most a size.
    pub footprint_points: Vec<(f64, f64)>,
    /// CDF of access counts for objects > 10 MB (Fig 1c).
    pub large_access_count_cdf: Cdf,
    /// CDF of reuse intervals in hours for objects > 10 MB (Fig 1d).
    pub large_reuse_interval_cdf: Cdf,
}

impl TraceStats {
    /// Computes all statistics in one pass over the trace. An object is
    /// a `(tenant, object)` pair; its size is the last one recorded.
    pub fn compute(trace: &TraceData) -> TraceStats {
        #[derive(Default)]
        struct Seen {
            size: u64,
            accesses: u32,
            last_at: u64, // micros
        }
        let mut objects: BTreeMap<(u16, u32), Seen> = BTreeMap::new();
        let mut large_reuse_hours: Vec<f64> = Vec::new();

        for r in &trace.records {
            let seen = objects.entry((r.tenant, r.object)).or_default();
            if r.size > LARGE_OBJECT_BYTES && seen.accesses > 0 {
                let hours = (r.at.as_micros() - seen.last_at) as f64 / 3.6e9;
                large_reuse_hours.push(hours);
            }
            seen.size = r.size;
            seen.accesses += 1;
            seen.last_at = r.at.as_micros();
        }

        let unique_objects = objects.len();
        let working_set_bytes: u64 = objects.values().map(|o| o.size).sum();
        let large = || objects.values().filter(|o| o.size > LARGE_OBJECT_BYTES);
        let large_objects = large().count();
        let large_bytes: u64 = large().map(|o| o.size).sum();

        // Fig 1b: sort accessed objects by size; cumulative byte share.
        let mut by_size: Vec<u64> = objects.values().map(|o| o.size).collect();
        by_size.sort_unstable();
        let total_bytes = working_set_bytes.max(1) as f64;
        let mut acc = 0u64;
        let stride = (by_size.len() / 256).max(1);
        let mut footprint_points = Vec::new();
        for (idx, &s) in by_size.iter().enumerate() {
            acc += s;
            if idx % stride == 0 || idx + 1 == by_size.len() {
                footprint_points.push((s as f64, acc as f64 / total_bytes));
            }
        }

        let size_cdf = Cdf::from_values(by_size.iter().map(|&s| s as f64));
        let hours = trace.horizon.as_secs_f64() / 3_600.0;
        let large_access_count_cdf = Cdf::from_values(large().map(|o| f64::from(o.accesses)));
        let large_reuse_interval_cdf = Cdf::from_values(large_reuse_hours);

        TraceStats {
            unique_objects,
            total_accesses: trace.records.len(),
            working_set_bytes,
            hourly_rate: if hours > 0.0 {
                trace.records.len() as f64 / hours
            } else {
                0.0
            },
            large_object_fraction: if unique_objects == 0 {
                0.0
            } else {
                large_objects as f64 / unique_objects as f64
            },
            large_byte_fraction: if working_set_bytes == 0 {
                0.0
            } else {
                large_bytes as f64 / working_set_bytes as f64
            },
            size_cdf,
            footprint_points,
            large_access_count_cdf,
            large_reuse_interval_cdf,
        }
    }

    /// Working set in GiB (Table 1 prints GB-scale numbers).
    pub fn working_set_gib(&self) -> f64 {
        to_gib(self.working_set_bytes)
    }

    /// Fraction of large-object reuses that happen within one hour
    /// (the paper's 37–46 % headline from Fig 1d).
    pub fn large_reuse_within_hour(&self) -> f64 {
        if self.large_reuse_interval_cdf.is_empty() {
            return 0.0;
        }
        self.large_reuse_interval_cdf.fraction_le(1.0)
    }

    /// Fraction of large objects accessed at least `n` times (Fig 1c's
    /// "about 30 % of large objects are accessed at least 10 times").
    pub fn large_accessed_at_least(&self, n: u32) -> f64 {
        if self.large_access_count_cdf.is_empty() {
            return 0.0;
        }
        1.0 - self.large_access_count_cdf.fraction_le(n as f64 - 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, TraceGenConfig};

    #[test]
    fn mini_trace_stats_are_consistent() {
        let t = synthesize(&TraceGenConfig::mini(), 11);
        let s = TraceStats::compute(&t);
        assert_eq!(s.total_accesses, t.records.len());
        assert!(s.unique_objects > 0 && s.unique_objects <= TraceGenConfig::mini().objects);
        assert_eq!(s.working_set_bytes, t.working_set_bytes());
        assert!(s.large_object_fraction > 0.05 && s.large_object_fraction < 0.5);
        assert!(s.large_byte_fraction > 0.8);
    }

    #[test]
    fn reuse_within_hour_in_paper_band() {
        // The calibrated Dallas profile is what Fig 1d is reproduced from.
        let t = synthesize(&TraceGenConfig::dallas(), 12);
        let s = TraceStats::compute(&t.filter_large(LARGE_OBJECT_BYTES));
        let frac = s.large_reuse_within_hour();
        // Paper: 37–46%; allow slack for horizon effects.
        assert!((0.33..0.55).contains(&frac), "within-hour reuse {frac}");
    }

    #[test]
    fn footprint_points_are_monotone_cdf() {
        let t = synthesize(&TraceGenConfig::mini(), 13);
        let s = TraceStats::compute(&t);
        for w in s.footprint_points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        let last = s.footprint_points.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn characterization_trace_shows_long_tail_access_counts() {
        // Scaled-down characterization run: the most popular large object
        // should absorb hundreds of accesses, and a solid fraction of large
        // objects should be accessed >= 10 times (Fig 1c).
        let mut cfg = TraceGenConfig::characterization();
        cfg.objects = 8_000;
        cfg.accesses = 160_000;
        cfg.rate = crate::model::RateProfile::flat(100);
        let t = synthesize(&cfg, 14);
        let s = TraceStats::compute(&t);
        let at_least_10 = s.large_accessed_at_least(10);
        assert!(
            (0.10..0.6).contains(&at_least_10),
            "large objects with >=10 accesses: {at_least_10}"
        );
        let max_count = s.large_access_count_cdf.quantile(1.0);
        assert!(max_count > 100.0, "head object only {max_count} accesses");
    }

    /// Calibration diagnostic: `cargo test -p ic-trace print_dallas -- \
    /// --ignored --nocapture` prints the headline numbers next to Table 1.
    #[test]
    #[ignore]
    fn print_dallas_stats() {
        let t = synthesize(&TraceGenConfig::dallas(), 2020);
        let s = TraceStats::compute(&t);
        println!(
            "all: unique={} accesses={} wss={:.0} GiB rate={:.0}/h largeObj={:.3} largeBytes={:.3}",
            s.unique_objects,
            s.total_accesses,
            s.working_set_gib(),
            s.hourly_rate,
            s.large_object_fraction,
            s.large_byte_fraction
        );
        let large = t.filter_large(LARGE_OBJECT_BYTES);
        let ls = TraceStats::compute(&large);
        println!(
            "large: unique={} accesses={} wss={:.0} GiB rate={:.0}/h withinHour={:.3} atLeast10={:.3}",
            ls.unique_objects,
            ls.total_accesses,
            ls.working_set_gib(),
            ls.hourly_rate,
            ls.large_reuse_within_hour(),
            ls.large_accessed_at_least(10)
        );
    }

    #[test]
    fn dallas_headline_numbers_land_near_table1() {
        // The real calibration check lives in the fig01/table1 harnesses;
        // here we sanity-check the orders of magnitude so regressions in
        // the generator fail fast.
        let t = synthesize(&TraceGenConfig::dallas(), 2020);
        let s = TraceStats::compute(&t);
        assert!(
            (800.0..1600.0).contains(&s.working_set_gib()),
            "WSS {} GiB, Table 1 says ~1169 GB",
            s.working_set_gib()
        );
        assert!(
            (2500.0..5000.0).contains(&s.hourly_rate),
            "rate {} GETs/h, Table 1 says 3654",
            s.hourly_rate
        );
        let large = t.filter_large(LARGE_OBJECT_BYTES);
        let ls = TraceStats::compute(&large);
        assert!(
            (500.0..1400.0).contains(&ls.working_set_gib()),
            "large WSS {} GiB, Table 1 says ~1036 GB",
            ls.working_set_gib()
        );
        assert!(
            (400.0..1200.0).contains(&ls.hourly_rate),
            "large rate {} GETs/h, Table 1 says 750",
            ls.hourly_rate
        );
    }
}
