//! Production-trace synthesis: object-store request streams calibrated to
//! the IBM Docker-registry traces the paper analyzes (§2.1, Fig 1) and
//! replays (§5.2), emitted directly in the versioned trace format.
//!
//! The original traces (Anwar et al., FAST'18) are not redistributable,
//! so the generator is calibrated to every statistic the paper reports
//! about them:
//!
//! * object sizes spanning nine orders of magnitude, with >10 MB objects
//!   ≈ 20 % of objects and ≈ 95 % of bytes (Fig 1a/b);
//! * long-tail (Zipf) popularity, large objects reused heavily but less
//!   often than small ones (Fig 1c);
//! * 37–46 % of large-object reuses within one hour (Fig 1d);
//! * a Dallas-like 50-hour request timeline with ≈ 3 654 GETs/hour for all
//!   objects, ≈ 750 GETs/hour above 10 MB, working-set sizes near 1 169 GB
//!   and 1 036 GB respectively (Table 1), and request spikes around hours
//!   15–20 and 34–42 (Fig 14).
//!
//! Generation is a two-level renewal process:
//!
//! 1. every object gets a size (from [`SizeModel`]) and a popularity weight
//!    (Zipf rank through a seeded shuffle, with large objects' weights
//!    penalized — §2.1 observes they are "accessed less frequently than
//!    small ones");
//! 2. the object's access count is Poisson around its expected share of the
//!    configured total, and its accesses form a renewal sequence whose
//!    inter-arrival gaps come from the [`ReuseModel`];
//! 3. the whole timeline is warped through the [`RateProfile`] so arrival
//!    density follows the Dallas hourly shape.
//!
//! Every record is a GET (the paper's replay is read-side) unless one of
//! two knobs the trace format can express is set:
//!
//! * **first-touch PUTs** — the first access of every object becomes a
//!   PUT of the same size, so a byte-level substrate can verify every
//!   later GET against what was actually stored (the committed sample
//!   trace uses this; a write-through sim replay does not need it);
//! * **tenants** — objects spread across a declared tenant universe by a
//!   deterministic hash.

use ic_analytics::dist::poisson_sample;
use ic_common::SimTime;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::format::{TraceData, TraceOp, TraceRecord};
use crate::model::{RateProfile, ReuseModel, SizeModel};
use crate::LARGE_OBJECT_BYTES;

/// Everything the synthesizer needs: the workload profile and the two
/// trace-format knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceGenConfig {
    /// Profile name, copied into the trace.
    pub name: String,
    /// Universe size (distinct objects that *may* be accessed).
    pub objects: usize,
    /// Target total access count over the horizon.
    pub accesses: usize,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// Multiplier (< 1 penalizes) applied to the popularity weight of
    /// objects larger than 10 MB.
    pub large_penalty: f64,
    /// Object-size model.
    pub sizes: SizeModel,
    /// Temporal-reuse model.
    pub reuse: ReuseModel,
    /// Hourly intensity profile (also fixes the horizon).
    pub rate: RateProfile,
    /// Tenant universe size; objects are assigned by deterministic hash.
    /// 1 keeps the whole trace on tenant 0.
    pub tenants: u16,
    /// Rewrite each object's first access into a PUT of the same size.
    pub first_touch_put: bool,
}

impl TraceGenConfig {
    /// The paper's Dallas-like 50-hour production profile (§5.2, Table 1),
    /// GET-only (replayed write-through, as in §5.2): ≈ 183 k requests
    /// over 50 k objects, working set ≈ 1.1 TB.
    pub fn dallas() -> Self {
        TraceGenConfig {
            name: "dallas".into(),
            objects: 50_000,
            accesses: 182_700,
            zipf_s: 0.66,
            large_penalty: 0.72,
            sizes: SizeModel::registry(),
            reuse: ReuseModel::registry(),
            rate: RateProfile::dallas_50h(),
            tenants: 1,
            first_touch_put: false,
        }
    }

    /// The London datacenter profile of Fig 1: same family, lighter load.
    pub fn london() -> Self {
        let mut sizes = SizeModel::registry();
        sizes.components[0].weight = 0.38; // more tiny manifests
        sizes.components[2].median_bytes = 2.8e7;
        TraceGenConfig {
            name: "london".into(),
            objects: 30_000,
            accesses: 110_000,
            zipf_s: 0.95,
            large_penalty: 0.45,
            sizes,
            ..TraceGenConfig::dallas()
        }
    }

    /// A long-horizon, high-volume variant used only to *characterize* the
    /// workload family (Fig 1c's 10^4-access head needs more than 50 hours
    /// of trace to show).
    pub fn characterization() -> Self {
        TraceGenConfig {
            name: "characterization".into(),
            objects: 120_000,
            accesses: 2_400_000,
            zipf_s: 1.01,
            large_penalty: 0.45,
            rate: RateProfile::flat(600),
            ..TraceGenConfig::dallas()
        }
    }

    /// A scaled-down Dallas-like profile for tests and examples (~2 K
    /// objects, 2-hour horizon, a few thousand requests).
    pub fn mini() -> Self {
        TraceGenConfig {
            name: "mini".into(),
            objects: 2_000,
            accesses: 6_000,
            zipf_s: 0.90,
            large_penalty: 0.45,
            rate: RateProfile::flat(2),
            ..TraceGenConfig::dallas()
        }
    }

    /// A small committed-sample profile: a few dozen objects over two
    /// hours with sizes clamped small enough that a loopback socket
    /// replay moves real verified bytes in seconds, and first-touch PUTs
    /// so every later GET has stored content to verify against.
    pub fn sample() -> Self {
        let mut cfg = TraceGenConfig {
            name: "sample".into(),
            objects: 48,
            accesses: 280,
            rate: RateProfile {
                hourly: vec![1.0, 1.6],
            },
            first_touch_put: true,
            ..TraceGenConfig::mini()
        };
        cfg.sizes.min_bytes = 1_000;
        cfg.sizes.max_bytes = 64_000;
        cfg
    }

    /// A tiny smoke profile for CI: a minute-scale GET-only trace whose
    /// sim replay finishes in well under a second.
    pub fn smoke() -> Self {
        TraceGenConfig {
            name: "smoke".into(),
            objects: 300,
            accesses: 1_500,
            ..TraceGenConfig::mini()
        }
    }
}

/// Deterministic tenant assignment: objects spread across the universe by
/// a splitmix of their id, stable across runs and platforms.
fn tenant_of(object: u32, tenants: u16) -> u16 {
    if tenants <= 1 {
        0
    } else {
        (ic_common::hash::splitmix64(u64::from(object) ^ 0x7e4a_71c3) % u64::from(tenants)) as u16
    }
}

/// Generates a trace under a seed. Identical `(cfg, seed)` always produce
/// byte-identical traces.
pub fn synthesize(cfg: &TraceGenConfig, seed: u64) -> TraceData {
    let mut rng = SmallRng::seed_from_u64(seed);
    let horizon_secs = cfg.rate.hours() as f64 * 3_600.0;
    let tenants = cfg.tenants.max(1);

    // 1. Sizes.
    let sizes: Vec<u64> = (0..cfg.objects)
        .map(|_| cfg.sizes.sample(&mut rng))
        .collect();

    // 2. Popularity: a seeded shuffle assigns Zipf ranks to object ids,
    //    then large objects are penalized and weights renormalized.
    let mut ranks: Vec<u32> = (0..cfg.objects as u32).collect();
    ranks.shuffle(&mut rng);
    let mut weights: Vec<f64> = vec![0.0; cfg.objects];
    for (rank, &obj) in ranks.iter().enumerate() {
        let mut w = (rank as f64 + 1.0).powf(-cfg.zipf_s);
        if sizes[obj as usize] > LARGE_OBJECT_BYTES {
            w *= cfg.large_penalty;
        }
        weights[obj as usize] = w;
    }
    let total_w: f64 = weights.iter().sum();

    // 3. Per-object renewal sequences on the virtual (unwarped) timeline.
    let mut records: Vec<TraceRecord> = Vec::with_capacity(cfg.accesses + cfg.accesses / 8);
    for (obj, &w) in weights.iter().enumerate() {
        let expected = cfg.accesses as f64 * w / total_w;
        let count = poisson_sample(&mut rng, expected);
        if count == 0 {
            continue;
        }
        let object = obj as u32;
        let tenant = tenant_of(object, tenants);
        let mut t = rng.gen::<f64>() * horizon_secs;
        for _ in 0..count {
            let warped = cfg.rate.warp(t / horizon_secs);
            records.push(TraceRecord {
                at: SimTime::from_micros((warped * 1e6) as u64),
                op: TraceOp::Get,
                tenant,
                object,
                size: sizes[obj],
            });
            // Next access after a reuse interval, wrapping around the
            // horizon (the wrap shows up as one long interval — harmless
            // tail mass in Fig 1d).
            t = (t + cfg.reuse.sample(&mut rng)) % horizon_secs;
        }
    }
    records.sort_by_key(|r| (r.at, r.object));

    if cfg.first_touch_put {
        let mut seen = vec![false; cfg.objects];
        for r in &mut records {
            if !std::mem::replace(&mut seen[r.object as usize], true) {
                r.op = TraceOp::Put;
            }
        }
    }
    TraceData {
        name: cfg.name.clone(),
        horizon: SimTime::from_micros((horizon_secs * 1e6) as u64),
        tenants,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = TraceGenConfig::sample();
        let a = synthesize(&cfg, 11);
        let b = synthesize(&cfg, 11);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
        let c = synthesize(&cfg, 12);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn first_touch_put_covers_every_object_once() {
        let t = synthesize(&TraceGenConfig::sample(), 3);
        let mut first = std::collections::HashMap::new();
        for r in &t.records {
            let e = first.entry(r.object).or_insert(0usize);
            if *e == 0 {
                assert_eq!(
                    r.op,
                    TraceOp::Put,
                    "first touch of {} must be a PUT",
                    r.object
                );
            } else {
                assert_eq!(
                    r.op,
                    TraceOp::Get,
                    "later touch of {} must be a GET",
                    r.object
                );
            }
            *e += 1;
        }
        assert_eq!(t.puts(), first.len());
    }

    #[test]
    fn sample_sizes_are_net_friendly() {
        let t = synthesize(&TraceGenConfig::sample(), 3);
        assert!(!t.records.is_empty());
        assert!(t.records.iter().all(|r| (1_000..=64_000).contains(&r.size)));
        assert!(t.horizon <= SimTime::from_secs(2 * 3600));
    }

    #[test]
    fn tenants_spread_and_stay_stable() {
        let mut cfg = TraceGenConfig::smoke();
        cfg.tenants = 4;
        let t = synthesize(&cfg, 9);
        let mut used = std::collections::BTreeSet::new();
        for r in &t.records {
            assert!(r.tenant < 4);
            used.insert(r.tenant);
            assert_eq!(
                r.tenant,
                tenant_of(r.object, 4),
                "assignment is a pure function"
            );
        }
        assert!(
            used.len() > 1,
            "a 4-tenant universe should actually be used"
        );
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let cfg = TraceGenConfig::mini();
        let a = synthesize(&cfg, 1);
        let b = synthesize(&cfg, 1);
        assert_eq!(a.records, b.records);
        let c = synthesize(&cfg, 2);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn request_count_close_to_target() {
        let cfg = TraceGenConfig::mini();
        let t = synthesize(&cfg, 3);
        let n = t.records.len() as f64;
        assert!(
            (n / cfg.accesses as f64 - 1.0).abs() < 0.15,
            "generated {n} vs target {}",
            cfg.accesses
        );
    }

    #[test]
    fn requests_are_sorted_and_within_horizon() {
        let t = synthesize(&TraceGenConfig::mini(), 4);
        for w in t.records.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let mut size_of = std::collections::HashMap::new();
        for r in &t.records {
            assert!(r.at <= t.horizon);
            assert_eq!(r.op, TraceOp::Get);
            assert_eq!(*size_of.entry(r.object).or_insert(r.size), r.size);
        }
    }

    #[test]
    fn filter_large_keeps_only_large_objects() {
        let t = synthesize(&TraceGenConfig::mini(), 5);
        let large = t.filter_large(LARGE_OBJECT_BYTES);
        assert!(!large.records.is_empty());
        assert!(large.records.iter().all(|r| r.size > LARGE_OBJECT_BYTES));
        assert!(large.records.len() < t.records.len());
        assert!(large.working_set_bytes() < t.working_set_bytes());
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let t = synthesize(&TraceGenConfig::mini(), 6);
        let (a, b) = (t.records[0], t.records[1]);
        assert_eq!(a.key(), a.key());
        assert_eq!(a.key() == b.key(), a.object == b.object);
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = TraceGenConfig::mini();
        let t = synthesize(&cfg, 7);
        let mut counts = vec![0u32; cfg.objects];
        for r in &t.records {
            counts[r.object as usize] += 1;
        }
        let mut sorted: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted
            .iter()
            .take(sorted.len() / 10)
            .map(|&c| c as u64)
            .sum();
        let total: u64 = sorted.iter().map(|&c| c as u64).sum();
        assert!(
            top_decile as f64 / total as f64 > 0.35,
            "top-10% objects draw only {:.2} of accesses",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn hourly_rate_reflects_horizon() {
        let t = synthesize(&TraceGenConfig::mini(), 8);
        let rate = crate::stats::TraceStats::compute(&t).hourly_rate;
        assert!((rate - t.records.len() as f64 / 2.0).abs() < 1e-6);
    }
}
