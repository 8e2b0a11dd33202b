//! Property tests for the trace synthesizer: structural invariants hold
//! for arbitrary profile parameters, and statistics never panic.

use std::collections::HashMap;

use ic_trace::model::RateProfile;
use ic_trace::{synthesize, TraceGenConfig, TraceOp, TraceStats};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = TraceGenConfig> {
    (
        50usize..800,
        100usize..3000,
        0.4f64..1.3,
        0.2f64..1.0,
        1usize..6,
    )
        .prop_map(
            |(objects, accesses, zipf_s, large_penalty, hours)| TraceGenConfig {
                name: "prop".into(),
                objects,
                accesses,
                zipf_s,
                large_penalty,
                rate: RateProfile::flat(hours),
                ..TraceGenConfig::mini()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_are_well_formed(cfg in arb_config(), seed in any::<u64>()) {
        let t = synthesize(&cfg, seed);
        // Sorted GETs within the horizon, one size per object, sizes
        // inside the model's bounds.
        for w in t.records.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        let mut size_of = HashMap::new();
        for r in &t.records {
            prop_assert!(r.at <= t.horizon);
            prop_assert_eq!(r.op, TraceOp::Get);
            prop_assert_eq!(*size_of.entry(r.object).or_insert(r.size), r.size);
            prop_assert!((r.object as usize) < cfg.objects);
            prop_assert!(r.size >= cfg.sizes.min_bytes);
            prop_assert!(r.size <= cfg.sizes.max_bytes);
        }
        // Total volume lands near the target (Poisson thinning).
        let n = t.records.len() as f64;
        prop_assert!(n <= cfg.accesses as f64 * 1.6 + 60.0);

        // Stats never panic and are internally consistent.
        let s = TraceStats::compute(&t);
        prop_assert_eq!(s.total_accesses, t.records.len());
        prop_assert_eq!(s.unique_objects, size_of.len());
        prop_assert!(s.unique_objects <= cfg.objects);
        prop_assert_eq!(s.working_set_bytes, t.working_set_bytes());
        prop_assert!((0.0..=1.0).contains(&s.large_object_fraction));
        prop_assert!((0.0..=1.0).contains(&s.large_byte_fraction));
    }

    #[test]
    fn filtering_is_idempotent_and_sound(seed in any::<u64>()) {
        let cfg = TraceGenConfig { accesses: 1500, ..TraceGenConfig::mini() };
        let t = synthesize(&cfg, seed);
        let large = t.filter_large(10_000_000);
        let large2 = large.filter_large(10_000_000);
        prop_assert_eq!(&large.records, &large2.records);
        prop_assert!(large.records.len() <= t.records.len());
        prop_assert!(large.working_set_bytes() <= t.working_set_bytes());
    }

    #[test]
    fn warp_preserves_order_for_any_profile(
        hourly in proptest::collection::vec(0.01f64..10.0, 1..30),
        us in proptest::collection::vec(0.0f64..1.0, 2..50),
    ) {
        let p = RateProfile { hourly };
        let mut sorted = us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = -1.0;
        for u in sorted {
            let t = p.warp(u);
            prop_assert!(t >= last);
            prop_assert!(t <= p.hours() as f64 * 3600.0 + 1e-6);
            last = t;
        }
    }
}
