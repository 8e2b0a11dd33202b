//! EC kernel microbenchmark: quantifies the word-parallel GF(2^8) kernels
//! against the retained scalar reference, the blocked `encode_parity` path
//! against a reference parity-major encode, and cached vs uncached decode
//! planning, and prints one timing line per point.
//!
//! Before timing anything it *asserts* the differential invariants — the
//! SWAR kernels and the blocked encoder are byte-identical to the scalar
//! reference, and a cache-served reconstruct is byte-identical to a cold
//! one — so the speedups it prints are measured over code proven to
//! agree. Run with `--test` (CI) for a quick pass that checks the
//! invariants and times one kernel.

use std::time::Instant;

use bytes::Bytes;
use criterion::{black_box, Criterion};
use ic_ec::gf256::{self, reference};
use ic_ec::ReedSolomon;

/// Shard lengths for the kernel-level comparison (4 KiB cache-resident up
/// to 1 MiB streaming).
const KERNEL_SIZES: &[usize] = &[4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024];

/// Shard lengths for the stripe-level paths.
const STRIPE_SIZES: &[usize] = &[64 * 1024, 256 * 1024, 1024 * 1024];

/// The RS shapes measured: the paper's client default (4+2), its Fig 11
/// production code (10+2), and a wider 12+3.
const SHAPES: &[(usize, usize)] = &[(4, 2), (10, 2), (12, 3)];

/// Decode shard lengths: small enough that planning cost is visible, plus
/// the PUT/GET chunk size.
const DECODE_SIZES: &[usize] = &[4 * 1024, 256 * 1024];

fn pattern(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((seed * 131 + j * 17 + 5) % 251) as u8)
        .collect()
}

fn data_shards(d: usize, len: usize) -> Vec<Vec<u8>> {
    (0..d).map(|i| pattern(i, len)).collect()
}

/// The pre-PR encode: parity-major passes with the scalar kernels, one
/// freshly-built table per (row, shard) call.
fn encode_parity_reference(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let d = rs.data_shards();
    let len = data[0].len();
    (0..rs.parity_shards())
        .map(|p_idx| {
            let row = rs.matrix_row(d + p_idx);
            let mut out = vec![0u8; len];
            for (d_idx, input) in data.iter().enumerate() {
                reference::mul_slice_xor(row[d_idx], input, &mut out);
            }
            out
        })
        .collect()
}

/// Asserts every differential invariant the printed numbers rest on.
fn assert_differential_invariants() {
    // Kernels agree, including the awkward tail length.
    let input = pattern(7, 8 * 1024 + 13);
    for c in [0u8, 1, 2, 29, 142, 255] {
        let mut swar = vec![0x5Au8; input.len()];
        let mut scalar = vec![0x5Au8; input.len()];
        gf256::mul_slice_xor(c, &input, &mut swar);
        reference::mul_slice_xor(c, &input, &mut scalar);
        assert_eq!(swar, scalar, "kernel mismatch at c={c}");
    }
    // Blocked encode agrees with the reference encode on every shape.
    for &(d, p) in SHAPES {
        let rs = ReedSolomon::new(d, p).expect("valid shape");
        let data = data_shards(d, 96 * 1024 + 7);
        assert_eq!(
            rs.encode_parity(&data).expect("encodes"),
            encode_parity_reference(&rs, &data),
            "encode mismatch at ({d}+{p})"
        );
    }
    // Cache-served reconstruct is byte-identical to a cold one.
    let rs = ReedSolomon::new(4, 2).expect("valid shape");
    let data = data_shards(4, 32 * 1024);
    let parity = rs.encode_parity(&data).expect("encodes");
    let full: Vec<Bytes> = data.into_iter().chain(parity).map(Bytes::from).collect();
    let damage = |full: &[Bytes]| {
        let mut v: Vec<Option<Bytes>> = full.iter().cloned().map(Some).collect();
        v[1] = None;
        v[3] = None;
        v
    };
    let mut cold = damage(&full);
    rs.reconstruct_data_bytes(&mut cold).expect("reconstructs");
    let mut warm = damage(&full);
    rs.reconstruct_data_bytes(&mut warm).expect("reconstructs");
    let (hits, _) = rs.plan_cache_stats();
    assert!(hits >= 1, "second reconstruct must be cache-served");
    assert_eq!(cold, warm, "cached decode diverged from uncached");
    println!("ec_kernels: differential invariants passed (kernels, encode, decode-plan cache)");
}

/// Times `f` for at least `target_ms`, returning mean seconds/iter.
fn time_it(target_ms: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let per = t0.elapsed().max(std::time::Duration::from_nanos(50));
    let iters = ((target_ms as u128 * 1_000_000) / per.as_nanos()).clamp(3, 2_000_000) as u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

fn mib_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / (1024.0 * 1024.0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    assert_differential_invariants();
    if quick {
        // CI mode: invariants checked, then a fast timing smoke.
        let mut c = Criterion::default();
        let input = pattern(1, 64 * 1024);
        let mut out = vec![0u8; input.len()];
        c.bench_function("mul_slice_xor/64KiB", |b| {
            b.iter(|| gf256::mul_slice_xor(black_box(0x8e), black_box(&input), &mut out))
        });
        return;
    }
    let target_ms = 300;

    // Kernel level: scalar reference vs word-parallel, same coefficient.
    for &len in KERNEL_SIZES {
        let input = pattern(3, len);
        let mut out = vec![0u8; len];
        let ref_s = time_it(target_ms, || {
            reference::mul_slice_xor(black_box(0x8e), black_box(&input), &mut out)
        });
        let swar_s = time_it(target_ms, || {
            gf256::mul_slice_xor(black_box(0x8e), black_box(&input), &mut out)
        });
        println!(
            "kernel {:>5} KiB  reference {:>7.0} MiB/s  swar {:>7.0} MiB/s  ({:.1}x)",
            len / 1024,
            mib_s(len, ref_s),
            mib_s(len, swar_s),
            ref_s / swar_s
        );
    }

    // Stripe level: reference parity-major encode vs blocked input-major.
    for &(d, p) in SHAPES {
        let rs = ReedSolomon::new(d, p).expect("valid shape");
        for &len in STRIPE_SIZES {
            let data = data_shards(d, len);
            let logical = d * len;
            let ref_s = time_it(target_ms, || {
                black_box(encode_parity_reference(&rs, black_box(&data)));
            });
            let new_s = time_it(target_ms, || {
                black_box(rs.encode_parity(black_box(&data)).expect("encodes"));
            });
            let speedup = ref_s / new_s;
            println!(
                "encode ({d:>2}+{p}) {:>5} KiB  reference {:>6.0} MiB/s  blocked-swar {:>6.0} MiB/s  ({speedup:.1}x)",
                len / 1024,
                mib_s(logical, ref_s),
                mib_s(logical, new_s),
            );
        }
    }

    // Decode level: repeated same-pattern reconstructs, cold plan (cache
    // cleared every iteration) vs warm plan.
    for &(d, p) in SHAPES {
        let rs = ReedSolomon::new(d, p).expect("valid shape");
        for &len in DECODE_SIZES {
            let data = data_shards(d, len);
            let parity = rs.encode_parity(&data).expect("encodes");
            let full: Vec<Bytes> = data.into_iter().chain(parity).map(Bytes::from).collect();
            // Erase p data shards: the worst case, every output needs the
            // inverted matrix.
            let template: Vec<Option<Bytes>> = full
                .iter()
                .enumerate()
                .map(|(i, s)| (i >= p).then(|| s.clone()))
                .collect();
            let uncached_s = time_it(target_ms, || {
                rs.clear_plan_cache();
                let mut shards = template.clone();
                rs.reconstruct_data_bytes(&mut shards)
                    .expect("reconstructs");
                black_box(&shards);
            });
            let cached_s = time_it(target_ms, || {
                let mut shards = template.clone();
                rs.reconstruct_data_bytes(&mut shards)
                    .expect("reconstructs");
                black_box(&shards);
            });
            let speedup = uncached_s / cached_s;
            println!(
                "decode ({d:>2}+{p}) {:>5} KiB  uncached {:>8.1} us  cached {:>8.1} us  ({speedup:.2}x)",
                len / 1024,
                uncached_s * 1e6,
                cached_s * 1e6,
            );
        }
    }
}
