//! Criterion: Reed–Solomon encode/decode/reconstruct throughput of the
//! from-scratch `ic-ec` codec — these measurements calibrate the
//! `encode_bps`/`decode_bps` constants the simulator uses (the paper's Go
//! library is AVX-accelerated and faster; `BENCH_ec.json` holds this
//! codec's committed figures).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ic_ec::ReedSolomon;

fn stripe(d: usize, p: usize, shard_len: usize) -> Vec<Vec<u8>> {
    (0..d + p)
        .map(|i| {
            (0..shard_len)
                .map(|j| ((i * 131 + j * 17) % 251) as u8)
                .collect()
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_encode");
    for (d, p) in [(10usize, 1usize), (10, 2), (10, 4), (4, 2)] {
        let shard_len = 1 << 20; // 1 MiB shards => 10 MiB objects for d=10
        let rs = ReedSolomon::new(d, p).unwrap();
        let base = stripe(d, p, shard_len);
        g.throughput(Throughput::Bytes((d * shard_len) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("({d}+{p})")),
            &rs,
            |b, rs| {
                b.iter_batched(
                    || base.clone(),
                    |mut shards| rs.encode(&mut shards).unwrap(),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_reconstruct_data");
    for lost in [1usize, 2] {
        let (d, p) = (10usize, 2usize);
        let shard_len = 1 << 20;
        let rs = ReedSolomon::new(d, p).unwrap();
        let mut shards = stripe(d, p, shard_len);
        rs.encode(&mut shards).unwrap();
        let damaged: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| if i < lost { None } else { Some(s.clone()) })
            .collect();
        g.throughput(Throughput::Bytes((d * shard_len) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("lost{lost}")),
            &damaged,
            |b, damaged| {
                b.iter_batched(
                    || damaged.clone(),
                    |mut shards| rs.reconstruct_data(&mut shards).unwrap(),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

fn bench_verify(c: &mut Criterion) {
    let (d, p) = (10usize, 2usize);
    let shard_len = 1 << 20;
    let rs = ReedSolomon::new(d, p).unwrap();
    let mut shards = stripe(d, p, shard_len);
    rs.encode(&mut shards).unwrap();
    let mut g = c.benchmark_group("rs_verify");
    g.throughput(Throughput::Bytes((d * shard_len) as u64));
    g.bench_function("(10+2)", |b| b.iter(|| rs.verify(&shards).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_encode, bench_reconstruct, bench_verify);
criterion_main!(benches);
