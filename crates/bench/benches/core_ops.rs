//! Criterion: micro-operations of the building blocks — consistent-hash
//! routing, CLOCK queue churn, chunk-store ops, the DES event queue, and
//! workload synthesis. (The GF(2^8) kernels have their own bench,
//! `ec_kernels`.)

use criterion::{criterion_group, criterion_main, Criterion};
use ic_common::clock::ClockQueue;
use ic_common::ring::Ring;
use ic_common::{ChunkId, ObjectKey, Payload, SimTime};
use ic_lambda::store::ChunkStore;
use ic_simfaas::EventQueue;
use ic_workload::{generate, WorkloadSpec};

fn bench_ring(c: &mut Criterion) {
    let mut ring: Ring<u16> = Ring::new(128);
    for i in 0..16 {
        ring.insert(&format!("proxy-{i}"), i);
    }
    let keys: Vec<String> = (0..1024).map(|i| format!("object-{i}")).collect();
    c.bench_function("ring_route_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for k in &keys {
                acc = acc.wrapping_add(*ring.route(k).unwrap() as u32);
            }
            acc
        })
    });
}

fn bench_clock(c: &mut Criterion) {
    c.bench_function("clock_insert_touch_evict_1k", |b| {
        b.iter(|| {
            let mut q = ClockQueue::new();
            for i in 0..1024u32 {
                q.insert(i);
            }
            for i in (0..1024u32).step_by(2) {
                q.touch(&i);
            }
            let mut evicted = 0;
            while q.evict().is_some() {
                evicted += 1;
            }
            evicted
        })
    });
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("chunk_store_insert_get_1k", |b| {
        let ids: Vec<ChunkId> = (0..1024u32)
            .map(|i| ChunkId::new(ObjectKey::new(format!("o{i}")), 0))
            .collect();
        b.iter(|| {
            let mut s = ChunkStore::new();
            for (i, id) in ids.iter().enumerate() {
                s.insert(
                    SimTime::from_micros(i as u64),
                    id.clone(),
                    Payload::synthetic(4096),
                );
            }
            let mut hits = 0;
            for id in &ids {
                if s.get(id).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("des_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
}

fn bench_workload(c: &mut Criterion) {
    c.bench_function("workload_synthesize_mini", |b| {
        let spec = WorkloadSpec::mini();
        b.iter(|| generate(&spec, 42).requests.len())
    });
}

criterion_group!(
    benches,
    bench_ring,
    bench_clock,
    bench_store,
    bench_event_queue,
    bench_workload
);
criterion_main!(benches);
