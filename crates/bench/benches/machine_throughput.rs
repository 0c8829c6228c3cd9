//! Criterion benchmarks for the coherence simulator's hot paths: these
//! bound how large a workload the experiment binaries can afford, and
//! catch performance regressions in the per-access machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tmi_machine::{AccessKind, Machine, MachineConfig, PhysAddr, Width};

fn bench_local_hits(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.throughput(Throughput::Elements(1));
    g.bench_function("local_hit", |b| {
        let mut m = Machine::new(MachineConfig::with_cores(4));
        m.access(0, PhysAddr::new(0x1000), AccessKind::Store, Width::W8);
        b.iter(|| m.access(0, PhysAddr::new(0x1000), AccessKind::Load, Width::W8));
    });
    g.bench_function("hitm_ping_pong", |b| {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let mut side = 0usize;
        b.iter(|| {
            side ^= 1;
            m.access(side, PhysAddr::new(0x2000), AccessKind::Store, Width::W8)
        });
    });
    g.bench_function("streaming_misses", |b| {
        b.iter_batched(
            || (Machine::new(MachineConfig::with_cores(4)), 0u64),
            |(mut m, _)| {
                for i in 0..512u64 {
                    m.access(
                        (i % 4) as usize,
                        PhysAddr::new(i * 64),
                        AccessKind::Load,
                        Width::W8,
                    );
                }
                m
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// A 32-core streaming mix over a shared hot set: every fill, forward and
/// invalidation goes through the sharer directory.
fn bench_snoop_storm(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.throughput(Throughput::Elements(1));
    g.bench_function("snoop_storm_32c", |b| {
        const CORES: usize = 32;
        let mut m = Machine::new(MachineConfig::with_cores(CORES));
        let mut x = 0x9E37_79B9u64;
        let mut i = 0usize;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kind = if x & 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            i = (i + 1) % CORES;
            m.access(i, PhysAddr::new((x % 4096) * 64), kind, Width::W8)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_local_hits, bench_snoop_storm);
criterion_main!(benches);
