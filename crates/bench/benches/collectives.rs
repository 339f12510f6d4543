//! Wall-clock benchmarks of the simulated collectives (simulator overhead,
//! not network time — the α–β–γ costs are what the exp_* binaries report).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::{coll, Machine, MachineParams};

fn bench_allgather(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_allgather");
    for p in [4usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bench, &p| {
            bench.iter(|| {
                Machine::new(p, MachineParams::unit())
                    .run(|comm| coll::allgather(comm, &vec![comm.rank() as f64; 256]))
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_allreduce");
    for p in [4usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bench, &p| {
            bench.iter(|| {
                Machine::new(p, MachineParams::unit())
                    .run(|comm| coll::allreduce(comm, &vec![1.0; 1024], coll::ReduceOp::Sum))
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_alltoallv_bruck");
    for p in [4usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bench, &p| {
            bench.iter(|| {
                Machine::new(p, MachineParams::unit())
                    .run(move |comm| {
                        let blocks: Vec<Vec<f64>> = (0..p).map(|d| vec![d as f64; 64]).collect();
                        coll::alltoallv_bruck(comm, blocks).unwrap()
                    })
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = collectives;
    config = Criterion::default().sample_size(10);
    targets = bench_allgather, bench_allreduce, bench_alltoallv
}
criterion_main!(collectives);
