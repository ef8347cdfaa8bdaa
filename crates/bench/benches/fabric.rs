//! Simulated-fabric verb overhead: the substrate must stay far cheaper
//! than the protocols built on it.

use aceso_rdma::{Cluster, ClusterConfig, CostModel, GlobalAddr, NodeId};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_fabric(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        num_mns: 2,
        region_len: 16 << 20,
        cost: CostModel::default(),
    });
    let dm = cluster.client();
    let addr = GlobalAddr::new(NodeId(0), 4096);

    let mut g = c.benchmark_group("fabric");
    g.sample_size(50);
    g.bench_function("cas", |b| {
        let mut v = 0u64;
        b.iter(|| {
            let prev = dm.cas(addr, v, v + 1).unwrap();
            v = prev + 1;
            std::hint::black_box(prev)
        });
    });
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("write_1k", |b| {
        let buf = [7u8; 1024];
        b.iter(|| dm.write(addr.add(64), &buf).unwrap());
    });
    g.bench_function("read_1k", |b| {
        let mut buf = [0u8; 1024];
        b.iter(|| {
            dm.read(addr.add(64), &mut buf).unwrap();
            std::hint::black_box(buf[0])
        });
    });
    // The combined-bucket read every SEARCH makes, twice per index probe.
    g.throughput(Throughput::Bytes(256));
    g.bench_function("read_256", |b| {
        let mut buf = [0u8; 256];
        b.iter(|| {
            dm.read(addr.add(64), &mut buf).unwrap();
            std::hint::black_box(buf[0])
        });
    });
    g.throughput(Throughput::Bytes(256 << 10));
    g.bench_function("read_256k_block", |b| {
        let mut buf = vec![0u8; 256 << 10];
        b.iter(|| {
            dm.read(GlobalAddr::new(NodeId(1), 0), &mut buf).unwrap();
            std::hint::black_box(buf[0])
        });
    });
    g.finish();
}

criterion_group!(benches, bench_fabric);
criterion_main!(benches);
