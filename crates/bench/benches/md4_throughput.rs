//! Criterion bench: MD4 digest throughput — eDonkey's content hash, and
//! the digest that derives generated peer and file ids and pins the
//! reproduction's outputs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use edonkey_proto::md4::Md4;

fn bench_md4(c: &mut Criterion) {
    let mut group = c.benchmark_group("md4");
    for size in [1usize << 10, 64 << 10, 1 << 20] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| Md4::digest(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_md4);
criterion_main!(benches);
