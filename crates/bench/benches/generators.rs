//! Tree-generation throughput: the workload side of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_trees::{enumerate, generators, pruefer, random};

fn bench_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_uniform_tree");
    for n in [16usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            bencher.iter(|| random::uniform(n, &mut rng));
        });
    }
    group.finish();
}

fn bench_exact_leaves(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_exact_leaves");
    for n in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut rng = StdRng::seed_from_u64(2);
            bencher.iter(|| random::with_exact_leaves(n, n / 4, &mut rng));
        });
    }
    group.finish();
}

/// Cloning a tree is what every `StaticSource`/`SequenceSource` round
/// pays; the path is the paper's static adversary.
fn bench_tree_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_clone");
    for n in [256usize, 1024] {
        let path = generators::path(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &path, |bencher, path| {
            bencher.iter(|| path.clone());
        });
    }
    group.finish();
}

/// Re-rooting the path at its far end flips every edge: the worst case of
/// the root-reassignment fault.
fn bench_tree_rerooted(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_rerooted");
    for n in [256usize, 1024] {
        let path = generators::path(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &path, |bencher, path| {
            bencher.iter(|| path.rerooted(n - 1));
        });
    }
    group.finish();
}

fn bench_pruefer_roundtrip(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tree = random::uniform(1024, &mut rng);
    c.bench_function("pruefer_encode_decode_1024", |b| {
        b.iter(|| {
            let seq = pruefer::encode(&tree);
            pruefer::decode(&seq).len()
        });
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_all_trees");
    group.sample_size(10);
    for n in [4usize, 5, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                let mut count = 0u64;
                enumerate::for_each_rooted_tree(n, |_| count += 1);
                count
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_uniform,
    bench_exact_leaves,
    bench_tree_clone,
    bench_tree_rerooted,
    bench_pruefer_roundtrip,
    bench_enumeration
);
criterion_main!(benches);
