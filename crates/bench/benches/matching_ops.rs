//! Ablation bench: the greedy approximate assignment (the paper's choice
//! for `M_dp`/`M_bj`) versus the exact Hungarian solver, at growing
//! neighborhood sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsim_matching::{hungarian_max_weight, GreedyMatcher};

fn pseudo_weights(n: usize, seed: u64) -> Vec<f64> {
    (0..n * n)
        .map(|k| {
            ((k as u64 + 1).wrapping_mul(seed.wrapping_mul(2_654_435_761)) % 1000) as f64 / 1e3
        })
        .collect()
}

fn matching_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_ops");
    for n in [4usize, 16, 64] {
        let weights = pseudo_weights(n, 7);
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, &n| {
            let mut matcher = GreedyMatcher::new();
            let mut edges: Vec<(f64, u32, u32)> = Vec::with_capacity(n * n);
            b.iter(|| {
                edges.clear();
                for l in 0..n {
                    for r in 0..n {
                        edges.push((weights[l * n + r], l as u32, r as u32));
                    }
                }
                matcher.assign(n, n, &edges)
            })
        });
        group.bench_with_input(BenchmarkId::new("hungarian", n), &n, |b, &n| {
            b.iter(|| hungarian_max_weight(n, n, &weights))
        });
    }
    group.finish();
}

criterion_group!(benches, matching_ops);
criterion_main!(benches);
