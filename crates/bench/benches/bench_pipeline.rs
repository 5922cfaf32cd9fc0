//! Stage-attributed criterion benches for the end-to-end pipeline.
//!
//! Every label is `pipeline/<stage>/<variant>` with `<stage>` one of
//! `embed` / `nodes` / `build` / `fit` / `features` / `cluster` /
//! `consensus` / `render` (see `bench::stages`). The committed
//! `crates/bench/BENCH_pipeline.json` is the recorded baseline; CI reruns
//! this bench and gates merges with `bench_compare` on per-stage geomean
//! ratios. Scaling variants (series count, length, parallel vs serial
//! jobs) all live under the `fit` stage.

use bench::stages::{ConsensusFixture, ScaleFixture, StageFixture};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgraph::{KGraph, KGraphConfig};

fn quick_config(k: usize, parallel: bool) -> KGraphConfig {
    KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 2,
        parallel,
        ..KGraphConfig::new(k)
    }
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let fx = StageFixture::standard();
    let length = format!("l{}", fx.length);

    group.bench_function(BenchmarkId::new("embed", &length), |b| {
        b.iter(|| fx.run_embed())
    });
    // Node extraction reuses one projection so it times the radial scan
    // and KDE alone.
    let proj = fx.run_embed();
    group.bench_function(BenchmarkId::new("nodes", &length), |b| {
        b.iter(|| fx.run_nodes(black_box(&proj)))
    });
    group.bench_function(BenchmarkId::new("build", &length), |b| {
        b.iter(|| fx.run_build())
    });
    group.bench_function(BenchmarkId::new("fit", "full"), |b| b.iter(|| fx.run_fit()));

    // The downstream stages reuse one built layer / fitted model so their
    // timings isolate the stage itself.
    let layer = fx.run_build();
    group.bench_function(BenchmarkId::new("features", "matrix"), |b| {
        b.iter(|| fx.run_features(black_box(&layer)))
    });
    group.bench_function(BenchmarkId::new("cluster", "kmeans"), |b| {
        b.iter(|| fx.run_cluster(black_box(&layer)))
    });
    let model = fx.run_fit();
    group.bench_function(BenchmarkId::new("render", "graph"), |b| {
        b.iter(|| fx.run_render(black_box(&model)))
    });
    group.finish();
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let fx = ConsensusFixture::standard_450();
    // Spectral consensus: one 450 × 450 Laplacian eigensolve plus k-Means.
    group.bench_function(BenchmarkId::new("consensus", "spectral_450"), |b| {
        b.iter(|| black_box(&fx).run_consensus())
    });
    group.finish();
}

fn bench_render_at_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // Each iteration lays out and emits a 10k-node layer; a few samples
    // are enough for a stable median under the shim's outlier rejection.
    group.sample_size(3);
    let fx = ScaleFixture::standard_10k();
    // Barnes–Hut layout cost over the full 10k-node graph.
    group.bench_function(BenchmarkId::new("render", "bh_10k"), |b| {
        b.iter(|| black_box(&fx).run_render_bh())
    });
    // Level-of-detail emission under a tight element budget.
    group.bench_function(BenchmarkId::new("render", "lod_10k"), |b| {
        b.iter(|| black_box(&fx).run_render_lod())
    });
    group.finish();
}

fn bench_fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for per_class in [5usize, 10] {
        let dataset = datasets::cbf::cbf(per_class, 96, 0);
        group.bench_with_input(
            BenchmarkId::new("fit", format!("n_series_{}", per_class * 3)),
            &per_class,
            |b, _| {
                let kg = KGraph::new(quick_config(3, true));
                b.iter(|| kg.fit(black_box(&dataset)))
            },
        );
    }
    for length in [64usize, 128] {
        let dataset = datasets::cbf::cbf(6, length, 0);
        group.bench_with_input(
            BenchmarkId::new("fit", format!("length_{length}")),
            &length,
            |b, _| {
                let kg = KGraph::new(quick_config(3, true));
                b.iter(|| kg.fit(black_box(&dataset)))
            },
        );
    }
    // Parallel vs serial jobs.
    let dataset = datasets::cbf::cbf(8, 96, 0);
    for (name, parallel) in [("parallel", true), ("serial", false)] {
        group.bench_with_input(
            BenchmarkId::new("fit", format!("jobs_{name}")),
            &parallel,
            |b, &p| {
                let kg = KGraph::new(quick_config(3, p));
                b.iter(|| kg.fit(black_box(&dataset)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stages,
    bench_fit_scaling,
    bench_consensus,
    bench_render_at_scale
);
criterion_main!(benches);
