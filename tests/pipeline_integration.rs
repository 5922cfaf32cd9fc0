//! End-to-end integration: the k-Graph pipeline against the synthetic
//! dataset generators, exercising every crate together.

use graphint_repro::prelude::*;

fn quick(k: usize, seed: u64) -> KGraphConfig {
    KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 3,
        ..KGraphConfig::new(k).with_seed(seed)
    }
}

// The `kgraph_solves_*` tests pin the exact final partition and selected
// length, not only an ARI floor, so a numerical change anywhere in the fit
// (embedding, node extraction, clustering, consensus) cannot slip through
// while quality stays above the floor.

#[test]
fn kgraph_solves_cbf() {
    let ds = graphint_repro::datasets::cbf::cbf(12, 128, 1);
    let model = KGraph::new(quick(3, 1)).fit(&ds);
    let ari = adjusted_rand_index(ds.labels().unwrap(), &model.labels);
    assert!(ari > 0.5, "CBF ARI {ari}");
    assert_eq!(
        model.labels,
        [
            1, 1, 2, 1, 1, 2, 1, 0, 2, 1, 1, 2, 2, 1, 2, 1, 0, 2, 1, 1, 2, 1, 0, 2, 2, 0, 2, 1, 1,
            2, 1, 0, 2, 1, 0, 2
        ]
    );
    assert_eq!(model.best_length(), 64);
}

#[test]
fn kgraph_solves_trace_like() {
    let ds = graphint_repro::datasets::shapes::trace_like(10, 120, 2);
    let model = KGraph::new(quick(4, 2)).fit(&ds);
    let ari = adjusted_rand_index(ds.labels().unwrap(), &model.labels);
    assert!(ari > 0.5, "TraceLike ARI {ari}");
    assert_eq!(
        model.labels,
        [
            1, 2, 0, 3, 1, 2, 0, 3, 1, 1, 0, 3, 2, 2, 0, 3, 2, 1, 0, 3, 1, 1, 0, 3, 1, 2, 0, 3, 2,
            1, 0, 3, 1, 2, 0, 3, 1, 1, 0, 3
        ]
    );
    assert_eq!(model.best_length(), 36);
}

#[test]
fn kgraph_solves_device_like() {
    let ds = graphint_repro::datasets::shapes::device_like(12, 96, 3);
    let model = KGraph::new(quick(3, 3)).fit(&ds);
    let ari = adjusted_rand_index(ds.labels().unwrap(), &model.labels);
    assert!(ari > 0.5, "DeviceLike ARI {ari}");
    assert_eq!(
        model.labels,
        [
            0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2,
            1, 0, 2, 1, 0, 2, 1
        ]
    );
    assert_eq!(model.best_length(), 48);
}

#[test]
fn kgraph_fit_long_draw_is_pinned() {
    // The benchmark's `fit_long` seed-1 draw 0 (150 series × 256 points)
    // under the default configuration: per-layer node and edge counts
    // pin node extraction (radial scan + KDE) on long series.
    let ds = graphint_repro::datasets::cbf::cbf(50, 256, 8);
    let model = KGraph::new(KGraphConfig::new(3)).fit(&ds);
    let per_layer: Vec<(usize, usize, usize)> = model
        .layers
        .iter()
        .map(|l| (l.length, l.graph.node_count(), l.graph.edge_count()))
        .collect();
    assert_eq!(
        per_layer,
        [
            (26, 44, 823),
            (51, 54, 708),
            (77, 54, 524),
            (102, 54, 338),
            (128, 47, 195)
        ]
    );
    assert_eq!(
        model.labels,
        [
            2, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1, 2, 2, 2, 0, 2, 1, 2, 2, 2, 0, 2, 1, 0, 2, 1, 2, 2, 1,
            0, 2, 1, 0, 2, 1, 2, 2, 2, 2, 2, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 2, 0, 2, 2, 2, 2,
            1, 2, 2, 1, 0, 2, 2, 0, 2, 2, 0, 2, 2, 2, 2, 1, 0, 2, 1, 0, 2, 2, 0, 2, 2, 0, 2, 2, 0,
            2, 1, 2, 2, 1, 0, 2, 2, 0, 2, 1, 2, 2, 1, 2, 2, 2, 0, 2, 1, 2, 2, 1, 0, 2, 1, 0, 2, 1,
            0, 2, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 2, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2,
            1, 2, 2, 2, 0
        ]
    );
    assert_eq!(model.best_length(), 77);
}

#[test]
fn kgraph_beats_raw_kmeans_on_motif_positions() {
    // Classes differ by *where* a motif sits; raw k-Means is position
    // sensitive, k-Graph is not — the paper's core motivation.
    let ds = graphint_repro::datasets::shapes::trace_like(12, 120, 4);
    let truth = ds.labels().unwrap().to_vec();
    let model = KGraph::new(quick(4, 4)).fit(&ds);
    let kg_ari = adjusted_rand_index(&truth, &model.labels);
    let km = ClusteringMethod::new(MethodKind::KMeansRaw, 4, 4).run(&ds);
    let km_ari = adjusted_rand_index(&truth, &km);
    assert!(
        kg_ari > km_ari - 0.05,
        "k-Graph ({kg_ari:.3}) should not lose clearly to raw k-Means ({km_ari:.3})"
    );
}

#[test]
fn model_invariants_hold_across_datasets() {
    for (ds, k) in [
        (graphint_repro::datasets::cbf::cbf(6, 64, 5), 3usize),
        (
            graphint_repro::datasets::two_patterns::two_patterns(5, 64, 5),
            4,
        ),
        (graphint_repro::datasets::shapes::spectro_like(6, 100, 5), 4),
    ] {
        let model = KGraph::new(quick(k, 5)).fit(&ds);
        assert_eq!(model.labels.len(), ds.len());
        assert!(model.labels.iter().all(|&l| l < k));
        // Consensus matrix: symmetric, unit diagonal, entries in [0, 1].
        let mc = &model.consensus;
        assert!(mc.is_symmetric(1e-12));
        for i in 0..mc.rows() {
            assert!((mc[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..mc.cols() {
                assert!((0.0..=1.0 + 1e-12).contains(&mc[(i, j)]));
            }
        }
        // Scores valid; best layer argmax.
        let best = model.scores[model.best_layer].product();
        for s in &model.scores {
            assert!((0.0..=1.0).contains(&s.wc));
            assert!((0.0..=1.0).contains(&s.we));
            assert!(best >= s.product() - 1e-12);
        }
        // Every layer's graph non-trivial and paths well-formed.
        for layer in &model.layers {
            assert!(layer.graph.node_count() > 0);
            assert_eq!(layer.paths.len(), ds.len());
            for path in &layer.paths {
                assert!(!path.is_empty());
                for n in path {
                    assert!(n.index() < layer.graph.node_count());
                }
            }
        }
    }
}

#[test]
fn graphoid_exclusivity_partition_property() {
    let ds = graphint_repro::datasets::cbf::cbf(8, 96, 6);
    let model = KGraph::new(quick(3, 6)).fit(&ds);
    let stats = model.best_stats();
    let layer = model.best();
    for n in 0..layer.graph.node_count() {
        let total: f64 = (0..3).map(|c| stats.node_exclusivity(c, n)).sum();
        let crossed: usize = (0..3).map(|c| stats.node_crossings[c][n]).sum();
        if crossed > 0 {
            assert!(
                (total - 1.0).abs() < 1e-9,
                "node {n} exclusivity sum {total}"
            );
        }
    }
}

#[test]
fn variable_length_series_handled_by_baselines_and_kgraph() {
    // k-Graph can consume variable lengths directly (windows are
    // per-series); baselines resample internally.
    let mut series = Vec::new();
    let mut labels = Vec::new();
    for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
        for p in 0..5 {
            let n = 70 + p * 5;
            series.push(TimeSeries::new(
                (0..n).map(|i| ((i + p) as f64 * f).sin()).collect(),
            ));
            labels.push(label);
        }
    }
    let ds = Dataset::with_labels("varlen", DatasetKind::Other, series, labels).unwrap();
    let model = KGraph::new(quick(2, 7)).fit(&ds);
    assert_eq!(model.labels.len(), ds.len());
    let km = ClusteringMethod::new(MethodKind::KMeansZnorm, 2, 7).run(&ds);
    assert_eq!(km.len(), ds.len());
}
