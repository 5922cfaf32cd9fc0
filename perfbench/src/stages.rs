//! Stage replay: `KGraph::fit` and the Graph-frame render re-run through
//! the same public functions they call, with a span around each stage.
//!
//! The replay must produce exactly what `KGraph::fit` produces (labels,
//! `best_layer`, per-layer labels), which [`parity`] checks; otherwise the
//! per-layer numbers would describe a different program than the one the
//! end-to-end numbers time.

use crate::trace::{SpanId, SpanTree, Tracer};
use clustering::kmeans::KMeans;
use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, RenderBudget};
use kgraph::build::{build_graph_with_stride, GraphLayer};
use kgraph::consensus::{consensus_labels, consensus_matrix};
use kgraph::embed::project_subsequences;
use kgraph::features::feature_matrix;
use kgraph::interpret::score_lengths;
use kgraph::nodes::radial_scan;
use kgraph::{KGraphConfig, KGraphModel};
use std::time::Instant;
use tscore::Dataset;
use tsgraph::layout::{layout_graph, BarnesHutOptions, ForceOptions, LayoutEngine};

/// Element budget of a Graph-frame view; the render route's default.
pub const VIEW_BUDGET: usize = 20_000;

/// Work counts of one replayed fit.
#[derive(Debug, Default, Clone, Copy)]
pub struct FitCounts {
    /// Subsequence windows embedded, over all lengths.
    pub windows: usize,
    /// Graph nodes extracted, over all lengths.
    pub nodes: usize,
    /// Graph edges built, over all lengths.
    pub edges: usize,
}

/// What a replayed fit produced.
pub struct Replay {
    /// Per-length layers, ascending by length.
    pub layers: Vec<GraphLayer>,
    /// Final consensus labels.
    pub labels: Vec<usize>,
    /// Index of the selected layer.
    pub best_layer: usize,
    /// Work counts.
    pub counts: FitCounts,
    /// The root `fit` span.
    pub root: SpanId,
}

/// One per-length job, as `KGraph::fit` runs it: embed → nodes → build →
/// features → k-Means. `cluster_layer` is `feature_matrix` followed by
/// `KMeans { max_iter: 100, .. }`; it is replayed as those two calls so
/// that features and k-Means get separate spans.
fn replay_layer(
    ds: &Dataset,
    cfg: &KGraphConfig,
    length: usize,
    tr: &Tracer,
    parent: SpanId,
) -> (GraphLayer, FitCounts) {
    let job = tr.open("job", Some(parent));
    let proj = tr.time("embed", Some(job), || {
        project_subsequences(ds, length, cfg.stride, cfg.pca_sample)
    });
    let assign = tr.time("nodes", Some(job), || {
        radial_scan(&proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio)
    });
    let mut layer = tr.time("build", Some(job), || {
        build_graph_with_stride(ds, &proj, &assign, cfg.stride)
    });
    let cluster = tr.open("cluster", Some(job));
    let features = tr.time("features", Some(cluster), || {
        feature_matrix(&layer, cfg.node_features, cfg.edge_features)
    });
    layer.labels = KMeans {
        k: cfg.k,
        max_iter: 100,
        n_init: cfg.n_init,
        seed: cfg.seed_for_length(length),
    }
    .fit(&features)
    .labels;
    tr.close(cluster);
    tr.close(job);
    let counts = FitCounts {
        windows: proj.points.len(),
        nodes: assign.nodes.len(),
        edges: layer.graph.edge_count(),
    };
    (layer, counts)
}

/// Replays `KGraph::fit` on `ds` with the same worker chunking: at most one
/// worker per hardware thread, lengths split into contiguous chunks.
pub fn replay_fit(ds: &Dataset, cfg: &KGraphConfig, tr: &Tracer) -> Replay {
    let root = tr.open("fit", None);
    let lengths = cfg.resolve_lengths(ds.min_len());
    let results: Vec<(GraphLayer, FitCounts)> = if cfg.parallel && lengths.len() > 1 {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(lengths.len());
        let chunk = lengths.len().div_ceil(workers);
        let mut slots: Vec<Option<(GraphLayer, FitCounts)>> =
            (0..lengths.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (slot_chunk, len_chunk) in slots.chunks_mut(chunk).zip(lengths.chunks(chunk)) {
                scope.spawn(move || {
                    let worker = tr.open("worker", Some(root));
                    for (slot, &length) in slot_chunk.iter_mut().zip(len_chunk) {
                        *slot = Some(replay_layer(ds, cfg, length, tr, worker));
                    }
                    tr.close(worker);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    } else {
        let worker = tr.open("worker", Some(root));
        let out = lengths
            .iter()
            .map(|&length| replay_layer(ds, cfg, length, tr, worker))
            .collect();
        tr.close(worker);
        out
    };
    let mut counts = FitCounts::default();
    let mut layers = Vec::with_capacity(results.len());
    for (layer, c) in results {
        counts.windows += c.windows;
        counts.nodes += c.nodes;
        counts.edges += c.edges;
        layers.push(layer);
    }
    let partitions: Vec<Vec<usize>> = layers.iter().map(|l| l.labels.clone()).collect();
    let mc = tr.time("consensus.matrix", Some(root), || {
        consensus_matrix(&partitions)
    });
    let labels = tr.time("consensus.labels", Some(root), || {
        consensus_labels(&mc, cfg.k, cfg.seed)
    });
    let (_, best_layer) = tr.time("interpret", Some(root), || {
        score_lengths(&layers, &labels, cfg.k)
    });
    tr.close(root);
    Replay {
        layers,
        labels,
        best_layer,
        counts,
        root,
    }
}

/// Whether a replay reproduced a fitted model exactly; `Err` names the
/// first difference.
pub fn parity(replay: &Replay, model: &KGraphModel) -> Result<(), String> {
    if replay.labels != model.labels {
        return Err("final labels differ from KGraph::fit".into());
    }
    if replay.best_layer != model.best_layer {
        return Err(format!(
            "best_layer {} differs from KGraph::fit's {}",
            replay.best_layer, model.best_layer
        ));
    }
    if replay.layers.len() != model.layers.len() {
        return Err("layer count differs from KGraph::fit".into());
    }
    for (r, m) in replay.layers.iter().zip(&model.layers) {
        if r.length != m.length || r.labels != m.labels {
            return Err(format!(
                "layer ℓ={} labels differ from KGraph::fit",
                m.length
            ));
        }
    }
    Ok(())
}

/// Per-fit stage totals of one replay, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub wall: f64,
    pub embed: f64,
    pub nodes: f64,
    pub build: f64,
    pub features: f64,
    pub cluster: f64,
    pub consensus_matrix: f64,
    pub consensus_labels: f64,
    pub interpret: f64,
    pub jobs_busy: f64,
    pub jobs_critical: f64,
}

impl StageTimes {
    /// Reads the stage totals of the fit rooted at `root` from `tree`.
    pub fn of(tree: &SpanTree, root: SpanId) -> Self {
        StageTimes {
            wall: tree.duration(root),
            embed: tree.self_sum(root, "embed"),
            nodes: tree.self_sum(root, "nodes"),
            build: tree.self_sum(root, "build"),
            features: tree.self_sum(root, "features"),
            cluster: tree.self_sum(root, "cluster"),
            consensus_matrix: tree.duration_sum(root, "consensus.matrix"),
            consensus_labels: tree.duration_sum(root, "consensus.labels"),
            interpret: tree.duration_sum(root, "interpret"),
            jobs_busy: tree.duration_sum(root, "job"),
            jobs_critical: tree.duration_max(root, "worker"),
        }
    }
}

/// Renders the Graph frame of `model` as the render route does by default
/// (auto layout, auto detail, the default budget); returns the SVG and its
/// element count.
pub fn view(model: &KGraphModel) -> (String, usize) {
    GraphFrame::with_auto_thresholds(model).render_graph_with(
        LayoutEngine::Auto,
        DetailLevel::Auto,
        RenderBudget::capped(VIEW_BUDGET),
    )
}

/// One render split into its halves, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct RenderSplit {
    /// `GraphFrame::with_auto_thresholds` (stats and threshold search).
    pub frame: f64,
    /// `layout_graph` with the engine the frame resolves to.
    pub layout: f64,
    /// Render minus layout: SVG emission and detail selection.
    pub emit: f64,
    /// Elements emitted.
    pub elements: usize,
    /// SVG bytes.
    pub bytes: usize,
}

/// Times the halves of a view of `model`. The layout is run once on its
/// own with the options `GraphPlot` uses, then the full render (which lays
/// out again) is timed; emission is the difference.
pub fn render_split(model: &KGraphModel) -> RenderSplit {
    let t = Instant::now();
    let frame = GraphFrame::with_auto_thresholds(model);
    let frame_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let layout = layout_graph(
        &model.best().graph,
        LayoutEngine::Auto,
        BarnesHutOptions {
            force: ForceOptions {
                seed: 42,
                ..Default::default()
            },
            theta: 0.8,
        },
    );
    let layout_s = t.elapsed().as_secs_f64();
    std::hint::black_box(layout);

    let t = Instant::now();
    let (svg, elements) = frame.render_graph_with(
        LayoutEngine::Auto,
        DetailLevel::Auto,
        RenderBudget::capped(VIEW_BUDGET),
    );
    let render_s = t.elapsed().as_secs_f64();
    RenderSplit {
        frame: frame_s,
        layout: layout_s,
        emit: (render_s - layout_s).max(0.0),
        elements,
        bytes: svg.len(),
    }
}

/// Whether a view's output is a complete SVG within the budget.
pub fn view_ok(svg: &str, elements: usize) -> bool {
    svg.trim_end().ends_with("</svg>") && elements <= VIEW_BUDGET
}
