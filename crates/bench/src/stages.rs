//! Stage-attributed pipeline fixture for the regression-gated benches.
//!
//! The end-to-end k-Graph pipeline decomposes into eight stages —
//! **embed** (z-normalised subsequences + PCA projection), **nodes** (radial
//! scan + KDE mode search), **build** (embed + nodes + graph construction),
//! **fit** (the full multi-length model), **features** (path → feature
//! matrix), **cluster** (k-Means over the features), **consensus**
//! (spectral clustering of the consensus matrix) and **render** (the
//! Graph frame's node-link view). `bench_pipeline` times each stage under
//! a label of the form `pipeline/<stage>/<variant>`, and
//! [`crate::baseline`] aggregates ratios per `<stage>` — so a regression
//! report says *which stage* got slower, not just that the pipeline did.
//!
//! Everything here is deterministic (fixed dataset seed, fixed config) so
//! two runs on the same machine measure the same work.

use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, GraphPlot, RenderBudget};
use kgraph::build::GraphLayer;
use kgraph::consensus::consensus_labels;
use kgraph::embed::{project_subsequences, Projection};
use kgraph::features::{cluster_layer, feature_matrix};
use kgraph::graphoid::ClusterStats;
use kgraph::nodes::{radial_scan, NodeAssignment};
use kgraph::{KGraph, KGraphConfig, KGraphModel, NodePattern, PatternGraph};
use linalg::Matrix;
use tscore::Dataset;
use tsgraph::layout::LayoutEngine;
use tsgraph::{GraphBuilder, NodeId};

/// The eight stage names, in pipeline order. These are the `<stage>` path
/// segments of every `pipeline/<stage>/<variant>` bench label and the keys
/// the comparison gate aggregates by.
pub const STAGE_NAMES: [&str; 8] = [
    "embed",
    "nodes",
    "build",
    "fit",
    "features",
    "cluster",
    "consensus",
    "render",
];

/// Deterministic workload shared by every stage bench.
pub struct StageFixture {
    /// The dataset every stage operates on (CBF, fixed seed).
    pub dataset: Dataset,
    /// Subsequence length ℓ used for the single-layer stages.
    pub length: usize,
    /// The pipeline configuration used by the fit stage (also supplies
    /// ψ, stride, KDE grid and PCA sample size to the single-layer stages).
    pub config: KGraphConfig,
}

impl StageFixture {
    /// The standard fixture: 18 CBF series of length 96, a 3-length
    /// pipeline bounded like the quick experiment configs.
    pub fn standard() -> Self {
        let dataset = datasets::cbf::cbf(6, 96, 0);
        let config = KGraphConfig {
            n_lengths: 3,
            psi: 16,
            pca_sample: 600,
            n_init: 2,
            parallel: true,
            ..KGraphConfig::new(3)
        };
        StageFixture {
            dataset,
            length: 24,
            config,
        }
    }

    /// Stage `embed`: z-normalised subsequences of one length projected
    /// onto their first two principal components.
    pub fn run_embed(&self) -> Projection {
        let cfg = &self.config;
        project_subsequences(&self.dataset, self.length, cfg.stride, cfg.pca_sample)
    }

    /// Stage `nodes`: the radial scan (per-sector KDE mode search) over a
    /// projection.
    pub fn run_nodes(&self, proj: &Projection) -> NodeAssignment {
        let cfg = &self.config;
        radial_scan(proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio)
    }

    /// Stage `build`: embedding + radial scan + graph for one length.
    pub fn run_build(&self) -> GraphLayer {
        let proj = self.run_embed();
        let assign = self.run_nodes(&proj);
        kgraph::build::build_graph_with_stride(&self.dataset, &proj, &assign, self.config.stride)
    }

    /// Stage `fit`: the full multi-length model.
    pub fn run_fit(&self) -> KGraphModel {
        KGraph::new(self.config.clone()).fit(&self.dataset)
    }

    /// Stage `features`: the per-series feature matrix of a built layer.
    pub fn run_features(&self, layer: &GraphLayer) -> Vec<Vec<f64>> {
        feature_matrix(layer, self.config.node_features, self.config.edge_features)
    }

    /// Stage `cluster`: k-Means over a layer's features.
    pub fn run_cluster(&self, layer: &GraphLayer) -> Vec<usize> {
        let cfg = &self.config;
        cluster_layer(
            layer,
            cfg.k,
            cfg.n_init,
            cfg.seed,
            cfg.node_features,
            cfg.edge_features,
        )
    }

    /// Stage `render`: the Graph frame's ASCII/ANSI node-link view.
    pub fn run_render(&self, model: &KGraphModel) -> String {
        GraphFrame::with_auto_thresholds(model).render_graph()
    }
}

/// Consensus fixture: the consensus matrix of a k-Graph fit on 450 CBF
/// series of 64 points (150 per class, fixed seed), the many-series shape
/// where the n × n Laplacian eigensolve of spectral consensus dominates
/// the fit. Built once; `pipeline/consensus/spectral_450` times only the
/// final-partition step.
pub struct ConsensusFixture {
    /// The 450 × 450 consensus matrix of the fitted model.
    pub consensus: Matrix,
    /// The configuration the matrix was fitted with (supplies k and seed).
    pub config: KGraphConfig,
}

impl ConsensusFixture {
    /// The standard fixture: `cbf(150, 64, 0)` under the default config.
    pub fn standard_450() -> Self {
        let config = KGraphConfig::new(3);
        let model = KGraph::new(config.clone()).fit(&datasets::cbf::cbf(150, 64, 0));
        ConsensusFixture {
            consensus: model.consensus,
            config,
        }
    }

    /// Stage `consensus`: spectral clustering of the consensus matrix.
    pub fn run_consensus(&self) -> Vec<usize> {
        consensus_labels(&self.consensus, self.config.k, self.config.seed)
    }
}

/// At-scale render fixture: a 10k-node synthetic layer (graph + crossing
/// statistics built directly, no fit) for the `pipeline/render/bh_10k`
/// and `pipeline/render/lod_10k` variants. Construction is deterministic
/// — an LCG stream, no RNG dependency — so two runs measure identical
/// work.
pub struct ScaleFixture {
    /// The synthetic pattern graph.
    pub graph: PatternGraph,
    /// Crossing statistics giving most nodes a clear owner.
    pub stats: ClusterStats,
}

impl ScaleFixture {
    /// The standard at-scale fixture: 10k nodes in 6 cluster blocks, a
    /// chain through each block plus 2 pseudo-random extra edges per node
    /// (~30k edges).
    pub fn standard_10k() -> Self {
        let (n, k, extra, seed) = (10_000usize, 6usize, 2usize, 7u64);
        let cluster = |i: usize| i * k / n;
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut b = GraphBuilder::new();
        for i in 0..n {
            if i + 1 < n && cluster(i) == cluster(i + 1) {
                b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0 + (i % 5) as f64);
            }
            for _ in 0..extra {
                let t = next() % n;
                if t != i {
                    b.add_edge(
                        NodeId(i as u32),
                        NodeId(t as u32),
                        1.0 + (next() % 40) as f64 / 10.0,
                    );
                }
            }
        }
        let nodes: Vec<NodePattern> = (0..n)
            .map(|i| NodePattern {
                sector: i,
                radius: 0.5,
                count: 1 + (i * 7) % 23,
                pattern: Vec::new(),
            })
            .collect();
        let graph: PatternGraph = b.build(nodes, |acc, w| *acc += w);

        let mut node_crossings = vec![vec![0usize; n]; k];
        for i in 0..n {
            node_crossings[cluster(i)][i] = 5;
        }
        let e = graph.edge_count();
        let mut edge_crossings = vec![vec![0usize; e]; k];
        for (id, s, _, _) in graph.edges_iter() {
            edge_crossings[cluster(s.index())][id.index()] = 5;
        }
        let stats = ClusterStats {
            k,
            node_crossings,
            edge_crossings,
            cluster_sizes: vec![10; k],
        };
        ScaleFixture { graph, stats }
    }

    /// `render/bh_10k`: Barnes–Hut layout dominates — aggregated detail
    /// under a wide budget keeps emission bounded without throttling the
    /// layout work being measured.
    pub fn run_render_bh(&self) -> (String, usize) {
        GraphPlot::from_graph(&self.graph, 24, &self.stats, 0.4, 0.5)
            .with_engine(LayoutEngine::BarnesHut)
            .with_detail(DetailLevel::Aggregated)
            .with_budget(RenderBudget::capped(50_000))
            .render_counted()
    }

    /// `render/lod_10k`: level-of-detail emission dominates — the O(n)
    /// circular layout plus a tight budget that forces full degradation
    /// (owner attribution, bundling, glyph aggregation).
    pub fn run_render_lod(&self) -> (String, usize) {
        GraphPlot::from_graph(&self.graph, 24, &self.stats, 0.4, 0.5)
            .with_engine(LayoutEngine::Circular)
            .with_detail(DetailLevel::Auto)
            .with_budget(RenderBudget::capped(5_000))
            .render_counted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_compose_end_to_end() {
        let fx = StageFixture::standard();
        let proj = fx.run_embed();
        assert_eq!(proj.length, fx.length);
        let assign = fx.run_nodes(&proj);
        assert_eq!(assign.point_node.len(), proj.points.len());
        assert!(!assign.nodes.is_empty());
        let layer = fx.run_build();
        assert_eq!(layer.graph.node_count(), assign.nodes.len());
        assert!(layer.graph.node_count() > 0);
        assert_eq!(layer.paths.len(), fx.dataset.len());

        let features = fx.run_features(&layer);
        assert_eq!(features.len(), fx.dataset.len());

        let labels = fx.run_cluster(&layer);
        assert_eq!(labels.len(), fx.dataset.len());
        assert!(labels.iter().all(|&l| l < fx.config.k));

        let model = fx.run_fit();
        assert_eq!(model.labels.len(), fx.dataset.len());
        let svg = fx.run_render(&model);
        assert!(!svg.is_empty());
    }

    #[test]
    fn consensus_fixture_labels_every_series() {
        let fx = ConsensusFixture::standard_450();
        assert_eq!(fx.consensus.shape(), (450, 450));
        let labels = fx.run_consensus();
        assert_eq!(labels.len(), 450);
        assert!(labels.iter().all(|&l| l < fx.config.k));
    }

    #[test]
    fn scale_fixture_renders_within_budget() {
        let fx = ScaleFixture::standard_10k();
        assert_eq!(fx.graph.node_count(), 10_000);
        assert!(fx.graph.edge_count() > 10_000);
        let (svg, elements) = fx.run_render_lod();
        assert!(elements <= 5_000, "lod render emitted {elements} elements");
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn fixture_is_deterministic() {
        let a = StageFixture::standard().run_fit();
        let b = StageFixture::standard().run_fit();
        assert_eq!(a.labels, b.labels);
    }
}
