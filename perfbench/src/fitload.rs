//! `fit_long` / `fit_many`: repeated `KGraph::fit` on one seeded CBF draw,
//! each fit followed by what a Graphint user does next — view the Graph
//! frame and score a few held-out series against the fitted model.

use crate::outcome::{peak_rss_mb, Outcome};
use crate::stages::{self, parity, render_split, replay_fit, FitCounts, RenderSplit, StageTimes};
use crate::stats::{median, Summary};
use crate::steal;
use crate::trace::{SpanTree, Tracer};
use clustering::metrics::adjusted_rand_index;
use kgraph::anomaly::anomaly_scores;
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use std::time::{Duration, Instant};
use tscore::Dataset;

/// Shape of a fit workload's dataset.
#[derive(Debug, Clone, Copy)]
pub struct FitShape {
    /// CBF series per class (3 classes).
    pub per_class: usize,
    /// Points per series.
    pub length: usize,
}

/// 150 long series: embed/PCA and the radial-scan KDE dominate.
pub const FIT_LONG: FitShape = FitShape {
    per_class: 50,
    length: 256,
};

/// 450 short series: consensus and per-layer k-Means dominate.
pub const FIT_MANY: FitShape = FitShape {
    per_class: 150,
    length: 64,
};

/// Independent draws per run. Fit time, view and read cost depend on the
/// draw (graph sizes, the selected length), so a run pools several draws
/// to keep its medians from following one seed's dataset.
pub const DRAWS: usize = 8;
/// Fits measured at least, so the median has ten samples beyond it.
/// Runs end on whole cycles over the draws, so each draw weighs the same.
const MIN_FITS: usize = 20;
/// Held-out series scored after each fit.
const READS_PER_FIT: usize = 12;
/// Smoothing context of the score reads (the score route's default).
const SCORE_CONTEXT: usize = 5;
/// Mixed into the seed for the held-out draw.
pub const HELD_OUT_SALT: u64 = 0x4845_4c44_4f55_5400;

/// The pipeline configuration every workload fits with.
pub fn config() -> KGraphConfig {
    KGraphConfig::new(3)
}

/// Generator seed of draw `i` of a run with workload seed `seed`.
pub fn draw_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(DRAWS as u64).wrapping_add(i as u64)
}

/// The training set of one draw and a held-out set of the same shape.
pub fn inputs(shape: FitShape, draw_seed: u64) -> (Dataset, Dataset) {
    (
        datasets::cbf::cbf(shape.per_class, shape.length, draw_seed),
        datasets::cbf::cbf(
            READS_PER_FIT.div_ceil(3),
            shape.length,
            draw_seed ^ HELD_OUT_SALT,
        ),
    )
}

/// Scores the score path returns for a series of `n` points: one per
/// window of the selected layer.
pub fn score_len(model: &KGraphModel, n: usize) -> usize {
    let layer = model.best();
    tscore::windows::window_count(n, layer.length, layer.embedding.stride)
}

/// ARI of a model's labels against the generator's.
pub fn ari(ds: &Dataset, labels: &[usize]) -> f64 {
    adjusted_rand_index(ds.labels().expect("CBF draws are labelled"), labels)
}

/// One draw with its reference fit.
pub struct Draw {
    pub dataset: Dataset,
    pub held: Dataset,
    pub reference: KGraphModel,
}

/// Runs a fit workload for `seconds`; `trace` selects the per-layer run.
pub fn run(shape: FitShape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();

    // Set-up, once per draw: generate the inputs and run the reference
    // fit and one view. One untimed fit first pays the process's cold
    // start (thread spawns, first page faults, allocator growth), which
    // would otherwise land on whichever set-up ran first. `setup_s` is
    // the median over draws.
    std::hint::black_box(KGraph::new(cfg.clone()).fit(&inputs(shape, draw_seed(seed, 0)).0));
    let mut setups = Vec::with_capacity(DRAWS);
    let mut draws = Vec::with_capacity(DRAWS);
    for i in 0..DRAWS {
        let t = Instant::now();
        let (dataset, held) = inputs(shape, draw_seed(seed, i));
        let reference = KGraph::new(cfg.clone()).fit(&dataset);
        let (svg, elements) = stages::view(&reference);
        setups.push(t.elapsed().as_secs_f64());
        out.op(true);
        out.check(stages::view_ok(&svg, elements), || {
            "set-up view incomplete".into()
        });
        draws.push(Draw {
            dataset,
            held,
            reference,
        });
    }
    out.set("setup_s", median(&setups));
    let first = &draws[0];
    out.note(format!(
        "{DRAWS} draws of CBF {} series x {} points, lengths {:?}",
        first.dataset.len(),
        shape.length,
        first
            .reference
            .layers
            .iter()
            .map(|l| l.length)
            .collect::<Vec<_>>()
    ));
    let aris: Vec<f64> = draws
        .iter()
        .map(|d| ari(&d.dataset, &d.reference.labels))
        .collect();
    let mean_ari = aris.iter().sum::<f64>() / aris.len() as f64;
    out.set("quality.ari", mean_ari);
    out.note(format!(
        "ari = {mean_ari:.4} (mean over draws of final labels vs generator labels; per draw {aris:.3?})"
    ));

    if trace {
        run_traced(&mut out, &draws, &cfg, seconds);
    } else {
        run_untraced(&mut out, &draws, &cfg, seconds);
    }
    out.set("process.peak_rss_mb", peak_rss_mb());
    out
}

/// Checks a fit against the reference fit of the same draw.
fn check_fit(out: &mut Outcome, model: &KGraphModel, reference: &KGraphModel) {
    out.check(
        model.labels == reference.labels && model.best_layer == reference.best_layer,
        || "labels changed between repetitions of the same fit".into(),
    );
}

fn run_untraced(out: &mut Outcome, draws: &[Draw], cfg: &KGraphConfig, seconds: f64) {
    let mut fits = Vec::new();
    let mut views = Vec::new();
    let mut reads = Vec::new();
    let start = Instant::now();
    let mut series = 0usize;
    // Operations the host stole from are dropped and waited out, within a
    // wait budget as long as the run (see `steal`).
    let budget = Duration::from_secs_f64(seconds);
    let (mut waited, mut dropped) = (Duration::ZERO, 0usize);
    while (start.elapsed() - waited).as_secs_f64() < seconds || fits.len() < MIN_FITS {
        for draw in draws {
            let mark = steal::Mark::now();
            let t = Instant::now();
            let model = KGraph::new(cfg.clone()).fit(&draw.dataset);
            let fit_s = t.elapsed().as_secs_f64();
            out.op(true);
            check_fit(out, &model, &draw.reference);

            let t = Instant::now();
            let (svg, elements) = stages::view(&model);
            let view_s = t.elapsed().as_secs_f64();
            out.op(true);
            out.check(stages::view_ok(&svg, elements), || "view incomplete".into());

            // Reads are served warm: one untimed pass first, as a model
            // that is being queried has its embedding and graph in cache.
            let mut read_s = Vec::new();
            for timed in [false, true] {
                for s in draw.held.series() {
                    let t = Instant::now();
                    let scores = anomaly_scores(model.best(), s.values(), SCORE_CONTEXT);
                    if timed {
                        read_s.push(t.elapsed().as_secs_f64());
                    }
                    let ok = matches!(&scores, Ok(v) if v.len() == score_len(&model, s.len()));
                    out.op(ok);
                }
            }
            if mark.stolen_share() > steal::LIMIT && waited < budget {
                dropped += 1;
                waited += steal::wait_for_calm(budget - waited);
                continue;
            }
            fits.push(fit_s);
            views.push(view_s);
            reads.extend(read_s);
            series += draw.dataset.len();
        }
    }
    out.note(format!(
        "host steal: {dropped} fits dropped, {:.1} s waited for the host",
        waited.as_secs_f64()
    ));

    let fit = Summary::of(&fits);
    let read = Summary::windowed(&reads);
    let busy: f64 = fits.iter().sum();
    out.set("op_p50_ms", fit.p50 * 1e3);
    out.set("op_tail_ms", fit.tail * 1e3);
    out.set("throughput_per_s", series as f64 / busy);
    out.set("view_p50_ms", median(&views) * 1e3);
    out.set("read_p50_ms", read.p50 * 1e3);
    out.set("read_tail_ms", read.tail * 1e3);
    out.note(format!("fit_s: {}", fit.describe(1.0, "s")));
    out.note(format!(
        "fit throughput: {:.1} series/s",
        series as f64 / busy
    ));
    out.note(format!(
        "view (Graph frame): {}",
        Summary::of(&views).describe(1e3, "ms")
    ));
    out.note(format!(
        "read (score held-out series): {}",
        read.describe(1e3, "ms")
    ));
}

fn run_traced(out: &mut Outcome, draws: &[Draw], cfg: &KGraphConfig, seconds: f64) {
    let tr = Tracer::new();
    let mut untraced = Vec::new();
    let mut replays = Vec::new();
    let mut renders = Vec::new();
    let start = Instant::now();
    // Alternate plain and traced fits so both see the same machine state.
    while start.elapsed().as_secs_f64() < seconds || replays.is_empty() {
        for draw in draws {
            let t = Instant::now();
            let model = KGraph::new(cfg.clone()).fit(&draw.dataset);
            untraced.push(t.elapsed().as_secs_f64());
            out.op(true);
            check_fit(out, &model, &draw.reference);

            let replay = replay_fit(&draw.dataset, cfg, &tr);
            out.op(true);
            let verdict = parity(&replay, &draw.reference);
            out.check(verdict.is_ok(), || {
                format!("stage replay parity: {}", verdict.clone().unwrap_err())
            });
            replays.push((replay.root, replay.counts));

            renders.push(render_split(&model));
            out.op(true);
        }
    }
    let tree = SpanTree::new(tr.spans());
    let times: Vec<StageTimes> = replays
        .iter()
        .map(|(root, _)| StageTimes::of(&tree, *root))
        .collect();
    let counts: Vec<FitCounts> = replays.iter().map(|(_, c)| *c).collect();
    set_stage_metrics(out, &times, &counts, &untraced);
    set_render_metrics(out, &renders);
    crate::write_spans(&tr, out);
}

/// Sets the `kgraph` stage, job-pool and tracing-overhead metrics from
/// per-fit stage totals (medians over fits).
pub fn set_stage_metrics(
    out: &mut Outcome,
    times: &[StageTimes],
    counts: &[FitCounts],
    untraced_walls: &[f64],
) {
    let med = |f: fn(&StageTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let count = |f: fn(&FitCounts) -> usize| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    out.set("embed.busy_s", med(|t| t.embed));
    out.set("embed.windows", count(|c| c.windows));
    out.set("nodes.busy_s", med(|t| t.nodes));
    out.set("nodes.count", count(|c| c.nodes));
    out.set("build.busy_s", med(|t| t.build));
    out.set("build.edges", count(|c| c.edges));
    out.set("features.busy_s", med(|t| t.features));
    out.set("cluster.busy_s", med(|t| t.cluster));
    out.set("consensus.matrix_s", med(|t| t.consensus_matrix));
    out.set("consensus.labels_s", med(|t| t.consensus_labels));
    out.set("interpret.busy_s", med(|t| t.interpret));
    out.set("jobs.busy_s", med(|t| t.jobs_busy));
    out.set("jobs.critical_s", med(|t| t.jobs_critical));
    let traced = med(|t| t.wall);
    let plain = median(untraced_walls);
    out.set("trace.fit_s", traced);
    out.set("trace.overhead_share", traced / plain - 1.0);
    out.note(format!(
        "traced fit {traced:.4} s beside untraced fit {plain:.4} s over {} fits (overhead share {:+.4})",
        times.len(),
        traced / plain - 1.0
    ));
}

/// Sets the render-layer metrics (medians over renders).
pub fn set_render_metrics(out: &mut Outcome, renders: &[RenderSplit]) {
    let med = |f: fn(&RenderSplit) -> f64| median(&renders.iter().map(f).collect::<Vec<_>>());
    out.set("render.frame_ms", med(|r| r.frame) * 1e3);
    out.set("render.layout_ms", med(|r| r.layout) * 1e3);
    out.set("render.emit_ms", med(|r| r.emit) * 1e3);
    out.set("render.elements", med(|r| r.elements as f64));
    out.set("render.bytes", med(|r| r.bytes as f64));
}
