//! Request routing and endpoint handlers.
//!
//! Every data endpoint resolves its model to an `Arc<KGraphModel>` through
//! the worker's [`StoreReader`] (lock-free in steady state) and then reads
//! only immutable state. Single-series and batch endpoints share the same
//! per-series core functions, so a batch response is bit-identical to the
//! equivalent sequence of single requests.
//!
//! Error mapping follows the [`TsError`] contract: caller-side problems
//! (short series, bad parameters) are 4xx, model-side degeneracy is 5xx,
//! unparseable bodies are 400.

use crate::durability::{durable_name, Durability, IngestLog};
use crate::http::{Request, Response};
use crate::json::{f64s_to_json, write_json_string, Json};
use crate::server::ServerStats;
use crate::store::{ModelStore, StoreReader};
use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, RenderBudget};
use kgraph::anomaly::anomaly_scores;
use kgraph::features::feature_row;
use kgraph::graphoid::{gamma_graphoid, lambda_graphoid};
use kgraph::pipeline::{KGraph, KGraphModel};
use kgraph::KGraphConfig;
use std::sync::Arc;
use streamfit::{SessionRegistry, StreamStatus};
use tscore::error::TsError;
use tscore::par::par_map;
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::layout::LayoutEngine;

/// Everything a handler can reach besides the per-worker [`StoreReader`]:
/// the store (admin routes), the streaming-session registry (ingest
/// routes) and the shared counters (metrics).
pub struct RouteContext<'a> {
    /// The model registry; only admin routes (fit/delete/ingest
    /// publication) write to it.
    pub store: &'a ModelStore,
    /// Streaming sessions keyed by model name.
    pub sessions: &'a SessionRegistry,
    /// Shared monotonic counters.
    pub stats: &'a ServerStats,
    /// The durability layer (WAL + snapshots); a disabled instance when
    /// the server runs without a state directory.
    pub durability: &'a Durability,
}

/// Maximum number of series accepted in one batch request.
const MAX_BATCH_ROWS: usize = 4096;

/// Upper bound on `/debug/sleep` (milliseconds) so the route cannot be
/// used to park workers indefinitely.
const MAX_SLEEP_MS: u64 = 5_000;

/// Maps a domain error onto an HTTP status: model-side degeneracy is the
/// server's fault (500), everything else blames the request (422).
fn status_for(e: &TsError) -> u16 {
    match e {
        TsError::Degenerate(_) => 500,
        _ => 422,
    }
}

fn error_response(e: TsError) -> Response {
    Response::error(status_for(&e), &e.to_string())
}

/// An endpoint's outcome: both arms are complete responses, so request
/// errors propagate with `?` and [`handle`] sends whichever arm it gets.
type Handled = Result<Response, Response>;

// ---------------------------------------------------------------------------
// Per-series cores (shared by single and batch endpoints)
// ---------------------------------------------------------------------------

fn score_series(model: &KGraphModel, values: &[f64], context: usize) -> Result<Vec<f64>, TsError> {
    anomaly_scores(model.best(), values, context)
}

fn features_series(model: &KGraphModel, values: &[f64]) -> Result<Vec<f64>, TsError> {
    let layer = model.best();
    if layer.graph.node_count() == 0 {
        return Err(TsError::Degenerate("selected layer has no nodes".into()));
    }
    if values.len() < layer.length {
        return Err(TsError::TooShort {
            required: layer.length,
            actual: values.len(),
        });
    }
    let path = layer
        .assign_path(values)
        .expect("preconditions checked above");
    Ok(feature_row(
        layer,
        &path,
        model.config.node_features,
        model.config.edge_features,
    ))
}

fn predict_series(model: &KGraphModel, values: &[f64]) -> Result<usize, TsError> {
    model.predict(values).ok_or(TsError::TooShort {
        required: model.best_length(),
        actual: values.len(),
    })
}

// ---------------------------------------------------------------------------
// Body decoding
// ---------------------------------------------------------------------------

fn body_str(req: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))
}

fn is_json_body(req: &Request) -> bool {
    req.header("content-type")
        .is_some_and(|ct| ct.contains("json"))
        || req.body.trim_ascii_start().starts_with(b"[")
        || req.body.trim_ascii_start().starts_with(b"{")
}

/// One series: a JSON array, a JSON object with a `series` member, or CSV
/// (all numbers, commas and/or newlines).
fn parse_series(req: &Request) -> Result<Vec<f64>, Response> {
    let text = body_str(req)?;
    let values = if is_json_body(req) {
        let v = Json::parse(text).map_err(|e| Response::error(400, &e))?;
        let arr = v.get("series").unwrap_or(&v);
        arr.to_f64s().map_err(|e| Response::error(400, &e))?
    } else {
        parse_csv_row(text).map_err(|e| Response::error(400, &e))?
    };
    if values.is_empty() {
        return Err(Response::error(400, "empty series"));
    }
    all_finite(&values)?;
    Ok(values)
}

/// Many series: a JSON array of arrays (optionally under `series`), or CSV
/// with one series per line.
fn parse_series_batch(req: &Request) -> Result<Vec<Vec<f64>>, Response> {
    let text = body_str(req)?;
    let rows: Vec<Vec<f64>> = if is_json_body(req) {
        let v = Json::parse(text).map_err(|e| Response::error(400, &e))?;
        let arr = v.get("series").unwrap_or(&v);
        let items = arr
            .as_arr()
            .ok_or_else(|| Response::error(400, "expected an array of series"))?;
        items
            .iter()
            .map(|row| row.to_f64s())
            .collect::<Result<_, _>>()
            .map_err(|e| Response::error(400, &e))?
    } else {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(parse_csv_row)
            .collect::<Result<_, _>>()
            .map_err(|e| Response::error(400, &e))?
    };
    if rows.is_empty() {
        return Err(Response::error(400, "empty batch"));
    }
    rows.iter().try_for_each(|row| all_finite(row))?;
    if rows.len() > MAX_BATCH_ROWS {
        return Err(Response::error(
            413,
            &format!(
                "batch of {} rows exceeds limit {MAX_BATCH_ROWS}",
                rows.len()
            ),
        ));
    }
    Ok(rows)
}

/// Refuses non-finite values (JSON `1e400`, CSV `NaN` or `inf`): they parse
/// as numbers, but no model can embed them, and an ingest must reject them
/// before the WAL journals the record.
fn all_finite(values: &[f64]) -> Result<(), Response> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(Response::error(
            422,
            &format!("non-finite value {} at index {i}", values[i]),
        )),
    }
}

fn parse_csv_row(line: &str) -> Result<Vec<f64>, String> {
    line.split([',', ' ', '\t', '\n', '\r'])
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad number {:?}", t.trim()))
        })
        .collect()
}

fn query_usize(req: &Request, name: &str, default: usize) -> Result<usize, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| Response::error(400, &format!("bad {name} parameter {v:?}"))),
    }
}

fn query_f64(req: &Request, name: &str, default: f64) -> Result<f64, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| Response::error(400, &format!("bad {name} parameter {v:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Every route the server answers. [`Route::parse`] maps requests onto
/// variants, [`dispatch`] maps variants onto handlers, and the
/// discriminant indexes the per-route counters in [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Health,
    Models,
    ModelInfo,
    Fit,
    Delete,
    Score,
    Features,
    Predict,
    Batch,
    Graphoid,
    Render,
    Ingest,
    StreamStatus,
    Metrics,
    DebugSleep,
    /// Anything else: 404, or 405 for an unsupported method. Must stay
    /// last, so that it sizes [`Route::ALL`].
    Other,
}

impl Route {
    /// Every route with its `/metrics` label, in discriminant order (checked
    /// at compile time below), which is also the `/metrics` order.
    pub(crate) const ALL: [(Route, &'static str); Route::Other as usize + 1] = [
        (Route::Health, "health"),
        (Route::Models, "models"),
        (Route::ModelInfo, "model_info"),
        (Route::Fit, "fit"),
        (Route::Delete, "delete"),
        (Route::Score, "score"),
        (Route::Features, "features"),
        (Route::Predict, "predict"),
        (Route::Batch, "batch"),
        (Route::Graphoid, "graphoid"),
        (Route::Render, "render"),
        (Route::Ingest, "ingest"),
        (Route::StreamStatus, "stream_status"),
        (Route::Metrics, "metrics"),
        (Route::DebugSleep, "debug_sleep"),
        (Route::Other, "other"),
    ];

    /// Classifies a request by method and path segments. The second value
    /// is the model name of a `/models/{name}…` route, empty otherwise.
    fn parse<'a>(method: &str, segments: &[&'a str]) -> (Route, &'a str) {
        match (method, segments) {
            ("GET", ["health"]) => (Route::Health, ""),
            ("GET", ["metrics"]) => (Route::Metrics, ""),
            ("GET", ["models"]) => (Route::Models, ""),
            ("GET", ["debug", "sleep"]) => (Route::DebugSleep, ""),
            ("GET", ["models", name]) => (Route::ModelInfo, name),
            ("PUT", ["models", name]) => (Route::Fit, name),
            ("DELETE", ["models", name]) => (Route::Delete, name),
            ("POST", ["models", name, "score"]) => (Route::Score, name),
            ("POST", ["models", name, "features"]) => (Route::Features, name),
            ("POST", ["models", name, "predict"]) => (Route::Predict, name),
            ("POST", ["models", name, "batch"]) => (Route::Batch, name),
            ("POST", ["models", name, "ingest"]) => (Route::Ingest, name),
            ("GET", ["models", name, "graphoid"]) => (Route::Graphoid, name),
            ("GET", ["models", name, "render"]) => (Route::Render, name),
            ("GET", ["models", name, "stream-status"]) => (Route::StreamStatus, name),
            _ => (Route::Other, ""),
        }
    }
}

// Each variant has exactly one `ALL` entry, at its discriminant.
const _: () = {
    let mut i = 0;
    while i < Route::ALL.len() {
        assert!(Route::ALL[i].0 as usize == i, "Route::ALL out of order");
        i += 1;
    }
};

/// Dispatches one parsed request. `reader` is the calling worker's cached
/// registry view; `ctx` carries the store (admin routes), the streaming
/// sessions (ingest routes) and the shared counters (metrics).
pub fn handle(req: &Request, reader: &mut StoreReader<'_>, ctx: &RouteContext<'_>) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (route, name) = Route::parse(req.method.as_str(), &segments);
    ctx.stats.bump_route(route);
    match dispatch(route, name, req, reader, ctx) {
        Ok(resp) | Err(resp) => resp,
    }
}

fn dispatch(
    route: Route,
    name: &str,
    req: &Request,
    reader: &mut StoreReader<'_>,
    ctx: &RouteContext<'_>,
) -> Handled {
    match route {
        Route::Health => Ok(health(ctx)),
        Route::Metrics => Ok(metrics_endpoint(ctx)),
        Route::Models => Ok(list_models(ctx.store)),
        Route::ModelInfo => Ok(model_info(&*model(reader, name)?)),
        Route::Fit => fit_model(req, ctx, name),
        Route::Delete => delete_model(ctx, name),
        Route::Score => score_endpoint(req, &*model(reader, name)?),
        Route::Features => features_endpoint(req, &*model(reader, name)?),
        Route::Predict => predict_endpoint(req, &*model(reader, name)?),
        Route::Batch => batch_endpoint(req, &*model(reader, name)?),
        Route::Ingest => ingest_endpoint(req, model(reader, name)?, ctx, name),
        Route::Graphoid => graphoid_endpoint(req, &*model(reader, name)?),
        Route::Render => render_endpoint(req, &*model(reader, name)?),
        Route::StreamStatus => {
            model(reader, name)?;
            Ok(stream_status_endpoint(ctx, name))
        }
        Route::DebugSleep => debug_sleep(req),
        Route::Other => match req.method.as_str() {
            "GET" | "POST" | "PUT" | "DELETE" => Err(Response::error(
                404,
                &format!("no route for {} {}", req.method, req.path),
            )),
            method => Err(Response::error(
                405,
                &format!("method {method} not supported"),
            )),
        },
    }
}

fn no_model(name: &str) -> Response {
    Response::error(404, &format!("no model named {name:?}"))
}

/// The named model from the worker's registry view, or a 404.
fn model(reader: &mut StoreReader<'_>, name: &str) -> Result<Arc<KGraphModel>, Response> {
    reader.get(name).ok_or_else(|| no_model(name))
}

/// `GET /health` — liveness, registry size and durability state:
/// `"degraded"` when any model is read-only, `"ok"` otherwise. Both are
/// 200, because reads still serve.
fn health(ctx: &RouteContext<'_>) -> Response {
    let degraded = ctx.durability.degraded_models();
    let status = if degraded.is_empty() {
        "ok"
    } else {
        "degraded"
    };
    let mut body = format!(
        "{{\"status\":\"{status}\",\"durability\":{},\"models\":{},\"bytes\":{},\"degraded\":[",
        ctx.durability.enabled(),
        ctx.store.len(),
        ctx.store.total_bytes()
    );
    for (i, (name, reason)) in degraded.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"model\":");
        write_json_string(&mut body, name);
        body.push_str(",\"reason\":");
        write_json_string(&mut body, reason);
        body.push('}');
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn list_models(store: &ModelStore) -> Response {
    let mut body = String::from("[");
    for (i, (name, bytes, k, best_len)) in store.list().into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"name\":");
        write_json_string(&mut body, &name);
        body.push_str(&format!(
            ",\"bytes\":{bytes},\"k\":{k},\"best_length\":{best_len}}}"
        ));
    }
    body.push(']');
    Response::json(200, body)
}

fn model_info(model: &KGraphModel) -> Response {
    let layer = model.best();
    let score = &model.scores[model.best_layer];
    let mut body = String::from("{");
    body.push_str(&format!("\"k\":{},", model.k()));
    body.push_str(&format!("\"n_series\":{},", model.labels.len()));
    body.push_str(&format!("\"best_length\":{},", model.best_length()));
    body.push_str(&format!("\"n_layers\":{},", model.layers.len()));
    body.push_str(&format!(
        "\"nodes\":{},\"edges\":{},",
        layer.graph.node_count(),
        layer.graph.edge_count()
    ));
    body.push_str("\"wc\":");
    crate::json::write_json_f64(&mut body, score.wc);
    body.push_str(",\"we\":");
    crate::json::write_json_f64(&mut body, score.we);
    body.push_str(",\"lengths\":");
    let lengths: Vec<f64> = model.layers.iter().map(|l| l.length as f64).collect();
    body.push_str(&f64s_to_json(&lengths));
    body.push('}');
    Response::json(200, body)
}

/// `PUT /models/{name}` — fit on demand from a posted dataset (CSV rows or
/// JSON array-of-arrays), `?k=` clusters (default 2), `?seed=`,
/// `?n_lengths=`. The name must be one the durability layer can persist.
fn fit_model(req: &Request, ctx: &RouteContext<'_>, name: &str) -> Handled {
    let store = ctx.store;
    if !durable_name(name) {
        return Err(Response::error(
            422,
            &format!("model name {name:?} must be 1-128 ASCII letters, digits, '-', '_' or '.'"),
        ));
    }
    let rows = parse_series_batch(req)?;
    let k = query_usize(req, "k", 2)?;
    let seed = query_usize(req, "seed", 0)?;
    let n_lengths = query_usize(req, "n_lengths", 3)?;
    if k < 1 || rows.len() < k {
        return Err(Response::error(
            422,
            &format!("need at least k={k} series, got {}", rows.len()),
        ));
    }
    let min_len = rows.iter().map(Vec::len).min().unwrap_or(0);
    if min_len < 8 {
        return Err(Response::error(
            422,
            &format!("series too short to fit (min length {min_len}, need >= 8)"),
        ));
    }
    let series: Vec<TimeSeries> = rows.into_iter().map(TimeSeries::new).collect();
    let dataset = Dataset::new(name, DatasetKind::Other, series);
    let cfg = KGraphConfig {
        n_lengths: n_lengths.clamp(1, 16),
        ..KGraphConfig::new(k)
    }
    .with_seed(seed as u64);
    let model = Arc::new(KGraph::new(cfg).fit(&dataset));
    let bytes = store.insert(name, Arc::clone(&model));
    // Make the fresh model durable (initial snapshot + empty WAL) so a
    // restart recovers it even before the first ingest.
    ctx.durability
        .persist_initial(name, &model, ctx.sessions.config());
    let mut body = String::from("{\"fitted\":");
    write_json_string(&mut body, name);
    body.push_str(&format!(",\"bytes\":{bytes}}}"));
    Ok(Response::json(201, body))
}

/// `DELETE /models/{name}` — evicts the model with its streaming session
/// and durable state.
fn delete_model(ctx: &RouteContext<'_>, name: &str) -> Handled {
    if !ctx.store.remove(name) {
        return Err(no_model(name));
    }
    // The streaming session buffers node ids of the deleted graph; drop it
    // with the model, along with its durable state.
    ctx.sessions.remove(name);
    ctx.durability.remove_model(name);
    let mut body = String::from("{\"deleted\":");
    write_json_string(&mut body, name);
    body.push('}');
    Ok(Response::json(200, body))
}

/// `POST /models/{name}/score?context=` — anomaly scores for one series.
fn score_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    let values = parse_series(req)?;
    let context = query_usize(req, "context", 5)?;
    let scores = score_series(model, &values, context).map_err(error_response)?;
    if req.wants_csv() {
        let mut csv = String::from("score\n");
        for s in &scores {
            csv.push_str(&format!("{s}\n"));
        }
        return Ok(Response::csv(200, csv));
    }
    Ok(Response::json(
        200,
        format!("{{\"scores\":{}}}", f64s_to_json(&scores)),
    ))
}

/// `POST /models/{name}/features` — crossing-feature vector of one series.
fn features_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    let values = parse_series(req)?;
    let features = features_series(model, &values).map_err(error_response)?;
    if req.wants_csv() {
        let mut csv = String::from("feature\n");
        for f in &features {
            csv.push_str(&format!("{f}\n"));
        }
        return Ok(Response::csv(200, csv));
    }
    Ok(Response::json(
        200,
        format!("{{\"features\":{}}}", f64s_to_json(&features)),
    ))
}

/// `POST /models/{name}/predict` — cluster assignment of one series.
fn predict_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    let values = parse_series(req)?;
    let cluster = predict_series(model, &values).map_err(error_response)?;
    Ok(Response::json(200, format!("{{\"cluster\":{cluster}}}")))
}

/// `POST /models/{name}/batch?op=score|features|predict&context=` — many
/// series in one request, fanned out through `tscore::par::par_map`. Per-row
/// failures do not fail the batch: each result slot is either the row's
/// payload or an `{"error": …}` object.
fn batch_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    let rows = parse_series_batch(req)?;
    let op = req.query_param("op").unwrap_or("score");
    let context = query_usize(req, "context", 5)?;
    if !matches!(op, "score" | "features" | "predict") {
        return Err(Response::error(400, &format!("unknown batch op {op:?}")));
    }

    // Rows fan out through `tscore::par::par_map`, which preserves row
    // order, so the response is bit-identical to issuing the rows as
    // individual requests in order.
    let run_row = |values: &[f64]| -> Result<String, TsError> {
        match op {
            "score" => score_series(model, values, context)
                .map(|s| format!("{{\"scores\":{}}}", f64s_to_json(&s))),
            "features" => features_series(model, values)
                .map(|f| format!("{{\"features\":{}}}", f64s_to_json(&f))),
            _ => predict_series(model, values).map(|c| format!("{{\"cluster\":{c}}}")),
        }
    };
    let results = par_map(rows.len(), 2, |i| run_row(&rows[i]));

    let mut body = String::from("{\"results\":[");
    for (i, result) in results.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match result {
            Ok(payload) => body.push_str(&payload),
            Err(e) => {
                body.push_str("{\"error\":");
                write_json_string(&mut body, &e.to_string());
                body.push_str(&format!(",\"status\":{}}}", status_for(&e)));
            }
        }
    }
    body.push_str("]}");
    Ok(Response::json(200, body))
}

/// `GET /models/{name}/graphoid?cluster=&kind=gamma|lambda&threshold=` —
/// the interpretable subgraph of one cluster.
fn graphoid_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    let cluster = query_usize(req, "cluster", 0)?;
    if cluster >= model.k() {
        return Err(Response::error(
            422,
            &format!("cluster {cluster} out of range 0..{}", model.k()),
        ));
    }
    let threshold = query_f64(req, "threshold", 0.7)?;
    let kind = req.query_param("kind").unwrap_or("gamma");
    let stats = model.best_stats();
    let graphoid = match kind {
        "gamma" => gamma_graphoid(&stats, model.best(), cluster, threshold),
        "lambda" => lambda_graphoid(&stats, model.best(), cluster, threshold),
        other => {
            return Err(Response::error(
                400,
                &format!("unknown graphoid kind {other:?}"),
            ))
        }
    };
    let graph = &model.best().graph;
    let mut body = String::from("{");
    body.push_str(&format!(
        "\"cluster\":{cluster},\"kind\":\"{kind}\",\"threshold\":"
    ));
    crate::json::write_json_f64(&mut body, threshold);
    body.push_str(",\"nodes\":[");
    for (i, n) in graphoid.nodes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{}", n.index()));
    }
    body.push_str("],\"edges\":[");
    for (i, e) in graphoid.edges.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let (s, t) = graph.endpoints(*e);
        body.push_str(&format!(
            "{{\"src\":{},\"dst\":{},\"weight\":",
            s.index(),
            t.index()
        ));
        crate::json::write_json_f64(&mut body, *graph.edge(*e));
        body.push('}');
    }
    body.push_str("]}");
    Ok(Response::json(200, body))
}

/// Hard ceiling on the SVG element count any single render may cost the
/// server. Requests whose *explicit* detail level would exceed it are
/// refused with 413 before any layout work happens — that is the
/// admission-control contract: a render request has bounded cost no
/// matter how large the model is.
const MAX_RENDER_ELEMENTS: usize = 50_000;

/// Default render budget when the client does not pass `?budget=`. Small
/// models resolve to full detail well inside it (so existing clients see
/// byte-identical output); 10k+-node layers degrade to aggregated or
/// glyph detail instead of emitting multi-megabyte documents.
const DEFAULT_RENDER_BUDGET: usize = 20_000;

/// `GET /models/{name}/render?format=svg|ascii&detail=&layout=&budget=`
/// — the Graph frame, rendered headlessly from the shared model.
///
/// * `detail` — `auto` (default) | `full` | `aggregated` | `glyph`.
///   `auto` degrades until the element budget fits.
/// * `layout` — `auto` (default) | `circular` | `exact` | `bh`.
/// * `budget` — element cap for `auto` detail, clamped to the server's
///   hard ceiling.
///
/// The response carries `x-render-elements` with the emitted element
/// count so smoke tests (and clients) can verify the budget held.
fn render_endpoint(req: &Request, model: &KGraphModel) -> Handled {
    match req.query_param("format").unwrap_or("svg") {
        "svg" => {
            let detail = match req.query_param("detail") {
                None => DetailLevel::Auto,
                Some(s) => DetailLevel::parse(s)
                    .ok_or_else(|| Response::error(400, &format!("unknown detail level {s:?}")))?,
            };
            let engine = match req.query_param("layout") {
                None => LayoutEngine::Auto,
                Some(s) => LayoutEngine::parse(s)
                    .ok_or_else(|| Response::error(400, &format!("unknown layout engine {s:?}")))?,
            };
            let budget =
                query_usize(req, "budget", DEFAULT_RENDER_BUDGET)?.clamp(1, MAX_RENDER_ELEMENTS);
            // Admission control: an explicit detail level states its cost
            // up front; refuse before spending any layout time on it.
            let g = &model.best().graph;
            let k = model.k();
            let fixed = 3 + 2 * k;
            let estimate = match detail {
                DetailLevel::Full => fixed + 3 * g.edge_count() + g.node_count(),
                // The direct-edge quota self-limits to the budget (≤ the
                // ceiling); nodes are the irreducible cost.
                DetailLevel::Aggregated => fixed + g.node_count() + k + 1,
                // Auto degrades to fit the (clamped) budget; Glyph is O(k).
                DetailLevel::Auto | DetailLevel::Glyph => 0,
            };
            if estimate > MAX_RENDER_ELEMENTS {
                return Err(Response::error(
                    413,
                    &format!(
                        "detail level would emit ~{estimate} elements (limit {MAX_RENDER_ELEMENTS}); use detail=auto"
                    ),
                ));
            }
            let (svg, elements) = GraphFrame::with_auto_thresholds(model).render_graph_with(
                engine,
                detail,
                RenderBudget::capped(budget),
            );
            Ok(Response::svg(svg).with_header("x-render-elements", elements.to_string()))
        }
        "ascii" => {
            let layer = model.best();
            let mut text = format!(
                "k-Graph model: k={} ℓ̄={} nodes={} edges={}\n",
                model.k(),
                model.best_length(),
                layer.graph.node_count(),
                layer.graph.edge_count()
            );
            text.push_str(&graphint::ascii::partition_summary(&model.labels));
            text.push('\n');
            // The most central patterns, as sparklines.
            let frame = GraphFrame::with_auto_thresholds(model);
            for &n in frame.exploration_order().iter().take(5) {
                let pattern = &layer.graph.node(tsgraph::NodeId(n as u32)).pattern;
                text.push_str(&format!(
                    "node {n:>3} {}\n",
                    graphint::ascii::sparkline(pattern)
                ));
            }
            Ok(Response::text(200, text))
        }
        other => Err(Response::error(
            400,
            &format!("unknown render format {other:?}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

/// Ingest body: `{"series": 0, "points": [...]}` selects the series
/// in-band; a bare JSON array or a CSV row carries points only and the
/// series index comes from `?series=` (default 0).
fn parse_ingest(req: &Request) -> Result<(Option<usize>, Vec<f64>), Response> {
    let text = body_str(req)?;
    let (index, points) = if is_json_body(req) {
        let v = Json::parse(text).map_err(|e| Response::error(400, &e))?;
        if let Some(points) = v.get("points") {
            let index = match v.get("series") {
                None => None,
                Some(s) => Some(
                    s.as_f64()
                        .filter(|f| f.fract() == 0.0 && *f >= 0.0)
                        .ok_or_else(|| {
                            Response::error(400, "series must be a non-negative integer")
                        })? as usize,
                ),
            };
            let points = points.to_f64s().map_err(|e| Response::error(400, &e))?;
            (index, points)
        } else {
            let arr = v.get("series").unwrap_or(&v);
            (None, arr.to_f64s().map_err(|e| Response::error(400, &e))?)
        }
    } else {
        (
            None,
            parse_csv_row(text).map_err(|e| Response::error(400, &e))?,
        )
    };
    if points.is_empty() {
        return Err(Response::error(400, "empty points"));
    }
    all_finite(&points)?;
    Ok((index, points))
}

/// `POST /models/{name}/ingest?series=` — appends points to an open
/// series of the model's streaming session. New complete windows are
/// routed through the stored embeddings and buffered as transition
/// triples; the session's refresh cadence rescores against the merged
/// base+delta view, and its compaction cadence publishes a fresh base CSR
/// back into the store. Readers are never blocked: they keep scoring
/// whatever `Arc` snapshot they hold.
fn ingest_endpoint(
    req: &Request,
    model: Arc<KGraphModel>,
    ctx: &RouteContext<'_>,
    name: &str,
) -> Handled {
    let (body_index, points) = parse_ingest(req)?;
    let index = match body_index {
        Some(i) => i,
        None => query_usize(req, "series", 0)?,
    };
    let session = ctx.sessions.session_for(name, &model);
    let mut guard = session.lock().unwrap_or_else(|e| e.into_inner());
    // Definitely-invalid appends are refused *before* the WAL sees them:
    // a journaled record must be replayable.
    if index > guard.open_series() {
        return Err(error_response(TsError::InvalidParameter(format!(
            "series index {index} out of range (session has {}; the next new index is {})",
            guard.open_series(),
            guard.open_series()
        ))));
    }
    // Journal first, apply second, both under the session lock — the WAL
    // order is the apply order. A WAL failure refuses the ingest without
    // touching the session, so the two can never silently diverge.
    let wal_seq = match ctx.durability.log_ingest(name, index as u32, &points) {
        IngestLog::Logged { seq } => seq,
        IngestLog::Unavailable { reason } => {
            return Err(
                Response::error(503, &format!("ingest journal unavailable: {reason}"))
                    .with_header("retry-after", "1".to_string()),
            );
        }
        IngestLog::Degraded { reason } => {
            return Err(Response::error(
                503,
                &format!("model {name:?} is degraded read-only: {reason}"),
            ));
        }
    };
    let outcome = guard.append(index, &points).map_err(|e| {
        // The journal holds a record the session refused: revoke it (still
        // under the session lock) so replay can never apply what the live
        // session did not.
        ctx.durability.revoke_ingest(name, wal_seq);
        error_response(e)
    })?;
    if let Some(next) = &outcome.compacted {
        // Publish the compacted base: a new snapshot version for future
        // readers; in-flight readers keep the old Arc.
        ctx.store.insert(name, Arc::clone(next));
    }
    // Snapshot on the refresh cadence (still under the session lock, so
    // the pair is a consistent point-in-time image).
    ctx.durability.after_append(name, &guard, outcome.refreshed);
    Ok(Response::json(
        200,
        format!(
            "{{\"series\":{index},\"appended\":{},\"new_windows\":{},\
             \"refreshed\":{},\"compacted\":{}}}",
            points.len(),
            outcome.new_windows,
            outcome.refreshed,
            outcome.compacted.is_some()
        ),
    ))
}

fn stream_status_json(status: &StreamStatus) -> String {
    let mut body = String::from("{\"active\":true,");
    body.push_str(&format!(
        "\"points_total\":{},\"points_pending\":{},\"refreshes\":{},\
         \"compactions\":{},\"pending_triples\":{},\"delta_edges\":{},",
        status.points_total,
        status.points_pending,
        status.refreshes,
        status.compactions,
        status.pending_triples,
        status.delta_edges
    ));
    body.push_str("\"series\":[");
    for (i, s) in status.series.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"index\":{},\"points\":{},\"windows\":{},\"mean_score\":",
            s.index, s.points, s.windows
        ));
        match s.mean_score {
            Some(v) => crate::json::write_json_f64(&mut body, v),
            None => body.push_str("null"),
        }
        body.push_str(",\"max_score\":");
        match s.max_score {
            Some(v) => crate::json::write_json_f64(&mut body, v),
            None => body.push_str("null"),
        }
        body.push('}');
    }
    body.push_str("]}");
    body
}

/// `GET /models/{name}/stream-status` — the model's streaming-session
/// summary, or `{"active":false}` when nothing has been ingested yet.
fn stream_status_endpoint(ctx: &RouteContext<'_>, name: &str) -> Response {
    match ctx.sessions.get(name) {
        None => Response::json(200, "{\"active\":false,\"series\":[]}".to_string()),
        Some(session) => {
            let status = session.lock().unwrap_or_else(|e| e.into_inner()).status();
            Response::json(200, stream_status_json(&status))
        }
    }
}

/// `GET /metrics` — plain-text counters: admission-control totals, queue
/// depth high-water, per-route request counts, store and session gauges.
fn metrics_endpoint(ctx: &RouteContext<'_>) -> Response {
    use std::sync::atomic::Ordering::Relaxed;
    let (stats, d) = (ctx.stats, ctx.durability.counters());
    let mut out = String::new();
    let mut line = |name: &str, value: u64| out.push_str(&format!("graphserve_{name} {value}\n"));
    line("requests_admitted_total", stats.admitted.load(Relaxed));
    line("requests_shed_total", stats.shed.load(Relaxed));
    line("responses_served_total", stats.served.load(Relaxed));
    line(
        "queue_depth_high_water",
        stats.queue_high_water.load(Relaxed),
    );
    for (label, count) in stats.route_counts() {
        line(&format!("route_requests_total{{route=\"{label}\"}}"), count);
    }
    line("models", ctx.store.len() as u64);
    line("model_bytes", ctx.store.total_bytes() as u64);
    line("stream_sessions", ctx.sessions.len() as u64);
    line("durability_enabled", u64::from(ctx.durability.enabled()));
    for (name, value) in [
        ("wal_records_written_total", &d.wal_records_written),
        ("wal_records_replayed_total", &d.wal_records_replayed),
        ("wal_records_truncated_total", &d.wal_records_truncated),
        ("wal_syncs_total", &d.wal_syncs),
        ("snapshots_written_total", &d.snapshots_written),
        ("snapshot_failures_total", &d.snapshot_failures),
        ("io_retries_total", &d.io_retries),
        ("records_since_snapshot", &d.records_since_snapshot),
        ("recovery_duration_ms", &d.recovery_duration_ms),
        ("models_recovered", &d.models_recovered),
        ("models_degraded", &d.models_degraded),
    ] {
        line(name, value.load(Relaxed));
    }
    Response::text(200, out)
}

/// `GET /debug/sleep?ms=` — parks the worker briefly; exists so operators
/// (and the integration tests) can exercise admission control on demand.
fn debug_sleep(req: &Request) -> Handled {
    let ms = (query_usize(req, "ms", 50)? as u64).min(MAX_SLEEP_MS);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    Ok(Response::json(200, format!("{{\"slept_ms\":{ms}}}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(body);
        Request::read_from(&mut std::io::Cursor::new(bytes), 1 << 20).unwrap()
    }

    /// Everything a [`RouteContext`] borrows, around the demo model.
    struct TestCtx {
        store: ModelStore,
        sessions: SessionRegistry,
        stats: ServerStats,
        durability: Durability,
    }

    impl TestCtx {
        /// Handles `req` as a worker would, through a fresh registry view.
        fn handle(&self, req: &Request) -> Response {
            let ctx = RouteContext {
                store: &self.store,
                sessions: &self.sessions,
                stats: &self.stats,
                durability: &self.durability,
            };
            super::handle(req, &mut self.store.reader(), &ctx)
        }

        fn send(&self, method: &str, target: &str, body: &[u8]) -> Response {
            self.handle(&request(method, target, body))
        }
    }

    fn demo_store() -> TestCtx {
        let store = ModelStore::new(0);
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect()))
            .collect();
        let ds = Dataset::new("demo", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 10,
            pca_sample: 300,
            n_init: 2,
            ..KGraphConfig::new(2)
        }
        .with_lengths(vec![16]);
        store.insert("demo", Arc::new(KGraph::new(cfg).fit(&ds)));
        TestCtx {
            store,
            sessions: SessionRegistry::new(streamfit::StreamConfig::default()),
            stats: ServerStats::default(),
            durability: Durability::disabled(),
        }
    }

    fn body_text(resp: &Response) -> &str {
        std::str::from_utf8(&resp.body).unwrap()
    }

    #[test]
    fn health_and_listing() {
        let store = demo_store();
        let resp = store.send("GET", "/health", b"");
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"models\":1"));
        let resp = store.send("GET", "/models", b"");
        assert!(body_text(&resp).contains("\"name\":\"demo\""));
        let resp = store.send("GET", "/models/demo", b"");
        assert!(body_text(&resp).contains("\"best_length\":16"));
    }

    #[test]
    fn score_json_and_csv() {
        let store = demo_store();
        let series: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = crate::json::f64s_to_json(&series);
        let resp = store.send("POST", "/models/demo/score?context=3", body.as_bytes());
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert!(body_text(&resp).starts_with("{\"scores\":["));

        // CSV body, CSV accept.
        let csv_body: String = series
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let raw = format!(
            "POST /models/demo/score HTTP/1.1\r\naccept: text/csv\r\ncontent-length: {}\r\n\r\n{csv_body}",
            csv_body.len()
        );
        let req = Request::read_from(&mut std::io::Cursor::new(raw.into_bytes()), 1 << 20).unwrap();
        let resp = store.handle(&req);
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).starts_with("score\n"));
    }

    #[test]
    fn short_series_is_422_unknown_model_404() {
        let store = demo_store();
        let resp = store.send("POST", "/models/demo/score", b"[1,2,3]");
        assert_eq!(resp.status, 422);
        assert!(body_text(&resp).contains("too short"));
        let resp = store.send("POST", "/models/nope/score", b"[1,2,3]");
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn bad_bodies_are_400() {
        let store = demo_store();
        for body in [&b"{\"series\": \"x\"}"[..], b"not,numbers,at,all", b"[1,2,"] {
            let resp = store.send("POST", "/models/demo/score", body);
            assert_eq!(resp.status, 400, "body {body:?}: {}", body_text(&resp));
        }
    }

    #[test]
    fn batch_matches_single_requests_bit_for_bit() {
        let store = demo_store();
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|p| (0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect())
            .collect();
        for op in ["score", "features", "predict"] {
            let mut batch_body = String::from("[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    batch_body.push(',');
                }
                batch_body.push_str(&crate::json::f64s_to_json(row));
            }
            batch_body.push(']');
            let resp = store.send(
                "POST",
                &format!("/models/demo/batch?op={op}&context=3"),
                batch_body.as_bytes(),
            );
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            let batch = Json::parse(body_text(&resp)).unwrap();
            let results = batch.get("results").unwrap().as_arr().unwrap();
            assert_eq!(results.len(), rows.len());
            for (row, result) in rows.iter().zip(results) {
                let single = store.send(
                    "POST",
                    &format!("/models/demo/{op}?context=3"),
                    crate::json::f64s_to_json(row).as_bytes(),
                );
                let single = Json::parse(body_text(&single)).unwrap();
                assert_eq!(*result, single, "batch row differs from single {op}");
            }
        }
    }

    #[test]
    fn batch_isolates_per_row_errors() {
        let store = demo_store();
        // Second row is too short; first and third must still succeed.
        let good: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = format!(
            "[{},[1,2,3],{}]",
            crate::json::f64s_to_json(&good),
            crate::json::f64s_to_json(&good)
        );
        let resp = store.send("POST", "/models/demo/batch?op=predict", body.as_bytes());
        assert_eq!(resp.status, 200);
        let parsed = Json::parse(body_text(&resp)).unwrap();
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert!(results[0].get("cluster").is_some());
        assert!(results[1].get("error").is_some());
        assert_eq!(results[1].get("status").unwrap().as_f64(), Some(422.0));
        assert!(results[2].get("cluster").is_some());
    }

    #[test]
    fn graphoid_and_render() {
        let store = demo_store();
        let resp = store.send(
            "GET",
            "/models/demo/graphoid?cluster=0&kind=gamma&threshold=0.1",
            b"",
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"nodes\":["));
        let resp = store.send("GET", "/models/demo/graphoid?cluster=9", b"");
        assert_eq!(resp.status, 422);

        let resp = store.send("GET", "/models/demo/render?format=svg", b"");
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("<svg"));
        let resp = store.send("GET", "/models/demo/render?format=ascii", b"");
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("k-Graph model"));
    }

    #[test]
    fn fit_on_demand_then_serve() {
        let store = demo_store();
        let rows: Vec<String> = (0..6)
            .map(|p| {
                (0..40)
                    .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let body = rows.join("\n");
        let resp = store.send("PUT", "/models/fresh?k=2&seed=7", body.as_bytes());
        assert_eq!(resp.status, 201, "{}", body_text(&resp));
        let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.4).sin()).collect();
        let resp = store.send(
            "POST",
            "/models/fresh/predict",
            crate::json::f64s_to_json(&series).as_bytes(),
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        // And delete it again.
        let resp = store.send("DELETE", "/models/fresh", b"");
        assert_eq!(resp.status, 200);
        // Fit rejects short series.
        let resp = store.send("PUT", "/models/tiny", b"1,2\n3,4");
        assert_eq!(resp.status, 422);
        // Fit rejects a name the durability layer could not persist.
        let resp = store.send("PUT", "/models/a\"b", body.as_bytes());
        assert_eq!(resp.status, 422, "{}", body_text(&resp));
        assert_eq!(store.store.len(), 1);
        // Delete escapes the name of a model registered by other means.
        let demo = store.store.reader().get("demo").unwrap();
        store.store.insert("a\"b", demo);
        let resp = store.send("DELETE", "/models/a\"b", b"");
        assert_eq!(resp.status, 200);
        let parsed = Json::parse(body_text(&resp)).expect("valid JSON");
        assert_eq!(parsed.get("deleted"), Some(&Json::Str("a\"b".into())));
    }

    #[test]
    fn unknown_routes_and_methods() {
        let store = demo_store();
        let resp = store.send("GET", "/nope", b"");
        assert_eq!(resp.status, 404);
        let resp = store.send("PATCH", "/models/demo", b"");
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn ingest_and_stream_status() {
        let store = demo_store();
        // Before any ingest: model exists, session does not.
        let resp = store.send("GET", "/models/demo/stream-status", b"");
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"active\":false"));

        // Ingest a full wave via the object form.
        let points: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = format!("{{\"series\":0,\"points\":{}}}", f64s_to_json(&points));
        let resp = store.send("POST", "/models/demo/ingest", body.as_bytes());
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let parsed = Json::parse(body_text(&resp)).unwrap();
        assert_eq!(parsed.get("series").unwrap().as_f64(), Some(0.0));
        assert_eq!(parsed.get("appended").unwrap().as_f64(), Some(60.0));
        assert!(parsed.get("new_windows").unwrap().as_f64().unwrap() > 0.0);

        // CSV body with ?series= opens a second series.
        let csv: String = points
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let resp = store.send("POST", "/models/demo/ingest?series=1", csv.as_bytes());
        assert_eq!(resp.status, 200, "{}", body_text(&resp));

        let resp = store.send("GET", "/models/demo/stream-status", b"");
        assert_eq!(resp.status, 200);
        let status = Json::parse(body_text(&resp)).unwrap();
        assert_eq!(status.get("points_total").unwrap().as_f64(), Some(120.0));
        assert_eq!(
            status.get("series").unwrap().as_arr().map(|s| s.len()),
            Some(2)
        );

        // Out-of-range series index maps to 422; bad bodies to 400.
        let resp = store.send("POST", "/models/demo/ingest?series=9", b"[1,2,3]");
        assert_eq!(resp.status, 422, "{}", body_text(&resp));
        let resp = store.send("POST", "/models/demo/ingest", b"{\"points\":[]}");
        assert_eq!(resp.status, 400);
        let resp = store.send("POST", "/models/nope/ingest", b"[1,2]");
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn delete_drops_the_stream_session() {
        let store = demo_store();
        let points: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let resp = store.send(
            "POST",
            "/models/demo/ingest",
            f64s_to_json(&points).as_bytes(),
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert_eq!(store.sessions.len(), 1);
        let resp = store.send("DELETE", "/models/demo", b"");
        assert_eq!(resp.status, 200);
        assert!(store.sessions.is_empty(), "session died with its model");
    }

    #[test]
    fn metrics_reports_route_counts() {
        let store = demo_store();
        let one = f64s_to_json(&(0..40).map(|i| (i as f64 * 0.4).sin()).collect::<Vec<_>>());
        let many = format!("[{one},{one},{one},{one}]");
        // One request per route, in `Route::ALL` order; unknown paths and
        // methods count as `other`.
        let sent = [
            (Route::Health, "GET", "/health", ""),
            (Route::Models, "GET", "/models", ""),
            (Route::ModelInfo, "GET", "/models/demo", ""),
            (Route::Fit, "PUT", "/models/fresh?n_lengths=1", &many),
            (Route::Delete, "DELETE", "/models/fresh", ""),
            (Route::Score, "POST", "/models/demo/score", &one),
            (Route::Features, "POST", "/models/demo/features", &one),
            (Route::Predict, "POST", "/models/demo/predict", &one),
            (Route::Batch, "POST", "/models/demo/batch", &many),
            (Route::Graphoid, "GET", "/models/demo/graphoid", ""),
            (Route::Render, "GET", "/models/demo/render?format=ascii", ""),
            (Route::Ingest, "POST", "/models/demo/ingest", &one),
            (Route::StreamStatus, "GET", "/models/demo/stream-status", ""),
            (Route::Metrics, "GET", "/metrics", ""),
            (Route::DebugSleep, "GET", "/debug/sleep?ms=0", ""),
            (Route::Other, "GET", "/nope", ""),
            (Route::Other, "PATCH", "/models/demo", ""),
        ];
        // Indexed by discriminant; `route_counts` reads in `ALL` order.
        let mut expected = [0; Route::ALL.len()];
        for (route, method, target, body) in sent {
            let resp = store.send(method, target, body.as_bytes());
            assert_eq!(
                resp.status >= 400,
                route == Route::Other,
                "{method} {target}"
            );
            expected[route as usize] += 1;
            let counts: Vec<u64> = store.stats.route_counts().map(|(_, n)| n).collect();
            assert_eq!(counts, expected, "{method} {target}");
        }
        assert!(!expected.contains(&0), "every route is exercised");

        // The scrape counts itself before it reads the counters.
        expected[Route::Metrics as usize] += 1;
        let resp = store.send("GET", "/metrics", b"");
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("graphserve_route_requests_total"))
            .collect();
        let want: Vec<String> = Route::ALL
            .iter()
            .map(|(r, label)| {
                let n = expected[*r as usize];
                format!("graphserve_route_requests_total{{route=\"{label}\"}} {n}")
            })
            .collect();
        assert_eq!(lines, want, "{text}");
        assert!(text.contains("graphserve_models 1"), "{text}");
        assert!(
            text.contains("graphserve_queue_depth_high_water 0"),
            "{text}"
        );
    }
}
