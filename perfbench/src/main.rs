//! End-to-end and per-layer benchmark of k-Graph fitting and the
//! graphserve query server. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload fit_long|fit_many|serve_query|serve_ingest
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0
//! only when every operation succeeded and every output check passed.

mod client;
mod fitload;
mod outcome;
mod serve;
mod stages;
mod stats;
mod steal;
mod trace;

use outcome::Outcome;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics and units, reported by every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("view_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
];

/// Per-layer metrics and units. A layer a workload does not exercise
/// reports 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("process.peak_rss_mb", "MiB"),
    ("embed.busy_s", "s"),
    ("embed.windows", "count"),
    ("nodes.busy_s", "s"),
    ("nodes.count", "count"),
    ("build.busy_s", "s"),
    ("build.edges", "count"),
    ("features.busy_s", "s"),
    ("cluster.busy_s", "s"),
    ("consensus.matrix_s", "s"),
    ("consensus.labels_s", "s"),
    ("interpret.busy_s", "s"),
    ("jobs.busy_s", "s"),
    ("jobs.critical_s", "s"),
    ("trace.fit_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("quality.ari", "ratio"),
    ("render.frame_ms", "ms"),
    ("render.layout_ms", "ms"),
    ("render.emit_ms", "ms"),
    ("render.elements", "count"),
    ("render.bytes", "bytes"),
    ("handler.score.p50_ms", "ms"),
    ("handler.predict.p50_ms", "ms"),
    ("handler.features.p50_ms", "ms"),
    ("handler.batch.p50_ms", "ms"),
    ("handler.graphoid.p50_ms", "ms"),
    ("handler.render.p50_ms", "ms"),
    ("handler.ingest.p50_ms", "ms"),
    ("route.score.p50_ms", "ms"),
    ("route.predict.p50_ms", "ms"),
    ("route.features.p50_ms", "ms"),
    ("route.batch.p50_ms", "ms"),
    ("route.graphoid.p50_ms", "ms"),
    ("route.render.p50_ms", "ms"),
    ("route.ingest.p50_ms", "ms"),
    ("wire.overhead_p50_ms", "ms"),
    ("server.queue_high_water", "count"),
    ("server.shed", "count"),
    ("server.served", "count"),
    ("open_loop.p50_ms", "ms"),
    ("open_loop.tail_ms", "ms"),
    ("gen.lag_p50_ms", "ms"),
    ("gen.lag_max_ms", "ms"),
    ("stream.append_ms", "ms"),
    ("stream.refresh_ms", "ms"),
    ("stream.compact_ms", "ms"),
    ("stream.refreshes", "count"),
    ("stream.compactions", "count"),
    ("wal.records", "count"),
    ("wal.syncs", "count"),
    ("wal.bytes", "bytes"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "bytes"),
];

const WORKLOADS: [&str; 4] = ["fit_long", "fit_many", "serve_query", "serve_ingest"];

/// Directory (relative to the working directory) for span dumps and the
/// durable server's temporary state.
pub const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Writes the run's spans to `OUT_DIR` and notes where.
pub fn write_spans(tr: &Tracer, out: &mut Outcome) {
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}.tsv", std::process::id()));
    match tr.write_tsv(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let mut out = match args.workload.as_str() {
        "fit_long" => fitload::run(fitload::FIT_LONG, args.seed, args.seconds, args.trace),
        "fit_many" => fitload::run(fitload::FIT_MANY, args.seed, args.seconds, args.trace),
        "serve_query" => serve::run_query(args.seed, args.seconds, args.trace),
        "serve_ingest" => serve::run_ingest(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (name, unit) in table {
        let value = match out.metrics.get(*name) {
            Some(v) => *v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                out.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
                0.0
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    for (name, value) in &out.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            println!("# also measured: {name} = {value:.6}");
        }
    }
    for line in &out.notes {
        println!("# {line}");
    }
    for failure in &out.check_failures {
        println!("# CHECK FAILED: {failure}");
    }
    let correct = out.check_failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct || out.failed > 0 {
        std::process::exit(1);
    }
}
