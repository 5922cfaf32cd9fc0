//! What one workload run reports: operation counts, output checks, metric
//! values and human-readable notes.

use std::collections::BTreeMap;

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fits, requests, ingests, replays).
    pub attempted: u64,
    /// Operations that failed: non-200, shed, or a failed output check.
    pub failed: u64,
    /// Output checks that failed (each also counted in `failed`).
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check; a failure fails one operation and is
    /// reported by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(what());
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
