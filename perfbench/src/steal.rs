//! Hypervisor steal. On a shared virtual machine the host at times takes
//! the virtual cores away for tens of seconds; a fit then ran 1.5–1.8x
//! slower for a minute while nothing in the program changed. Timings
//! taken through such a stretch measure the host, so the fit loops drop
//! an operation whose interval lost more than [`LIMIT`] of its CPU time
//! to steal, and every workload waits, within a bounded budget, for the
//! host to calm down before it measures.

use std::time::{Duration, Instant};

/// Largest share of CPU time stolen during a kept measurement.
pub const LIMIT: f64 = 0.15;
/// Kernel clock ticks per second of `/proc/stat` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;
/// Probe length of [`wait_for_calm`].
const PROBE: Duration = Duration::from_millis(100);

/// Cumulative steal ticks over all CPUs, or `None` where `/proc/stat` is
/// unavailable (then nothing is ever treated as stolen).
fn ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |p| p.get()) as f64
}

/// A point on the steal counter.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    ticks: Option<u64>,
}

impl Mark {
    /// Reads the counter now.
    pub fn now() -> Self {
        Mark {
            at: Instant::now(),
            ticks: ticks(),
        }
    }

    /// Share of the CPU time since this mark that the host stole.
    pub fn stolen_share(&self) -> f64 {
        let end = Mark::now();
        share(self, &end)
    }
}

fn share(a: &Mark, b: &Mark) -> f64 {
    let (Some(t0), Some(t1)) = (a.ticks, b.ticks) else {
        return 0.0;
    };
    let cpu_s = b.at.duration_since(a.at).as_secs_f64() * cpus();
    if cpu_s <= 0.0 {
        return 0.0;
    }
    t1.saturating_sub(t0) as f64 / TICKS_PER_S / cpu_s
}

/// Waits in short probes until one loses at most [`LIMIT`] to steal, or
/// until `budget` is spent; returns the time waited.
pub fn wait_for_calm(budget: Duration) -> Duration {
    let start = Instant::now();
    loop {
        let mark = Mark::now();
        std::thread::sleep(PROBE);
        if mark.stolen_share() <= LIMIT || start.elapsed() >= budget {
            return start.elapsed();
        }
    }
}
