//! The benchmark's own arithmetic: percentiles with the "at least ten
//! samples beyond" rule, span self time, the seeded open-loop arrival
//! schedule and its due-time latency.

/// Percentile levels tried for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Smallest window of [`Summary::windowed`]: enough for a p95 with
/// [`MIN_BEYOND`] samples beyond it.
pub const WINDOW_SAMPLES: usize = 200;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 · n)`, together with the number of samples ranked
/// after it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// A timing summary: the median and the highest ladder percentile that
/// still has [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile level of [`Self::tail`]; 50 when the sample is too small
    /// for any higher level.
    pub tail_level: f64,
    /// Value at [`Self::tail_level`].
    pub tail: f64,
    /// Samples ranked after the tail value.
    pub beyond: usize,
}

impl Summary {
    /// Summarises `samples` (any order). Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p50, _) = percentile(&sorted, 50.0);
        let (tail_level, (tail, beyond)) = TAIL_LADDER
            .iter()
            .map(|&p| (p, percentile(&sorted, p)))
            .find(|(_, (_, beyond))| *beyond >= MIN_BEYOND)
            .unwrap_or_else(|| (50.0, percentile(&sorted, 50.0)));
        Summary {
            n: sorted.len(),
            p50,
            tail_level,
            tail,
            beyond,
        }
    }

    /// Like [`Summary::of`], but the tail is taken in consecutive windows
    /// of at least [`WINDOW_SAMPLES`] samples (given in completion order),
    /// at the highest level every window supports (p95 at that size), and
    /// the median over windows is reported. A stall confined to one window
    /// does not move it. `beyond` is then per window.
    pub fn windowed(samples: &[f64]) -> Summary {
        let pooled = Summary::of(samples);
        let w = (samples.len() / WINDOW_SAMPLES).max(1);
        let size = samples.len() / w;
        let mut first: Vec<f64> = samples[..size].to_vec();
        first.sort_by(f64::total_cmp);
        let (tail_level, beyond) = TAIL_LADDER
            .iter()
            .map(|&p| (p, percentile(&first, p).1))
            .find(|(_, beyond)| *beyond >= MIN_BEYOND)
            .unwrap_or_else(|| (50.0, percentile(&first, 50.0).1));
        let tails: Vec<f64> = samples
            .chunks(size)
            .take(w)
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, tail_level).0
            })
            .collect();
        Summary {
            n: pooled.n,
            p50: pooled.p50,
            tail_level,
            tail: median(&tails),
            beyond,
        }
    }

    /// `"p50 … / p99 … (n=…, … beyond)"`, for the human-readable report.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit} / p{} {:.4} {unit} (n={}, {} beyond)",
            self.p50 * scale,
            self.tail_level,
            self.tail * scale,
            self.n,
            self.beyond
        )
    }
}

/// Median of an unsorted sample (nearest rank); 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    Summary::of(samples).p50
}

/// A closed time interval on the benchmark's clock, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start.
    pub start: f64,
    /// End (`>= start`).
    pub end: f64,
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers. Children may overlap each other
/// (parallel workers) and may stick out of the parent; only the covered
/// part inside the parent counts.
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (span.end - span.start) - covered
}

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (arrival gaps, request mix), independent of the library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second, up to `horizon` seconds. The same seed gives the
/// same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix::new(seed);
    let mut due = Vec::with_capacity((rate * horizon * 1.2) as usize + 16);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(t);
    }
}

/// One open-loop request on the generator's clock (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually started sending it.
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency as the user sees it: from the due time, so a stall that
    /// delays later sends is charged to them.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_beyond_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(percentile(&[7.0], 99.9), (7.0, 0));
    }

    #[test]
    fn tail_is_highest_level_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_level, s.tail, s.beyond), (90.0, 90.0, 10));
        assert_eq!(s.n, 100);

        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_level, s.tail, s.beyond), (99.0, 990.0, 10));
        assert_eq!(s.p50, 500.0);

        // 40 samples: p75 has exactly 10 beyond, p90 only 4.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_level, s.beyond), (75.0, 10));

        // Too few for any level above the median: fall back to it.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_level, s.tail, s.beyond), (50.0, 6.0, 6));
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // 5 windows of 200; window 3 holds a stall of 60 slow samples.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 200)).collect();
        for x in &mut v[400..460] {
            *x = 1000.0;
        }
        let pooled = Summary::of(&v);
        assert_eq!(pooled.tail, 1000.0);
        let w = Summary::windowed(&v);
        // 200 per window: p95 is the highest level with 10 beyond.
        assert_eq!((w.tail_level, w.beyond), (95.0, 10));
        assert_eq!(w.tail, 189.0);
        assert_eq!(w.p50, pooled.p50);
        assert_eq!(w.n, 1000);
        // A sample smaller than one window is a single window.
        assert_eq!(Summary::windowed(&v[..150]), Summary::of(&v[..150]));
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let parent = Interval {
            start: 0.0,
            end: 10.0,
        };
        assert_eq!(self_time(parent, &[]), 10.0);
        let kids = [
            Interval {
                start: 1.0,
                end: 3.0,
            },
            Interval {
                start: 2.0,
                end: 4.0,
            }, // overlaps the first
            Interval {
                start: 6.0,
                end: 7.0,
            },
            Interval {
                start: 9.0,
                end: 12.0,
            }, // sticks out of the parent
            Interval {
                start: 11.0,
                end: 13.0,
            }, // wholly outside
        ];
        assert!((self_time(parent, &kids) - (10.0 - 3.0 - 1.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn open_loop_latency_counts_generator_stall() {
        let on_time = OpenLoopSample {
            due: 1.0,
            sent: 1.0,
            done: 1.002,
        };
        assert!((on_time.latency() - 0.002).abs() < 1e-12);
        assert_eq!(on_time.lag(), 0.0);
        // Sent 30 ms late behind a stall: the wait is part of its latency.
        let late = OpenLoopSample {
            due: 2.0,
            sent: 2.03,
            done: 2.032,
        };
        assert!((late.latency() - 0.032).abs() < 1e-12);
        assert!((late.lag() - 0.03).abs() < 1e-12);
        // A send a hair early (timer jitter) is no negative lag.
        let early = OpenLoopSample {
            due: 3.0,
            sent: 2.9999,
            done: 3.001,
        };
        assert_eq!(early.lag(), 0.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_has_the_rate() {
        let a = poisson_schedule(7, 800.0, 10.0);
        let b = poisson_schedule(7, 800.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 800.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 10.0);
        // 8000 expected arrivals; a Poisson count is within ±5σ (≈450).
        assert!((a.len() as f64 - 8000.0).abs() < 450.0, "{}", a.len());
    }
}
