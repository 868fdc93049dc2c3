//! The one percentile routine every reported quantile goes through, and the
//! span collector the traced run fills.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's one clock read. Times are only ever reported, never fed
/// back into what the program computes.
pub fn now() -> Instant {
    // atena-lint: allow(wall-clock) — benchmark timing, never feeds results
    Instant::now()
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one sample: count, sum, median and the tail percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub total: f64,
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it, and
    /// never below the median: samples of twenty or fewer report p50.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary::default();
    }
    // Nearest rank n - 10 leaves exactly ten samples above it: it is the
    // rank of every percentile in (100·(n-11)/n, 100·(n-10)/n].
    let tail_rank = n.saturating_sub(10).max(n.div_ceil(2));
    Summary {
        count: n,
        total: sorted.iter().sum(),
        p50: nearest_rank(&sorted, 50.0),
        tail: sorted[tail_rank - 1],
        tail_pct: 100.0 * tail_rank as f64 / n as f64,
    }
}

/// Durations in seconds, keyed by span name, plus derived scalars.
#[derive(Debug, Default)]
pub struct Spans {
    spans: BTreeMap<&'static str, Vec<f64>>,
    scalars: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Time `f` as one `name` span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = std::hint::black_box(f());
        self.record(name, start.elapsed());
        out
    }

    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.record_secs(name, d.as_secs_f64());
    }

    pub fn record_secs(&mut self, name: &'static str, secs: f64) {
        self.spans.entry(name).or_default().push(secs);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.scalars.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.scalars.entry(name).or_default() += value;
    }

    pub fn durations(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }
}
