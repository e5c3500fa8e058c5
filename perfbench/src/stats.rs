//! Sample summaries and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of a fixed ladder of percentiles that leaves at least
/// ten of `n` samples beyond it (the median below 20 samples).
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 6] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0];
    LADDER.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0)
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Operations attempted and failed; a failed answer check counts as a
/// failed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another thread's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Records the outcome of an engine call, keeping its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.record(r.is_ok());
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
