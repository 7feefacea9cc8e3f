//! Metric records and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use crate::corpus::{Counted, Flow};
use crate::stats::Windows;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of named metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(&m.name, m.value, m.unit);
        }
    }
}

/// Rate and latency figures of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// The run's rate (see [`Windows`]), payload bits per second.
    pub payload_bps: f64,
    /// Slowest, 10th-percentile, 90th-percentile and fastest window
    /// rates.
    pub window_rates: [f64; 4],
    pub windows: usize,
    /// The run's p50 and p99 (see [`Windows`]), in ns.
    pub latency_p50_ns: f64,
    pub latency_p99_ns: f64,
    /// 10th and 90th percentile over windows of each window's p99.
    pub window_p99: [f64; 2],
    pub latency_samples: u64,
    pub latency_windows: usize,
}

impl Timing {
    /// `rate` counts payload bits; `lat` holds the latency samples
    /// (the same windows for a closed loop).
    pub fn new(rate: &Windows, lat: &Windows) -> Self {
        let (p50, p99) = lat.latency_p50_p99();
        Timing {
            payload_bps: rate.rate(),
            window_rates: [0.0, 0.1, 0.9, 1.0].map(|q| rate.rate_quantile(q)),
            windows: rate.closed(),
            latency_p50_ns: p50,
            latency_p99_ns: p99,
            window_p99: [lat.window_p99(0.1), lat.window_p99(0.9)],
            latency_samples: lat.latency_samples(),
            latency_windows: lat.latency_windows(),
        }
    }
}

/// What one run of an end-to-end path measured.
pub struct PathResult {
    /// Every frame of the run, warm-up included.
    pub flow: Flow,
    /// The system's own counts over the same frames.
    pub counted: Counted,
    pub timing: Timing,
    /// Pool misses over the measured window, and the frames it
    /// delivered.
    pub pool_misses: u64,
    pub measured_frames: u64,
    pub measured: Duration,
    /// Busy threads the path keeps running (for the ledger).
    pub threads: f64,
    /// Per-layer figures the path itself observed (spans, counters).
    pub layers: Metrics,
}

/// JSON number: finite values as measured, others as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        m.put("a", 2.0, "ms");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": null, \"unit\": \"s\"}, \"a\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }
}
