//! Order statistics, the percentile rule, a fixed-memory latency
//! histogram and per-window rate collection.

use std::time::{Duration, Instant};

/// Median of `v` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentile ladder a timing is reported at, in hundredths of a
/// percent (exact integers, so the rule below has no rounding).
const LADDER: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// The highest percentile of the ladder (p50, p90, p99, p99.9,
/// p99.99) that has at least ten samples beyond its nearest rank in a
/// sample of `n`, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: u64) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| {
            let rank = (u128::from(p) * u128::from(n)).div_ceil(10_000);
            u128::from(n) - rank >= 10
        })
        .map(|&p| p as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0..100) of `v` (sorted in place);
/// `NaN` when empty.
pub fn percentile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    nearest_rank(v, p)
}

/// Fewest latency samples a window needs for its own p99 (ten
/// beyond it, by the percentile rule).
pub const MIN_WINDOW_SAMPLES: usize = 1000;

/// Splits a measured run into fixed wall-clock windows and keeps, per
/// window, the rate of work done and the p50/p99 of the latencies
/// recorded in it.
///
/// A shared host's interference comes and goes in spells of a few
/// seconds.  So the run's rate is the median of its window rates, and
/// its latency percentiles are the medians over windows of each
/// window's own p50 and p99.  A spell that covers fewer than half the
/// windows does not move the figure; a change that slows the code in
/// more than half of them does, an occasional stall included once it
/// lands in most windows' p99.
pub struct Windows {
    len: Duration,
    started: Instant,
    /// Start of the current latency window, which closes once it has
    /// lasted `len` *and* holds [`MIN_WINDOW_SAMPLES`] (so on a slow
    /// host it stretches rather than going without a p99).
    lat_started: Instant,
    units: f64,
    rates: Vec<f64>,
    samples: Vec<u64>,
    samples_total: u64,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

impl Windows {
    pub fn new(len: Duration) -> Self {
        let now = Instant::now();
        Windows {
            len,
            started: now,
            lat_started: now,
            units: 0.0,
            rates: Vec::new(),
            samples: Vec::new(),
            samples_total: 0,
            p50s: Vec::new(),
            p99s: Vec::new(),
        }
    }

    /// Restart the current window now (after warm-up or set-up).
    pub fn restart(&mut self) {
        self.started = Instant::now();
        self.lat_started = self.started;
        self.units = 0.0;
        self.samples_total -= self.samples.len() as u64;
        self.samples.clear();
    }

    /// Record one latency sample in the current window.
    pub fn latency(&mut self, d: Duration) {
        self.samples_total += 1;
        self.samples
            .push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Count `units` done in the current window, closing it once it has
    /// lasted its length.
    pub fn add(&mut self, units: f64, now: Instant) {
        self.units += units;
        let el = now - self.started;
        if el >= self.len {
            self.rates.push(self.units / el.as_secs_f64());
            self.started = now;
            self.units = 0.0;
        }
        if self.samples.len() >= MIN_WINDOW_SAMPLES && now - self.lat_started >= self.len {
            self.samples.sort_unstable();
            self.p50s.push(nearest_rank(&self.samples, 50.0));
            self.p99s.push(nearest_rank(&self.samples, 99.0));
            self.samples.clear();
            self.lat_started = now;
        }
    }

    pub fn closed(&self) -> usize {
        self.rates.len()
    }

    /// Window rate at quantile `q` (0..1).
    pub fn rate_quantile(&self, q: f64) -> f64 {
        quantile(&self.rates, q)
    }

    /// The run's rate: the median of its window rates.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// Latency samples recorded in closed and open windows.
    pub fn latency_samples(&self) -> u64 {
        self.samples_total
    }

    /// Windows that held enough samples for their own p99.
    pub fn latency_windows(&self) -> usize {
        self.p99s.len()
    }

    /// The run's p50 and p99, in ns: the medians over windows of each
    /// window's own p50 and p99.
    pub fn latency_p50_p99(&self) -> (f64, f64) {
        (median(&self.p50s), median(&self.p99s))
    }

    /// Quantile `q` over windows of each window's own p99, in ns.
    pub fn window_p99(&self, q: f64) -> f64 {
        quantile(&self.p99s, q)
    }
}

/// Nearest-rank quantile `q` (0..1) of `v`; `NaN` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// Nearest-rank percentile of sorted `v`.
fn nearest_rank(v: &[u64], p: f64) -> f64 {
    let i = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i] as f64
}

/// Set-up time samples taken at evenly spaced moments of a run.
///
/// The host's slow spells last seconds and a single set-up takes
/// microseconds, so set-ups timed back to back all land in whatever
/// state the host is in at that moment.  Spread over the run, they
/// sample every state the host passed through.
pub struct SetupClock {
    every: Duration,
    next: Option<Instant>,
    times: Vec<f64>,
}

impl SetupClock {
    /// `samples` set-ups spread evenly over `span`, the first now.
    pub fn new(samples: usize, span: Duration) -> Self {
        SetupClock {
            every: span / samples.max(1) as u32,
            next: Some(Instant::now()),
            times: Vec::new(),
        }
    }

    /// A clock that never asks for a sample (probe and traced runs).
    pub fn none() -> Self {
        SetupClock {
            every: Duration::ZERO,
            next: None,
            times: Vec::new(),
        }
    }

    /// Does this clock take samples at all?
    pub fn is_on(&self) -> bool {
        self.next.is_some()
    }

    /// Is a set-up sample due at `now`?
    pub fn due(&self, now: Instant) -> bool {
        self.next.is_some_and(|t| now >= t)
    }

    /// Record one set-up that took `d`.
    pub fn push(&mut self, d: Duration) {
        self.times.push(d.as_secs_f64());
        if let Some(t) = &mut self.next {
            *t += self.every;
        }
    }

    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Set-up time, seconds: the 10th percentile of the samples.  A
    /// set-up is a fixed piece of work, so a change that slows it slows
    /// every sample; the low quantile sets aside the samples that
    /// landed in one of the host's slow states.
    pub fn quiet(&self) -> f64 {
        quantile(&self.times, 0.1)
    }

    /// Median set-up time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(u64::MAX), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 500.0);
        assert_eq!(percentile(&mut v, 99.0), 990.0);
        assert_eq!(percentile(&mut v, 100.0), 1000.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }

    #[test]
    fn windows_report_median_window_rate_and_latency() {
        let t0 = Instant::now();
        let mut w = Windows::new(Duration::from_millis(10));
        w.started = t0;
        w.lat_started = t0;
        // Ten windows of 10 ms doing 10, 20, …, 100 units; window k's
        // latencies are (k + 1) µs plus 0..1000 ns.
        for k in 0..10u64 {
            for i in 0..MIN_WINDOW_SAMPLES as u64 {
                w.latency(Duration::from_nanos((k + 1) * 1000 + i));
            }
            w.add(
                (k + 1) as f64 * 10.0,
                t0 + Duration::from_millis(10 * (k + 1)),
            );
        }
        // A window too thin for its own p99 yields a rate; its samples
        // wait for the next latency window.
        w.latency(Duration::from_millis(50));
        w.add(1.0, t0 + Duration::from_millis(110));
        assert_eq!(w.closed(), 11);
        assert_eq!(w.latency_windows(), 10);
        assert_eq!(w.latency_samples(), 10 * MIN_WINDOW_SAMPLES as u64 + 1);
        // Rates 1000..10000 units/s and 100 for the thin window: the
        // median is the sixth of eleven, 5000.
        assert!((w.rate() - 5000.0).abs() < 1e-6, "{}", w.rate());
        // Window k's p50 is (k + 1) µs + 499 ns and its p99 (k + 1) µs +
        // 989 ns; the medians over ten windows lie between windows 4 and 5.
        assert_eq!(w.latency_p50_p99(), (5999.0, 6489.0));
        // A stall that raises the p99 of six windows in ten moves it.
        w.p99s[..6].iter_mut().for_each(|p| *p += 1e6);
        assert!(w.latency_p50_p99().1 > 1e6);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn setup_is_the_tenth_percentile_of_its_samples() {
        let mut clock = SetupClock::new(20, Duration::from_secs(1));
        // Samples of 20, 19, …, 1 µs: the tenth percentile is the second
        // smallest.
        for us in (1..=20).rev() {
            clock.push(Duration::from_micros(us));
        }
        assert_eq!(clock.samples(), 20);
        assert!((clock.quiet() - 2e-6).abs() < 1e-15);
        assert!((clock.median() - 10.5e-6).abs() < 1e-15);
        assert!(SetupClock::none().quiet().is_nan());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
