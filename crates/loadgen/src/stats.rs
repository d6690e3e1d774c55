//! Load-run statistics.

use wsd_telemetry::Histogram;

/// Latency distribution summary over recorded samples (µs).
///
/// Backed by the shared [`wsd_telemetry::Histogram`]: `count`, `mean_us`
/// and `max_us` are exact; the percentiles are log-bucket lower bounds
/// (≤12.5% relative error), which is plenty for the paper's figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a latency histogram.
    pub fn from_histogram(hist: &Histogram) -> LatencySummary {
        LatencySummary {
            count: hist.count() as usize,
            mean_us: hist.mean(),
            p50_us: hist.percentile(50.0),
            p95_us: hist.percentile(95.0),
            max_us: hist.max(),
        }
    }
}

/// Totals across a fleet of clients for one run window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Messages successfully completed (the paper's "packets
    /// transmitted").
    pub transmitted: u64,
    /// Attempts that failed (the paper's "packets not sent").
    pub not_sent: u64,
    /// Latency summary over completed messages.
    pub latency: LatencySummary,
}

impl RunTotals {
    /// Transmitted messages per minute of run time.
    pub fn per_minute(&self, run_secs: f64) -> f64 {
        if run_secs <= 0.0 {
            0.0
        } else {
            self.transmitted as f64 * 60.0 / run_secs
        }
    }

    /// Fraction of attempts that failed.
    #[cfg(test)]
    fn loss_rate(&self) -> f64 {
        let attempts = self.transmitted + self.not_sent;
        if attempts == 0 {
            0.0
        } else {
            self.not_sent as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: impl IntoIterator<Item = u64>) -> LatencySummary {
        let hist = Histogram::new();
        for v in samples {
            hist.record(v);
        }
        LatencySummary::from_histogram(&hist)
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(summary([]), LatencySummary::default());
    }

    #[test]
    fn percentiles_are_bucket_lower_bounds() {
        let s = summary(1..=100);
        assert_eq!(s.count, 100);
        // The 50th/95th order statistics are 50 and 95; the histogram
        // reports their log-bucket lower bounds.
        assert_eq!(s.p50_us, 48);
        assert_eq!(s.p95_us, 88);
        // Count, max and mean stay exact.
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let s = summary([42]);
        assert_eq!((s.p50_us, s.p95_us, s.max_us), (42, 42, 42));
    }

    #[test]
    fn unsorted_input_handled() {
        let s = summary([30, 10, 20]);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.max_us, 30);
    }

    #[test]
    fn per_minute_and_loss() {
        let t = RunTotals {
            transmitted: 300,
            not_sent: 100,
            ..RunTotals::default()
        };
        assert!((t.per_minute(30.0) - 600.0).abs() < 1e-9);
        assert!((t.loss_rate() - 0.25).abs() < 1e-9);
        assert_eq!(RunTotals::default().loss_rate(), 0.0);
        assert_eq!(t.per_minute(0.0), 0.0);
    }
}
