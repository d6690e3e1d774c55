//! Load-run statistics.

use wsd_telemetry::Histogram;

/// Latency distribution summary over recorded samples (µs).
///
/// Backed by the shared [`wsd_telemetry::Histogram`]: `count`, `mean_us`
/// and `max_us` are exact; the percentiles are log-bucket lower bounds
/// (≤12.5% relative error), which is plenty for the paper's figures.
#[derive(Debug, Clone, PartialEq)]
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
    /// Summarizes a sample set. Returns a zero summary for an empty set.
    pub fn of(samples: Vec<u64>) -> LatencySummary {
        let hist = Histogram::new();
        for v in samples {
            hist.record(v);
        }
        Self::from_histogram(&hist)
    }

    /// Summarizes an already-populated latency histogram.
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
    pub latency: Option<LatencySummary>,
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

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::of(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn percentiles_are_bucket_lower_bounds() {
        let s = LatencySummary::of((1..=100).collect());
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
    fn from_histogram_matches_of() {
        let hist = wsd_telemetry::Histogram::new();
        for v in 1..=100u64 {
            hist.record(v);
        }
        assert_eq!(LatencySummary::from_histogram(&hist), LatencySummary::of((1..=100).collect()));
    }

    #[test]
    fn single_sample() {
        let s = LatencySummary::of(vec![42]);
        assert_eq!((s.p50_us, s.p95_us, s.max_us), (42, 42, 42));
    }

    #[test]
    fn unsorted_input_handled() {
        let s = LatencySummary::of(vec![30, 10, 20]);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.max_us, 30);
    }

    #[test]
    fn per_minute_and_loss() {
        let t = RunTotals {
            transmitted: 300,
            not_sent: 100,
            latency: None,
        };
        assert!((t.per_minute(30.0) - 600.0).abs() < 1e-9);
        assert!((t.loss_rate() - 0.25).abs() < 1e-9);
        assert_eq!(RunTotals::default().loss_rate(), 0.0);
        assert_eq!(t.per_minute(0.0), 0.0);
    }
}
