//! Point-in-time captures of a registry, with a JSON exporter.
//!
//! Snapshots are plain data: sorted `(name, value)` entries. Histograms
//! export their nonzero buckets, so two snapshots can be merged exactly
//! (counts add; quantiles are recomputed from the merged buckets). That
//! matters because the experiment harness runs sweep points on worker
//! threads with per-run registries and folds them together afterwards in
//! deterministic order.
//!
//! JSON is hand-rolled: the workspace is dependency-free offline, and
//! the schema is small enough that an escaper plus `push_str` is clearer
//! than a serializer framework.

use crate::hist::{order_statistic, Histogram};

/// Exported quantile summary plus raw buckets for one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Median estimate (bucket lower bound).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Nonzero `(bucket_lo, count)` pairs, ascending — the mergeable
    /// raw form.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: Vec<(u64, u64)>) -> Self {
        let pctl = |pct: f64| order_statistic(&buckets, count, max, pct);
        HistogramSummary {
            count,
            sum,
            min,
            max,
            p50: pctl(50.0),
            p95: pctl(95.0),
            p99: pctl(99.0),
            buckets,
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact merge of two summaries: bucket counts add, extrema combine,
    /// quantiles recompute over the union.
    pub fn merge(&self, other: &HistogramSummary) -> HistogramSummary {
        let mut buckets = self.buckets.clone();
        for &(lo, c) in &other.buckets {
            match buckets.binary_search_by_key(&lo, |&(l, _)| l) {
                Ok(i) => buckets[i].1 += c,
                Err(i) => buckets.insert(i, (lo, c)),
            }
        }
        let count = self.count + other.count;
        let min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        HistogramSummary::from_parts(
            count,
            self.sum + other.sum,
            min,
            self.max.max(other.max),
            buckets,
        )
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Level + high-water mark.
    Gauge {
        /// Current level.
        value: i64,
        /// Highest level observed.
        peak: i64,
    },
    /// Distribution summary.
    Histogram(HistogramSummary),
}

impl MetricValue {
    /// Summarizes a live histogram into its exported form.
    pub fn from_histogram(h: &Histogram) -> MetricValue {
        MetricValue::Histogram(HistogramSummary::from_parts(
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.nonzero_buckets(),
        ))
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Full dot-joined instrument name.
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of every instrument in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    at_us: u64,
    entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// An empty snapshot stamped at `at_us`.
    pub fn new(at_us: u64) -> Self {
        Snapshot {
            at_us,
            entries: Vec::new(),
        }
    }

    /// The capture timestamp in microseconds.
    // wsd-lint: allow(pub-without-caller): telemetry's and netsim's tests hold a registry's snapshots to its (virtual) clock with it
    pub fn at_us(&self) -> u64 {
        self.at_us
    }

    /// Appends an entry, keeping name order.
    pub fn push(&mut self, name: String, value: MetricValue) {
        let ix = self
            .entries
            .binary_search_by(|e| e.name.as_str().cmp(&name))
            .unwrap_or_else(|i| i);
        self.entries.insert(ix, SnapshotEntry { name, value });
    }

    /// The captured entries, sorted by name.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Looks up one entry by full name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Convenience: the value of counter `name`, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: the peak of gauge `name`, 0 if absent.
    pub fn gauge_peak(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge { peak, .. }) => *peak,
            _ => 0,
        }
    }

    /// Sum of all counters whose full name ends with `.{suffix}` (or
    /// equals it) — e.g. total drops across every destination scope.
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v)
                    if e.name == suffix || e.name.ends_with(&format!(".{suffix}")) =>
                {
                    Some(*v)
                }
                _ => None,
            })
            .sum()
    }

    /// Max peak over all gauges whose full name ends with `.{suffix}`.
    pub fn gauge_peak_max(&self, suffix: &str) -> i64 {
        self.entries
            .iter()
            .filter_map(|e| match &e.value {
                MetricValue::Gauge { peak, .. }
                    if e.name == suffix || e.name.ends_with(&format!(".{suffix}")) =>
                {
                    Some(*peak)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Merges another snapshot into this one: counters add, gauges max
    /// (both level and peak), histograms merge bucket-exactly. Timestamps
    /// keep the later capture. Merge order does not affect the result's
    /// entry set or counter/histogram totals.
    pub fn merge(&mut self, other: &Snapshot) {
        self.at_us = self.at_us.max(other.at_us);
        for e in &other.entries {
            match self
                .entries
                .binary_search_by(|mine| mine.name.as_str().cmp(&e.name))
            {
                Err(ix) => self.entries.insert(ix, e.clone()),
                Ok(ix) => {
                    let mine = &mut self.entries[ix].value;
                    *mine = match (&*mine, &e.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            MetricValue::Counter(a + b)
                        }
                        (
                            MetricValue::Gauge { value: av, peak: ap },
                            MetricValue::Gauge { value: bv, peak: bp },
                        // Merged snapshots come from independent runs,
                        // so levels max like peaks (summing would let
                        // the merged value exceed the merged peak).
                        ) => MetricValue::Gauge {
                            value: *av.max(bv),
                            peak: *ap.max(bp),
                        },
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            MetricValue::Histogram(a.merge(b))
                        }
                        // Kind mismatch under one name: keep ours.
                        (mine, _) => mine.clone(),
                    };
                }
            }
        }
    }

    /// Renders the snapshot as a JSON object with a stable schema:
    /// `{"at_us": N, "metrics": {"name": <value>, ...}}` where counter
    /// values are numbers, gauges are `{"value","peak"}`, histograms are
    /// `{"count","sum","min","max","p50","p95","p99","buckets":[[lo,n]..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.entries.len() * 64);
        out.push_str("{\"at_us\":");
        out.push_str(&self.at_us.to_string());
        out.push_str(",\"metrics\":{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, &e.name);
            out.push(':');
            match &e.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge { value, peak } => {
                    out.push_str(&format!("{{\"value\":{value},\"peak\":{peak}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
                    ));
                    for (j, (lo, c)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{lo},{c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` to `out` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(samples: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn snapshot_entries_stay_sorted_and_findable() {
        let mut s = Snapshot::new(10);
        s.push("zeta".into(), MetricValue::Counter(1));
        s.push("alpha".into(), MetricValue::Counter(2));
        s.push("mid".into(), MetricValue::Gauge { value: 3, peak: 9 });
        let names: Vec<_> = s.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(s.counter("alpha"), 2);
        assert_eq!(s.gauge_peak("mid"), 9);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn suffix_aggregation() {
        let mut s = Snapshot::new(0);
        s.push("d.a.drops".into(), MetricValue::Counter(3));
        s.push("d.b.drops".into(), MetricValue::Counter(4));
        s.push("d.dropship".into(), MetricValue::Counter(100)); // not a .drops
        s.push("d.a.depth".into(), MetricValue::Gauge { value: 0, peak: 7 });
        s.push("d.b.depth".into(), MetricValue::Gauge { value: 2, peak: 5 });
        assert_eq!(s.counter_sum("drops"), 7);
        assert_eq!(s.gauge_peak_max("depth"), 7);
    }

    #[test]
    fn merge_is_exact_for_histograms() {
        let a_samples: Vec<u64> = (0..500).map(|i| i * 13 + 1).collect();
        let b_samples: Vec<u64> = (0..300).map(|i| i * 97 + 5).collect();
        let merged = match (
            MetricValue::from_histogram(&hist_of(&a_samples)),
            MetricValue::from_histogram(&hist_of(&b_samples)),
        ) {
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(&b),
            _ => unreachable!(),
        };
        let mut both = a_samples.clone();
        both.extend(&b_samples);
        let direct = match MetricValue::from_histogram(&hist_of(&both)) {
            MetricValue::Histogram(h) => h,
            _ => unreachable!(),
        };
        assert_eq!(merged, direct);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_peaks() {
        let mut a = Snapshot::new(5);
        a.push("c".into(), MetricValue::Counter(2));
        a.push("g".into(), MetricValue::Gauge { value: 1, peak: 4 });
        let mut b = Snapshot::new(9);
        b.push("c".into(), MetricValue::Counter(3));
        b.push("g".into(), MetricValue::Gauge { value: 2, peak: 3 });
        b.push("only_b".into(), MetricValue::Counter(7));
        a.merge(&b);
        assert_eq!(a.at_us(), 9);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.get("g"), Some(&MetricValue::Gauge { value: 2, peak: 4 }));
    }

    #[test]
    fn json_has_stable_shape() {
        let mut s = Snapshot::new(42);
        s.push("a\"b".into(), MetricValue::Counter(1));
        s.push("g".into(), MetricValue::Gauge { value: -2, peak: 6 });
        s.push(
            "h".into(),
            MetricValue::from_histogram(&hist_of(&[1, 2, 100])),
        );
        let json = s.to_json();
        assert!(json.starts_with("{\"at_us\":42,\"metrics\":{"));
        assert!(json.contains("\"a\\\"b\":1"));
        assert!(json.contains("\"g\":{\"value\":-2,\"peak\":6}"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"buckets\":[[1,1],[2,1],"));
        assert!(json.ends_with("}}"));
    }
}
