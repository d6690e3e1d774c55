//! Order statistics used by every workload: percentiles, the chooser
//! for the highest percentile a sample supports, and the per-slice
//! record with the quiet-slice estimator.

/// Nearest rank (1-based) of the `pct` percentile among `n` ascending
/// samples, 0 when there are none. `pct` is taken to a hundredth of a
/// percent and the rank computed in whole numbers, so 99.9 % of 10 000
/// is sample 9 990, not 9 991 by a rounding error.
fn rank(n: usize, pct: f64) -> usize {
    let hundredths = (pct.clamp(0.0, 100.0) * 100.0).round() as usize;
    (n * hundredths)
        .div_ceil(10_000)
        .clamp(usize::from(n > 0), n)
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    match rank(sorted.len(), pct) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// Median of an unordered sample (mean of the two middle values when the
/// count is even). Returns 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Percentiles the tail chooser may report, ascending.
pub const TAIL_LADDER: &[f64] = &[75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`, or `None` when even the lowest rung
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|pct| samples_beyond(n, *pct) >= MIN_BEYOND)
}

/// How many of `n` ascending samples rank beyond the nearest-rank `pct`
/// percentile.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// One slice of a timed window: everything measured in it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Operations (messages) completed in the slice.
    pub msgs: u64,
    /// Wall seconds the slice lasted.
    pub wall_s: f64,
    /// Process CPU microseconds spent in the slice.
    pub cpu_us: f64,
    /// Latency of each message completed in the slice, microseconds.
    pub latency_us: Vec<f64>,
    /// Messages deposited (accepted and, where visible, stored) and the
    /// seconds the client spent on that phase.
    pub deposited: (u64, f64),
    /// Messages picked up and the seconds the client spent on that phase.
    pub picked: (u64, f64),
}

impl Slice {
    /// Messages per wall second.
    pub fn rate(&self) -> f64 {
        self.msgs as f64 / self.wall_s
    }

    /// Process CPU microseconds per message.
    pub fn cpu_per_msg(&self) -> f64 {
        self.cpu_us / self.msgs as f64
    }

    /// Nearest-rank percentile of the slice's latencies.
    pub fn latency_percentile(&self, pct: f64) -> f64 {
        percentile(&sorted(self.latency_us.clone()), pct)
    }

    /// Messages per second of deposit-phase time; `None` when the
    /// workload has no such phase.
    pub fn deposit_rate(&self) -> Option<f64> {
        (self.deposited.1 > 0.0).then(|| self.deposited.0 as f64 / self.deposited.1)
    }

    /// Messages per second of pick-up-phase time; `None` when the
    /// workload has no such phase.
    pub fn pickup_rate(&self) -> Option<f64> {
        (self.picked.1 > 0.0).then(|| self.picked.0 as f64 / self.picked.1)
    }

    /// Folds another client's record of the same slice into this one.
    pub fn absorb(&mut self, other: Slice) {
        self.msgs += other.msgs;
        self.latency_us.extend(other.latency_us);
        self.deposited = (
            self.deposited.0 + other.deposited.0,
            self.deposited.1 + other.deposited.1,
        );
        self.picked = (
            self.picked.0 + other.picked.0,
            self.picked.1 + other.picked.1,
        );
    }
}

/// Which end of the slices a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quietest {
    /// Higher is better: count down from the largest value.
    Highest,
    /// Lower is better: count up from the smallest value.
    Lowest,
}

/// Which of the best slices is reported: the third best.
pub const QUIET_RANK: usize = 3;

/// The value of `f` in a quiet slice: the [`QUIET_RANK`]-th best (the
/// worst there is when fewer slices have a value). The host this runs on
/// slows down by a fifth for seconds at a time (a busy neighbour on the
/// same core), which a median over slices follows from run to run;
/// interference only ever makes a slice worse, so the best slices are
/// closest to what the code costs and steadiest between runs. Not the
/// very best, so that two freak slices cannot set the result. Slices
/// that completed nothing are skipped (the failure count carries that
/// signal); 0.0 when none is left.
pub fn quietest(slices: &[Slice], end: Quietest, f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let mut values: Vec<f64> = slices.iter().filter(|s| s.msgs > 0).filter_map(f).collect();
    values.sort_by(f64::total_cmp);
    if end == Quietest::Highest {
        values.reverse();
    }
    values
        .get(QUIET_RANK - 1)
        .or(values.last())
        .copied()
        .unwrap_or(0.0)
}
