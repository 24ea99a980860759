//! Order statistics and failure accounting shared by every workload.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// The tail never reaches past this percentile: on long series the
/// ten-sample rule alone would chase single scheduler stalls.
pub const TAIL_MAX_PCT: f64 = 99.0;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Interquartile range over the median, as `statistics.quantiles(n=4)`
/// computes the quartiles (the "exclusive" method). Zero for fewer than
/// two samples.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let s = sorted(xs);
    let q = |p: f64| {
        let m = s.len() as f64 + 1.0;
        let pos = (p * m).clamp(1.0, s.len() as f64) - 1.0;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(s.len() - 1);
        s[lo] + frac * (s[hi] - s[lo])
    };
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    (q(0.75) - q(0.25)) / med
}

/// The highest nearest-rank percentile, up to [`TAIL_MAX_PCT`], that
/// leaves at least [`TAIL_BEYOND`] samples beyond it in rank order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in percent.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub count: usize,
}

/// The tail of `xs`: the sample of nearest rank
/// `min(n − 10, ⌈0.99·n⌉)`, i.e. percentile `100·(n − 10)/n` on series of
/// up to 1000 samples and p99 beyond. `None` when there are too few
/// samples to leave ten beyond any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let cap = (TAIL_MAX_PCT / 100.0 * n as f64).ceil() as usize;
    let rank = (n - TAIL_BEYOND).min(cap); // 1-based nearest rank
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        beyond: n - rank,
        count: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and operations whose correctness check failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is the verdict of its check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.count, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_moves_outward_with_more_samples_up_to_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        let long: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&long).expect("5000 samples");
        assert_eq!((t.value, t.pct, t.beyond), (4950.0, 99.0, 50));
        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&few).expect("11 samples");
        assert_eq!(t.value, 1.0);
        assert_eq!(few.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
    }
}
