//! Percentiles and the tail rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples that percentiles can be read from.
pub trait Samples {
    fn count(&self) -> usize;
    /// Nearest-rank percentile (`p` in `(0, 1]`); `None` when empty.
    fn percentile(&self, p: f64) -> Option<f64>;
}

impl Samples for [f64] {
    fn count(&self) -> usize {
        self.len()
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let mut v = self.to_vec();
        v.sort_by(f64::total_cmp);
        Some(v[rank(v.len(), p) - 1])
    }
}

impl Samples for Vec<f64> {
    fn count(&self) -> usize {
        self.len()
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        self.as_slice().percentile(p)
    }
}

/// Smallest value a [`Hist`] tells apart; smaller ones share its first
/// bucket.
const HIST_MIN: f64 = 1.0;
/// Ratio of a [`Hist`] bucket's upper to its lower bound.
const HIST_GROWTH: f64 = 1.001;

/// Latencies (µs) in logarithmic buckets 0.1 % wide, so a client's log
/// takes the same memory however many commands it completes (the
/// benchmark's own buffers count in `peak_rss_mb`). A percentile reads
/// as its bucket's geometric middle, within 0.05 % of the exact value.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: usize,
}

impl Hist {
    pub fn record(&mut self, v: f64) {
        let i = if v > HIST_MIN {
            ((v / HIST_MIN).ln() / HIST_GROWTH.ln()) as usize
        } else {
            0
        };
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, o: &Hist) {
        if o.counts.len() > self.counts.len() {
            self.counts.resize(o.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }
}

impl Samples for Hist {
    fn count(&self) -> usize {
        self.n
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let want = rank(self.n, p) as u64;
        let mut seen = 0;
        let i = self.counts.iter().position(|c| {
            seen += c;
            seen >= want
        })?;
        Some(HIST_MIN * HIST_GROWTH.powf(i as f64 + 0.5))
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`); `None` when empty.
pub fn percentile<S: Samples + ?Sized>(samples: &S, p: f64) -> Option<f64> {
    samples.percentile(p)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of `ladder` that `n` samples support.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

pub fn median<S: Samples + ?Sized>(samples: &S) -> Option<f64> {
    percentile(samples, 0.5)
}

/// First and third quartile (nearest rank).
pub fn quartiles<S: Samples + ?Sized>(samples: &S) -> Option<(f64, f64)> {
    Some((percentile(samples, 0.25)?, percentile(samples, 0.75)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[][..], 0.5), None);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), Some(90.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly 10 beyond: supported.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        // 99 samples leave only 9 beyond p90.
        assert!(!supports(99, 0.9));
        // p99 needs 1000 samples.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let ladder = [0.5, 0.9, 0.99];
        assert_eq!(highest_supported(5000, &ladder), Some(0.99));
        assert_eq!(highest_supported(500, &ladder), Some(0.9));
        assert_eq!(highest_supported(40, &ladder), Some(0.5));
        assert_eq!(highest_supported(15, &ladder), None);
    }

    #[test]
    fn quartiles_and_median() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.0, 6.0)));
        assert_eq!(median(&v), Some(4.0));
    }

    #[test]
    fn a_histogram_reads_within_its_bucket_width() {
        let v: Vec<f64> = (1..=20_000).map(|i| 0.5 + f64::from(i) * 7.3).collect();
        let mut h = Hist::default();
        let mut rev = Hist::default();
        for x in &v {
            h.record(*x);
        }
        for x in v.iter().rev() {
            rev.record(*x);
        }
        assert_eq!(h.count(), v.len());
        for p in [0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile(&v, p).unwrap();
            let got = percentile(&h, p).unwrap();
            assert!((got / exact - 1.0).abs() < 0.0006, "p{p}: {got} vs {exact}");
            assert_eq!(percentile(&rev, p), Some(got), "order does not matter");
        }
        assert_eq!(percentile(&Hist::default(), 0.5), None);
        // Values below the smallest bucket still count.
        let mut low = Hist::default();
        low.record(0.2);
        assert_eq!(low.count(), 1);
    }

    #[test]
    fn merged_histograms_equal_one_of_all_samples() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..1000 {
            let x = 10.0 + f64::from(i);
            if i % 3 == 0 {
                a.record(x);
            } else {
                b.record(x * 100.0);
            }
            all.record(if i % 3 == 0 { x } else { x * 100.0 });
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for p in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&a, p), percentile(&all, p));
        }
    }
}
