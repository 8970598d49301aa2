//! Order statistics: medians of a few samples, and a fixed-size histogram
//! for the millions of per-call durations a traced run records.

/// Percentiles the tail is chosen from, in basis points, highest first.
const TAIL_GRID_BP: [u64; 8] = [9999, 9990, 9900, 9500, 9000, 8000, 7500, 5000];

/// Values below this are counted exactly; above it, with 7 significant
/// bits (under 1.6% error).
const EXACT: u64 = 128;
/// Sub-buckets per power of two above [`EXACT`].
const SUB: u64 = 64;
const BUCKETS: usize = (EXACT + (64 - 7) * SUB) as usize;

/// The median and the highest percentile of [`TAIL_GRID_BP`] that still
/// has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub n: u64,
    /// Median (nearest rank); 0 with no samples.
    pub p50: u64,
    /// Tail percentile (e.g. 99.0) and its value; `None` below 20 samples.
    pub tail: Option<(f64, u64)>,
}

/// A log-linear histogram of non-negative integers (ns).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros()); // >= 7
    let mantissa = v >> (exp - 6); // in [64, 128)
    (EXACT + (exp - 7) * SUB + (mantissa - SUB)) as usize
}

/// Smallest value that falls in bucket `b`.
fn bucket_floor(b: usize) -> u64 {
    let b = b as u64;
    if b < EXACT {
        return b;
    }
    let exp = (b - EXACT) / SUB + 7;
    let mantissa = (b - EXACT) % SUB + SUB;
    mantissa << (exp - 6)
}

/// 1-based nearest rank of percentile `bp` (basis points) among `n`.
fn rank(n: u64, bp: u64) -> u64 {
    (n * bp).div_ceil(10_000)
}

impl Histogram {
    /// Counts one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of values counted.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Value at 1-based rank `r` (bucket floor).
    fn at_rank(&self, r: u64) -> u64 {
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return bucket_floor(b);
            }
        }
        0
    }

    /// The median and the deepest tail percentile the count supports.
    pub fn percentiles(&self) -> Percentiles {
        let n = self.n;
        let tail = TAIL_GRID_BP
            .iter()
            .find(|&&bp| n - rank(n, bp) >= 10)
            .map(|&bp| (bp as f64 / 100.0, self.at_rank(rank(n, bp))));
        Percentiles {
            n,
            p50: if n == 0 {
                0
            } else {
                self.at_rank(rank(n, 5000))
            },
            tail,
        }
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Histogram {
        let mut h = Histogram::default();
        for v in (1..=n).rev() {
            h.record(v);
        }
        h
    }

    #[test]
    fn thousand_samples_give_p99() {
        let p = ramp(1000).percentiles();
        assert_eq!(p.n, 1000);
        assert_eq!(p.tail.map(|t| t.0), Some(99.0));
        // Values are bucketed with 7 significant bits: 990 reads as 984.
        assert_eq!(p.p50, 500);
        assert_eq!(p.tail.map(|t| t.1), Some(984));
    }

    #[test]
    fn fifty_samples_give_p80() {
        let p = ramp(50).percentiles();
        assert_eq!((p.p50, p.tail), (25, Some((80.0, 40))));
    }

    #[test]
    fn large_counts_reach_deeper_tails() {
        assert_eq!(ramp(10_000).percentiles().tail.map(|t| t.0), Some(99.9));
        assert_eq!(ramp(100_000).percentiles().tail.map(|t| t.0), Some(99.99));
    }

    #[test]
    fn small_counts_have_no_tail() {
        assert_eq!(ramp(20).percentiles().tail, Some((50.0, 10)));
        let p = ramp(19).percentiles();
        assert_eq!((p.p50, p.tail), (10, None));
        assert_eq!(Histogram::default().percentiles(), Percentiles::default());
    }

    #[test]
    fn buckets_keep_seven_significant_bits() {
        for v in [0, 1, 127, 128, 129, 1000, 65_535, 1 << 40, u64::MAX] {
            let floor = bucket_floor(bucket(v));
            assert!(floor <= v && v - floor <= v / 64, "{v} -> {floor}");
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ramp(30);
        a.merge(&ramp(20));
        assert_eq!(a.count(), 50);
        assert_eq!(a.percentiles().p50, 13);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
