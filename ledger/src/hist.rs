//! Log-bucketed latency histogram: 64 sub-buckets per power of two, so a
//! bucket spans at most 1/64 of its lower edge (≤ 1.6 % error).

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (~18 min) keep their bucket; larger ones saturate.
const OCTAVES: usize = 40 - SUB_BITS as usize + 1;

/// Histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    (octave * SUB + sub).min(OCTAVES * SUB - 1)
}

/// Lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let (octave, sub) = (b / SUB, b % SUB);
    if octave == 0 {
        return (sub as u64, 1);
    }
    let shift = octave as u32 - 1;
    (((SUB + sub) as u64) << shift, 1 << shift)
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; OCTAVES * SUB],
            total: 0,
        }
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Quantile `q` in `[0, 1]`, interpolated by rank inside the bucket it
    /// falls in (so the value moves with the data, not in bucket steps);
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (before + c) as f64 {
                let (lo, width) = bucket_range(b);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return lo as f64 + width as f64 * within;
            }
            before += c;
        }
        let (lo, width) = bucket_range(self.counts.len() - 1);
        (lo + width) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_with_bounded_error() {
        let mut prev_end = 0;
        for b in 0..OCTAVES * SUB {
            let (lo, w) = bucket_range(b);
            assert_eq!(lo, prev_end, "bucket {b} starts where the last ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + w - 1), b);
            assert!(w as f64 <= (lo.max(1)) as f64 * 0.03 || w == 1);
            prev_end = lo + w;
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_three_percent() {
        let mut h = Histogram::new();
        let vals: Vec<u64> = (1..=100_000u64).map(|i| i * 37 % 90_001 + 50).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let exact = sorted[(q * (sorted.len() - 1) as f64) as usize] as f64;
            let got = h.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.03, "q{q}: {got} vs {exact}");
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) > 9_000.0);
    }
}
