//! Online statistics used by the simulators and the exhibit harness.

use crate::time::Dur;

/// Welford's online mean plus sum, min and max.
#[derive(Debug, Clone)]
pub struct Summary {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    pub fn new() -> Summary {
        Summary {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn add_dur(&mut self, d: Dur) {
        self.add(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel reduction friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The empty summary, as [`Summary::new`]: min and max start at ±∞, so
/// the first sample sets both.
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

/// Fixed-width linear histogram with overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// `nbuckets` equal buckets covering `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbuckets: usize) -> Histogram {
        assert!(hi > lo && nbuckets > 0);
        Histogram {
            lo,
            width: (hi - lo) / nbuckets as f64,
            buckets: vec![0; nbuckets],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Lower edge of bucket 0.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow + self.underflow
    }

    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate quantile by linear scan (`q` in `[0, 1]`).
    /// `None` when the histogram holds no samples — an empty histogram has
    /// no quantiles, and the old `lo` fallback silently read as "0.0".
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target {
            return Some(self.lo);
        }
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return Some(self.lo + (i as f64 + 1.0) * self.width);
            }
        }
        Some(self.lo + self.buckets.len() as f64 * self.width)
    }

    /// Merge another histogram into this one. Both must share the same
    /// geometry (`lo`, bucket width, bucket count): bucket `i` of one
    /// covering a different range than bucket `i` of the other would
    /// misfile every sample, so a mismatch panics and names both.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo
                && self.width == other.width
                && self.buckets.len() == other.buckets.len(),
            "histogram geometries differ: [{}, w={}, n={}] vs [{}, w={}, n={}]",
            self.lo,
            self.width,
            self.buckets.len(),
            other.lo,
            other.width,
            other.buckets.len()
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.underflow += other.underflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn default_summary_tracks_min_and_max() {
        let mut s = Summary::default();
        s.add(5.0);
        s.add(7.0);
        assert_eq!((s.min(), s.max()), (5.0, 7.0));
        let mut s = Summary::default();
        s.add(-3.0);
        assert_eq!((s.min(), s.max()), (-3.0, -3.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 9.99, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.bucket(0), 2); // 0.0, 0.5
        assert_eq!(h.bucket(1), 1); // 1.0
        assert_eq!(h.bucket(9), 1); // 9.99
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.add((i % 100) as f64);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q90 && q90 <= q99);
        assert!((q50 - 50.0).abs() <= 2.0);
        assert!((q90 - 90.0).abs() <= 2.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(0.0, 100.0, 10);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        let mut whole = Histogram::new(0.0, 50.0, 25);
        let mut a = Histogram::new(0.0, 50.0, 25);
        let mut b = Histogram::new(0.0, 50.0, 25);
        for i in 0..200 {
            let x = (i as f64 * 0.37) - 5.0; // exercises underflow + overflow
            whole.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.buckets(), whole.buckets());
        assert_eq!(a.overflow, whole.overflow);
        assert_eq!(a.underflow, whole.underflow);
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
    }

    #[test]
    #[should_panic(expected = "histogram geometries differ: [0, w=2, n=25] vs [0, w=2.4, n=25]")]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 50.0, 25);
        let b = Histogram::new(0.0, 60.0, 25);
        a.merge(&b);
    }

    #[test]
    fn merged_empty_histograms_still_have_no_quantiles() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        let b = Histogram::new(0.0, 100.0, 10);
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), None);
        assert_eq!(a.quantile(1.0), None);
    }
}
