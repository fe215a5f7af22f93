//! Seeded input generation, owned by the benchmark so that no change to
//! the repository can change what the workloads are fed.
//!
//! Inputs are *stratified*: a sample of `n` values from a distribution
//! is its `n` mid-quantiles in a generated order, not `n` independent
//! draws, so a heavy tail is represented by its quantiles and not by
//! luck.
//!
//! What `--seed` may change is limited by what the measured layers
//! tolerate. Where the cost of a pass does not depend on the values
//! (matrix entries, span lengths, mesh payloads) the seed draws them.
//! Where it does — a scheduler stream or a flow mix — the scenario is
//! drawn once from [`SCENARIO_SEED`] and the seed only rescales it
//! (the time unit of a stream, the byte unit of a flow mix, within
//! ±2 %): a re-drawn 3,000-job stream moved the scheduler pass by 18 %
//! (one standard deviation over 12 seeds; 28 % under overload) and a
//! 0.1 % jitter of its runtimes still by 5 to 9 %, because placement is
//! chaotic in its input. A bound of a tenth on `wall_s` cannot be read
//! against that, so every seed runs the same scenario in other units.

/// The seed every fixed scenario is drawn from.
pub const SCENARIO_SEED: u64 = 1992;

/// The seeded rescaling of a fixed scenario: a factor within ±2 %.
pub fn unit_scale(g: &mut Gen) -> f64 {
    1.0 + 0.02 * g.signed()
}

/// SplitMix64: small, fast, and not the repository's generator.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// An independent generator for one named part of the input, so
    /// adding a draw to one part does not shift the others.
    pub fn fork(&mut self) -> Gen {
        Gen::new(self.next_u64())
    }
}

/// The `n` mid-quantiles `inv_cdf((i + ½) / n)` in a seeded order.
pub fn stratified(n: usize, g: &mut Gen, inv_cdf: impl Fn(f64) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| inv_cdf((i as f64 + 0.5) / n as f64))
        .collect();
    g.shuffle(&mut v);
    v
}

/// Inverse CDF of Pareto(`xm`, `alpha`), capped at `cap`.
pub fn pareto(xm: f64, alpha: f64, cap: f64) -> impl Fn(f64) -> f64 {
    move |u| (xm * (1.0 - u).powf(-1.0 / alpha)).min(cap)
}

/// `n` items in the fixed proportions of `weights`, in a seeded order:
/// item `k` appears `round(n · w_k / Σw)` times (the last absorbs the
/// rounding).
pub fn proportioned(n: usize, weights: &[usize], g: &mut Gen) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut v = Vec::with_capacity(n);
    for (k, w) in weights.iter().enumerate() {
        let want = if k + 1 == weights.len() {
            n - v.len()
        } else {
            (n * w + total / 2) / total
        };
        v.extend(std::iter::repeat_n(k, want.min(n - v.len())));
    }
    g.shuffle(&mut v);
    v
}

/// FNV-1a over 64-bit words: the `result_digest` of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.f64(x);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
