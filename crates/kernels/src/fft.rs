//! Radix-2 complex FFT — the transform kernel behind the earth/space
//! science workloads (spectral atmosphere models, SAR processing).
//!
//! ## Engine v2
//!
//! The seed transform ([`fft_baseline`]) is iterative Cooley–Tukey with
//! incrementally-computed twiddles: every butterfly pays a complex
//! multiply just to step the twiddle, the late passes stride across the
//! whole array, and nothing vectorises. The v2 engine keeps the same
//! butterfly network (bit-reversal + DIT passes) but:
//!
//! * **Twiddle plan** — per-stage twiddle tables (`n−1` entries total)
//!   computed once per length and cached in a thread-local plan cache,
//!   so `fft2d`'s row and column passes (and every CG/bench repeat)
//!   share one table. Direct `cis` evaluation per entry also drops the
//!   accumulated rounding of the incremental recurrence.
//! * **Cache-oblivious recursion** — on bit-reversed data the butterfly
//!   network factors as: transform the two halves, then one combine
//!   pass. Recursing depth-first keeps every sub-block resident while
//!   all of its passes run; only `log₂(n/LEAF)` combine passes touch
//!   more than L1. The arithmetic (and result) is identical to the
//!   iterative schedule — blocks are independent — just reordered.
//! * **AVX2 butterflies** — butterflies run two complex lanes per
//!   256-bit register (`re,im,re,im` layout): complex multiply via
//!   `movedup`/`permute`/`addsub` (exactly the scalar formula, no FMA,
//!   so SIMD and portable passes are bit-identical), runtime-dispatched
//!   with [`crate::simd::avx2_fma_available`]. Inverse transforms
//!   conjugate the twiddle at load time with a sign-mask XOR.
//!
//! `fft`/`ifft` dispatch automatically; `fft_portable` pins the scalar
//! pass (property tests assert it matches the SIMD path bit-for-bit);
//! `fft_baseline` is the seed implementation, kept as the bench
//! baseline and accuracy anchor.

use crate::simd;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Minimal complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    pub re: f64,
    pub im: f64,
}

impl Cpx {
    pub const ZERO: Cpx = Cpx { re: 0.0, im: 0.0 };

    pub fn new(re: f64, im: f64) -> Cpx {
        Cpx { re, im }
    }

    #[inline]
    fn conj(self) -> Cpx {
        Cpx::new(self.re, -self.im)
    }

    #[inline]
    pub fn scale(self, k: f64) -> Cpx {
        Cpx::new(self.re * k, self.im * k)
    }

    pub fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }

    /// e^{iθ}.
    fn cis(theta: f64) -> Cpx {
        Cpx::new(theta.cos(), theta.sin())
    }
}

impl std::ops::Add for Cpx {
    type Output = Cpx;
    #[inline]
    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Cpx {
    type Output = Cpx;
    #[inline]
    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Largest block (in complex elements, 16 B each) transformed entirely
/// by iterative leaf passes: 1024 × 16 B = 16 KB, half of a typical L1d,
/// leaving room for the stage twiddle tables.
const LEAF: usize = 1024;

/// Per-length twiddle plan: `stages[s]` holds the `len = 4 << s` stage's
/// forward twiddles `w_k = e^{-2πik/len}`, `k < len/2`. (The `len = 2`
/// stage needs none; inverse transforms conjugate at load time.)
struct FftPlan {
    stages: Vec<Vec<Cpx>>,
}

impl FftPlan {
    fn build(n: usize) -> FftPlan {
        let mut stages = Vec::new();
        let mut len = 4;
        while len <= n {
            let half = len / 2;
            let mut tw = Vec::with_capacity(half);
            for k in 0..half {
                tw.push(Cpx::cis(-std::f64::consts::TAU * k as f64 / len as f64));
            }
            stages.push(tw);
            len <<= 1;
        }
        FftPlan { stages }
    }

    /// Twiddle table for a stage of the given butterfly span.
    #[inline]
    fn table(&self, len: usize) -> &[Cpx] {
        &self.stages[len.trailing_zeros() as usize - 2]
    }
}

thread_local! {
    /// Thread-local plan cache keyed by transform length. `fft2d` row
    /// and column passes, repeated solves, and the bench harness all
    /// hit the same tables; a spawned `fft2d` worker builds its own copy.
    static PLANS: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

fn plan_for(n: usize) -> Rc<FftPlan> {
    PLANS.with(|cache| {
        Rc::clone(
            cache
                .borrow_mut()
                .entry(n)
                .or_insert_with(|| Rc::new(FftPlan::build(n))),
        )
    })
}

/// In-place forward FFT. Length must be a power of two.
pub fn fft(x: &mut [Cpx]) {
    fft_dir(x, false, simd::avx2_fma_available());
}

/// In-place inverse FFT (includes the 1/n scaling).
pub fn ifft(x: &mut [Cpx]) {
    fft_dir(x, true, simd::avx2_fma_available());
}

/// [`fft`] with the AVX2 butterflies disabled — the portable scalar
/// engine (bit-identical to the SIMD path; asserted by property tests).
pub fn fft_portable(x: &mut [Cpx]) {
    fft_dir(x, false, false);
}

fn fft_dir(x: &mut [Cpx], inverse: bool, use_simd: bool) {
    let n = x.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            x.swap(i, j);
        }
    }
    let plan = plan_for(n);
    recurse(x, &plan, inverse, use_simd);
    if inverse {
        let inv = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// Depth-first butterfly passes over one bit-reversed block: halves
/// first (so they finish while L1-resident), then the block's own
/// combine pass. Identical arithmetic to the iterative schedule.
fn recurse(x: &mut [Cpx], plan: &FftPlan, inverse: bool, use_simd: bool) {
    let m = x.len();
    if m <= LEAF {
        leaf_passes(x, plan, inverse, use_simd);
        return;
    }
    let (lo, hi) = x.split_at_mut(m / 2);
    recurse(lo, plan, inverse, use_simd);
    recurse(hi, plan, inverse, use_simd);
    combine(x, plan.table(m), inverse, use_simd);
}

/// All passes of an ≤ LEAF-sized block, iteratively: the twiddle-free
/// `len = 2` pass, then one combine per block per stage.
fn leaf_passes(x: &mut [Cpx], plan: &FftPlan, inverse: bool, use_simd: bool) {
    let m = x.len();
    for p in (0..m).step_by(2) {
        let (a, b) = (x[p], x[p + 1]);
        x[p] = a + b;
        x[p + 1] = a - b;
    }
    let mut len = 4;
    while len <= m {
        let tw = plan.table(len);
        for block in x.chunks_exact_mut(len) {
            combine(block, tw, inverse, use_simd);
        }
        len <<= 1;
    }
}

/// One combine pass: butterflies `(x[k], x[k+h]) ← (a + w_k·b, a − w_k·b)`
/// between the two transformed halves of `x`.
fn combine(x: &mut [Cpx], tw: &[Cpx], inverse: bool, use_simd: bool) {
    if use_simd {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: dispatch guarded by `avx2_fma_available`; `x` is a
            // whole block (len ≥ 4, so h = len/2 ≥ 2 lanes per step).
            unsafe { combine_avx2(x, tw, inverse) };
            return;
        }
    }
    let h = x.len() / 2;
    let (lo, hi) = x.split_at_mut(h);
    for k in 0..h {
        let w = if inverse { tw[k].conj() } else { tw[k] };
        let a = lo[k];
        let b = hi[k] * w;
        lo[k] = a + b;
        hi[k] = a - b;
    }
}

/// AVX2 combine: two complex lanes per register. The complex multiply
/// (`movedup`/`permute`/`addsub`) evaluates exactly the scalar formula
/// `(br·wr − bi·wi, br·wi + bi·wr)` — no FMA, no reassociation — so
/// this path is bit-identical to [`combine`]'s scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn combine_avx2(x: &mut [Cpx], tw: &[Cpx], inverse: bool) {
    use std::arch::x86_64::*;
    let h = x.len() / 2;
    // XOR mask flipping the imaginary lanes' sign conjugates the
    // twiddles for the inverse transform; all-zero for forward (XOR
    // with +0.0 preserves every bit pattern).
    let conj = if inverse {
        _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
    } else {
        _mm256_setzero_pd()
    };
    let lo = x.as_mut_ptr() as *mut f64;
    let hi = lo.add(2 * h);
    let twp = tw.as_ptr() as *const f64;
    let mut k = 0;
    while k < 2 * h {
        let w = _mm256_xor_pd(_mm256_loadu_pd(twp.add(k)), conj);
        let a = _mm256_loadu_pd(lo.add(k));
        let b = _mm256_loadu_pd(hi.add(k));
        // b·w: (br·wr − bi·wi, br·wi + bi·wr) per lane pair.
        let wre = _mm256_movedup_pd(w); // (wr, wr, wr, wr) per lane pair
        let wim = _mm256_permute_pd(w, 0xF); // (wi, wi, ...)
        let bsw = _mm256_permute_pd(b, 0x5); // (bi, br, ...)
        let bw = _mm256_addsub_pd(_mm256_mul_pd(b, wre), _mm256_mul_pd(bsw, wim));
        _mm256_storeu_pd(lo.add(k), _mm256_add_pd(a, bw));
        _mm256_storeu_pd(hi.add(k), _mm256_sub_pd(a, bw));
        k += 4;
    }
}

/// The seed transform: iterative Cooley–Tukey with incrementally
/// stepped twiddles. Kept as the scalar bench baseline and an
/// independent accuracy anchor for the v2 engine.
pub fn fft_baseline(x: &mut [Cpx]) {
    fft_dir_baseline(x, false);
}

/// Inverse of [`fft_baseline`] (includes the 1/n scaling).
pub fn ifft_baseline(x: &mut [Cpx]) {
    fft_dir_baseline(x, true);
}

fn fft_dir_baseline(x: &mut [Cpx], inverse: bool) {
    let n = x.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            x.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Cpx::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Cpx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let a = x[start + k];
                let b = x[start + k + len / 2] * w;
                x[start + k] = a + b;
                x[start + k + len / 2] = a - b;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// 2-D FFT of an n×n row-major grid: FFT all rows, transpose, FFT all
/// rows again, transpose back. `parallel` shares the rows out over
/// [`des::host_cores`] workers; every row (and, via the transpose, every
/// column) pass shares one cached twiddle plan per worker thread.
#[allow(clippy::ptr_arg)] // the published signature takes the `Vec`
pub fn fft2d(data: &mut Vec<Cpx>, n: usize, parallel: bool) {
    rows_then_columns(data, n, parallel, fft);
}

fn rows_then_columns(data: &mut [Cpx], n: usize, parallel: bool, transform: fn(&mut [Cpx])) {
    assert_eq!(data.len(), n * n);
    let workers = crate::workers(parallel);
    for _ in 0..2 {
        par::for_each(data, n, workers, |_, row| transform(row));
        transpose(data, n);
    }
}

fn transpose(data: &mut [Cpx], n: usize) {
    for i in 0..n {
        for j in i + 1..n {
            data.swap(i * n + j, j * n + i);
        }
    }
}

/// FLOPs of a length-n radix-2 FFT (5 n log₂ n, the usual convention).
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cpx, b: Cpx, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn delta_transforms_to_flat() {
        let mut x = vec![Cpx::ZERO; 8];
        x[0] = Cpx::new(1.0, 0.0);
        fft(&mut x);
        for v in &x {
            assert!(close(*v, Cpx::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn constant_transforms_to_delta() {
        let mut x = vec![Cpx::new(1.0, 0.0); 16];
        fft(&mut x);
        assert!(close(x[0], Cpx::new(16.0, 0.0), 1e-12));
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let mut x: Vec<Cpx> = (0..n)
            .map(|t| Cpx::cis(std::f64::consts::TAU * k as f64 * t as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (bin, v) in x.iter().enumerate() {
            if bin == k {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leak in bin {bin}: {}", v.abs());
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 128;
        let orig: Vec<Cpx> = (0..n)
            .map(|i| Cpx::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 256;
        let x: Vec<Cpx> = (0..n)
            .map(|i| Cpx::new(((i * 37) % 11) as f64 - 5.0, ((i * 13) % 7) as f64))
            .collect();
        let time_energy: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let mut f = x.clone();
        fft(&mut f);
        let freq_energy: f64 = f.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Cpx> = (0..n).map(|i| Cpx::new(i as f64, 0.0)).collect();
        let b: Vec<Cpx> = (0..n).map(|i| Cpx::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft(&mut fa);
        fft(&mut fb);
        let mut fab: Vec<Cpx> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        fft(&mut fab);
        for i in 0..n {
            assert!(close(fab[i], fa[i] + fb[i], 1e-9));
        }
    }

    #[test]
    fn fft2d_roundtrip_parallel_matches_sequential() {
        let n = 32;
        let orig: Vec<Cpx> = (0..n * n)
            .map(|i| Cpx::new((i as f64 * 0.01).sin(), (i % 5) as f64))
            .collect();
        let mut seq = orig.clone();
        fft2d(&mut seq, n, false);
        let mut par = orig.clone();
        fft2d(&mut par, n, true);
        assert_eq!(seq, par, "row-parallel 2-D FFT must be bit-identical");
        rows_then_columns(&mut seq, n, false, ifft);
        for (a, b) in seq.iter().zip(&orig) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Cpx::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(fft_flops(1024), 5.0 * 1024.0 * 10.0);
    }

    #[test]
    fn v2_matches_baseline_engine() {
        // The plan-based engine against the seed's incremental-twiddle
        // transform: same network, independent twiddle evaluation —
        // agreement to near machine precision, forward and inverse,
        // through the whole leaf/recursion size range.
        for n in [2usize, 8, 64, LEAF, 4 * LEAF] {
            let orig: Vec<Cpx> = (0..n)
                .map(|i| Cpx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut a = orig.clone();
            fft(&mut a);
            let mut b = orig.clone();
            fft_baseline(&mut b);
            let scale = n as f64;
            for (p, q) in a.iter().zip(&b) {
                assert!(close(*p, *q, 1e-9 * scale), "n={n}");
            }
            ifft(&mut a);
            for (p, q) in a.iter().zip(&orig) {
                assert!(close(*p, *q, 1e-10), "n={n} roundtrip");
            }
        }
    }

    #[test]
    fn simd_path_is_bit_identical_to_portable() {
        // On non-AVX2 hosts both sides take the scalar pass and this is
        // trivially true; on AVX2 hosts it pins the kernel's claim that
        // the vector butterflies never change a single bit.
        for n in [4usize, 32, 512, 2 * LEAF] {
            let orig: Vec<Cpx> = (0..n)
                .map(|i| Cpx::new((i as f64 * 0.73).cos(), (i as f64 * 0.29).sin()))
                .collect();
            let mut auto = orig.clone();
            fft(&mut auto);
            let mut portable = orig.clone();
            fft_portable(&mut portable);
            assert_eq!(auto, portable, "forward n={n}");
            ifft(&mut auto);
            fft_dir(&mut portable, true, false);
            assert_eq!(auto, portable, "inverse n={n}");
        }
    }
}
