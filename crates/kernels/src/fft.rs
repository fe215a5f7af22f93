//! Radix-2 complex FFT — the transform kernel behind the earth/space
//! science workloads (spectral atmosphere models, SAR processing).
//!
//! ## Engine v2
//!
//! The seed transform (`fft_baseline`, kept in the tests) is iterative
//! Cooley–Tukey with incrementally-computed twiddles, a per-element
//! bit-reversal swap and one strided pass over the whole array per
//! stage. The v2 engine keeps
//! the same butterfly network and every butterfly's arithmetic, but:
//!
//! * **Twiddle plan** — per-stage tables (`n−1` entries), computed once
//!   per length by direct `cis` and cached per thread, so `fft2d`'s row
//!   and column passes and every repeat share one table.
//! * **Tiled bit reversal** — COBRA-style: 8 × 8 tiles of whole 128-byte
//!   rows trade places through a stack buffer, in place.
//! * **Cache-oblivious recursion, two stages a pass** — on bit-reversed
//!   data a block's transform is its four quarters' transforms, then two
//!   stages that join them; depth-first, every block finishes while
//!   resident and each pass over memory does two stages in registers
//!   (`LEAF`-point leaves start with their first one or two stages per
//!   2- or 4-point block). Blocks are independent, so the reordering
//!   changes no bit.
//! * **AVX2 butterflies** — two complex lanes per 256-bit register;
//!   the complex multiply via `movedup`/`permute`/`addsub` is exactly
//!   the scalar formula (no FMA), so SIMD and portable passes are
//!   bit-identical; runtime-dispatched with
//!   [`crate::simd::avx2_fma_available`]. Inverse transforms conjugate
//!   the twiddle at load time with a sign-mask XOR.
//!
//! `fft`/`ifft` dispatch automatically; `fft_portable` pins the scalar
//! pass. The tests hold every entry point to the engine before tiling
//! and fusing, bit for bit, and to the seed transform within round-off.

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
        let stage = |len: usize| {
            let w = |k: usize| Cpx::cis(-std::f64::consts::TAU * k as f64 / len as f64);
            (0..len / 2).map(w).collect()
        };
        let stages = (2..=n.trailing_zeros()).map(|s| stage(1 << s)).collect();
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
    bit_reverse(x);
    let plan = plan_for(n);
    recurse(x, &plan, inverse, use_simd);
    if inverse {
        let inv = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// Bit-reversal permutation in place, by tiles (COBRA, Carter & Gatlin):
/// index `(a, m, c)`, `a` and `c` of `q ≤ 3` bits, goes to `(rev c, rev
/// m, rev a)`, so the tile of `t` rows of `t` points with middle bits `m`
/// trades places, transposed, with tile `rev m`, through a stack buffer.
fn bit_reverse(x: &mut [Cpx]) {
    let rev = |v: usize, b| v.reverse_bits().checked_shr(usize::BITS - b).unwrap_or(0);
    let bits = x.len().trailing_zeros();
    let q = (bits / 2).min(3);
    let (mid, t, row) = (bits - 2 * q, 1 << q, x.len() >> q);
    let rq: [usize; 8] = std::array::from_fn(|v| rev(v, q));
    let mut buf = [Cpx::ZERO; 64];
    for m in 0..1 << mid {
        let r = rev(m, mid);
        if r < m {
            continue;
        }
        let (tm, tr) = (m * t, r * t);
        for a in 0..t {
            buf[a * t..][..t].copy_from_slice(&x[a * row + tr..][..t]);
        }
        if r != m {
            for a in 0..t {
                for c in 0..t {
                    x[a * row + tr + c] = x[rq[c] * row + tm + rq[a]];
                }
            }
        }
        for a in 0..t {
            for c in 0..t {
                x[a * row + tm + c] = buf[rq[c] * t + rq[a]];
            }
        }
    }
}

/// Depth-first passes over one bit-reversed block: its four quarters
/// first (each finishes while cache-resident; leaves hold `LEAF / 2` or
/// `LEAF` points), then the block's own two stages in one combine.
fn recurse(x: &mut [Cpx], plan: &FftPlan, inverse: bool, use_simd: bool) {
    let m = x.len();
    if m <= LEAF {
        leaf_passes(x, plan, inverse, use_simd);
        return;
    }
    for quarter in x.chunks_exact_mut(m / 4) {
        recurse(quarter, plan, inverse, use_simd);
    }
    combine(x, plan.table(m / 2), plan.table(m), inverse, use_simd);
}

/// All passes of an ≤ LEAF-sized block: the first stage, or the first
/// two, per 2- or 4-point block in registers, whichever leaves an even
/// number of stages, then two stages per combine.
fn leaf_passes(x: &mut [Cpx], plan: &FftPlan, inverse: bool, use_simd: bool) {
    let m = x.len();
    let mut len = match m.trailing_zeros() % 2 {
        1 => first_stages::<2>(x, plan, inverse),
        _ => first_stages::<4>(x, plan, inverse),
    };
    while len < m {
        let (t1, t2) = (plan.table(2 * len), plan.table(4 * len));
        for block in x.chunks_exact_mut(4 * len) {
            combine(block, t1, t2, inverse, use_simd);
        }
        len *= 4;
    }
}

/// The stages up to `len = S` of every `S`-point block, in registers, in
/// the order of one pass per stage: the twiddle-free `len = 2`
/// butterflies, then the plan's. Returns `S`, the blocks' new length.
#[inline(always)]
fn first_stages<const S: usize>(x: &mut [Cpx], plan: &FftPlan, inverse: bool) -> usize {
    for block in x.chunks_exact_mut(S) {
        let mut v: [Cpx; S] = block.try_into().expect("S-point block");
        for p in (0..S).step_by(2) {
            (v[p], v[p + 1]) = (v[p] + v[p + 1], v[p] - v[p + 1]);
        }
        let mut len = 4;
        while len <= S {
            let (h, tw) = (len / 2, plan.table(len));
            for base in (0..S).step_by(len) {
                for k in 0..h {
                    let w = if inverse { tw[k].conj() } else { tw[k] };
                    let (a, b) = (v[base + k], v[base + k + h] * w);
                    (v[base + k], v[base + k + h]) = (a + b, a - b);
                }
            }
            len <<= 1;
        }
        block.copy_from_slice(&v);
    }
    S
}

/// Two stages over `x`, four transformed quarters of `q` points: with
/// `t1` within each half, with `t2` across them. Each group `(k, k+q,
/// k+2q, k+3q)` runs its four butterflies `(a, b) ← (a + w·b, a − w·b)`.
fn combine(x: &mut [Cpx], t1: &[Cpx], t2: &[Cpx], inverse: bool, use_simd: bool) {
    if use_simd {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: dispatch guarded by `avx2_fma_available`; quarters
            // hold at least 2 points, one register's worth.
            unsafe { combine_avx2(x, t1, t2, inverse) };
            return;
        }
    }
    let q = x.len() / 4;
    let w = |t: &[Cpx], k: usize| if inverse { t[k].conj() } else { t[k] };
    let bfly = |a: Cpx, b: Cpx, w: Cpx| (a + b * w, a - b * w);
    for k in 0..q {
        let (p0, p1) = bfly(x[k], x[k + q], w(t1, k));
        let (p2, p3) = bfly(x[k + 2 * q], x[k + 3 * q], w(t1, k));
        (x[k], x[k + 2 * q]) = bfly(p0, p2, w(t2, k));
        (x[k + q], x[k + 3 * q]) = bfly(p1, p3, w(t2, k + q));
    }
}

/// AVX2 [`combine`], two complex lanes per register: `w·b` is exactly
/// the scalar `(br·wr − bi·wi, br·wi + bi·wr)`, no FMA, no reassociation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn combine_avx2(x: &mut [Cpx], t1: &[Cpx], t2: &[Cpx], inverse: bool) {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn bfly(a: __m256d, b: __m256d, w: __m256d) -> (__m256d, __m256d) {
        let wre = _mm256_movedup_pd(w); // (wr, wr) per lane
        let wim = _mm256_permute_pd(w, 0xF); // (wi, wi)
        let bsw = _mm256_permute_pd(b, 0x5); // (bi, br)
        let bw = _mm256_addsub_pd(_mm256_mul_pd(b, wre), _mm256_mul_pd(bsw, wim));
        (_mm256_add_pd(a, bw), _mm256_sub_pd(a, bw))
    }
    // Flips the imaginary sign (inverse) or no bit at all (forward).
    let conj = if inverse {
        _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
    } else {
        _mm256_setzero_pd()
    };
    let p = x.as_mut_ptr() as *mut f64;
    let (t1, t2) = (t1.as_ptr() as *const f64, t2.as_ptr() as *const f64);
    let q = x.len() / 2; // a quarter, in f64s
    let mut k = 0;
    while k < q {
        let ld = |o: usize| _mm256_loadu_pd(p.add(k + o));
        let tw = |t: *const f64, o: usize| _mm256_xor_pd(_mm256_loadu_pd(t.add(k + o)), conj);
        let (p0, p1) = bfly(ld(0), ld(q), tw(t1, 0));
        let (p2, p3) = bfly(ld(2 * q), ld(3 * q), tw(t1, 0));
        let (y0, y2) = bfly(p0, p2, tw(t2, 0));
        let (y1, y3) = bfly(p1, p3, tw(t2, q));
        for (o, y) in [(0, y0), (q, y1), (2 * q, y2), (3 * q, y3)] {
            _mm256_storeu_pd(p.add(k + o), y);
        }
        k += 4;
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

/// Transpose in place by 8 × 8 tiles, so a tile's column side is 8
/// rows touched 8 points at a time, not a row-length stride per point.
fn transpose(data: &mut [Cpx], n: usize) {
    for ib in (0..n).step_by(8) {
        for jb in (ib..n).step_by(8) {
            for i in ib..n.min(ib + 8) {
                for j in jb.max(i + 1)..n.min(jb + 8) {
                    data.swap(i * n + j, j * n + i);
                }
            }
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

    /// The seed transform: iterative Cooley–Tukey with incrementally
    /// stepped twiddles, an independent accuracy anchor for the v2 engine.
    fn fft_baseline(x: &mut [Cpx]) {
        fft_dir_baseline(x, false);
    }

    /// Inverse of [`fft_baseline`] (includes the 1/n scaling).
    fn ifft_baseline(x: &mut [Cpx]) {
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

    /// The engine before tiling and fusing, scalar: a per-element swap
    /// loop, then the depth-first passes with a plain `len = 2` pass and
    /// one pass per stage, each twiddle evaluated as the plan evaluates
    /// it but apart from the plan. The oracle every output bit of
    /// `fft_dir` is held to, as `netsim` holds `fill` to `fill_reference`.
    fn fft_reference(x: &mut [Cpx], inverse: bool) {
        let n = x.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                x.swap(i, j);
            }
        }
        recurse_reference(x, inverse);
        if inverse {
            let inv = 1.0 / n as f64;
            for v in x.iter_mut() {
                *v = v.scale(inv);
            }
        }
    }

    fn recurse_reference(x: &mut [Cpx], inverse: bool) {
        let m = x.len();
        if m > LEAF {
            let (lo, hi) = x.split_at_mut(m / 2);
            recurse_reference(lo, inverse);
            recurse_reference(hi, inverse);
            combine_reference(x, inverse);
            return;
        }
        for p in (0..m).step_by(2) {
            let (a, b) = (x[p], x[p + 1]);
            x[p] = a + b;
            x[p + 1] = a - b;
        }
        let mut len = 4;
        while len <= m {
            for block in x.chunks_exact_mut(len) {
                combine_reference(block, inverse);
            }
            len <<= 1;
        }
    }

    fn combine_reference(x: &mut [Cpx], inverse: bool) {
        let (len, h) = (x.len(), x.len() / 2);
        for k in 0..h {
            let w = Cpx::cis(-std::f64::consts::TAU * k as f64 / len as f64);
            let w = if inverse { w.conj() } else { w };
            let a = x[k];
            let b = x[k + h] * w;
            x[k] = a + b;
            x[k + h] = a - b;
        }
    }

    fn bits_of(x: &[Cpx]) -> Vec<(u64, u64)> {
        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    /// `fft`, `ifft` and `fft_portable` against the reference engine, bit
    /// for bit: every power of two from 2 to 2^16, and 2^20 once.
    #[test]
    fn every_entry_point_matches_the_reference_engine_bit_for_bit() {
        let mut rng = des::rng::Rng::new(0xFF7_0B17);
        for bits in (1..=16).chain([20]) {
            let n = 1usize << bits;
            let orig: Vec<Cpx> = (0..n)
                .map(|_| Cpx::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect();
            let mut want = orig.clone();
            fft_reference(&mut want, false);
            let mut got = orig.clone();
            fft(&mut got);
            assert!(bits_of(&got) == bits_of(&want), "fft n={n}");
            let mut got = orig.clone();
            fft_portable(&mut got);
            assert!(bits_of(&got) == bits_of(&want), "fft_portable n={n}");
            let mut want = orig.clone();
            fft_reference(&mut want, true);
            let mut got = orig;
            ifft(&mut got);
            assert!(bits_of(&got) == bits_of(&want), "ifft n={n}");
        }
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
    fn tiled_transpose_matches_the_element_loop() {
        for n in [1usize, 7, 64, 512] {
            let orig: Vec<Cpx> = (0..n * n)
                .map(|i| Cpx::new(i as f64, -(i as f64)))
                .collect();
            let mut want = orig.clone();
            for i in 0..n {
                for j in i + 1..n {
                    want.swap(i * n + j, j * n + i);
                }
            }
            let mut got = orig;
            transpose(&mut got, n);
            assert_eq!(got, want, "n={n}");
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
            ifft_baseline(&mut b);
            for ((p, q), r) in a.iter().zip(&orig).zip(&b) {
                assert!(close(*p, *q, 1e-10), "n={n} roundtrip");
                assert!(close(*p, *r, 1e-10), "n={n} inverse");
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
