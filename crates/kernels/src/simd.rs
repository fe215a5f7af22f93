//! Runtime SIMD dispatch shared by the kernel engine v2 paths.
//!
//! Every vectorised kernel in this crate follows the same discipline as
//! the GEMM microkernel: a portable scalar body that is the semantic
//! reference, an `#[target_feature(enable = "avx2", "fma")]` clone, and a
//! runtime `is_x86_feature_detected!` dispatch. Each kernel also keeps
//! its portable path reachable (`*_portable` entry points) so the
//! property tests can drive both paths on one host and assert their
//! agreement — bit-identical for element-wise kernels that never
//! reassociate or fuse, residual-bounded for FMA-fused inner products.

/// True when the AVX2+FMA fast paths may be taken on this host.
///
/// `is_x86_feature_detected!` caches its CPUID probe behind an atomic,
/// so calling this at per-call dispatch points is cheap.
#[inline]
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
