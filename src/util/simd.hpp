#pragma once
/// \file simd.hpp
/// \brief Portable explicit-SIMD wrapper for the LB hot loops.
///
/// One vector-of-double type (`simd::VecD`, `simd::kWidth` lanes) with the
/// handful of operations the vectorised collide+stream kernel needs:
/// load/store (aligned, unaligned and non-temporal), broadcast, the usual
/// arithmetic, and fused multiply-add. Three backends, chosen at compile
/// time:
///
///   * **AVX-512** (`__AVX512F__`): 8 lanes, `_mm512_*`.
///   * **AVX2** (`__AVX2__`): 4 lanes, `_mm256_*` (FMA when `__FMA__`).
///   * **scalar fallback** (baseline ISA, or `-DHEMO_SIMD=OFF` which
///     defines HEMO_SIMD_DISABLED): a 4-lane struct of doubles with plain
///     loops — the compiler auto-vectorises what the ISA allows, and the
///     kernel code stays identical.
///
/// The wrapper is deliberately tiny (in the spirit of serenity's vec16.h):
/// free functions over a trivial struct, no expression templates, nothing
/// the optimiser has to see through. Non-temporal stores are exposed as
/// `stream()` plus `storeFence()`; `copyDoubles()` packages the
/// peel-to-alignment / stream / tail pattern the copy-bandwidth (roofline)
/// probes use; the LB kernel's run copies take the default plain copy.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if !defined(HEMO_SIMD_DISABLED) && (defined(__AVX512F__) || defined(__AVX2__))
#include <immintrin.h>
#define HEMO_SIMD_X86 1
#endif

namespace hemo::simd {

#if defined(HEMO_SIMD_X86) && defined(__AVX512F__)

inline constexpr int kWidth = 8;
struct VecD {
  __m512d v;
};
inline const char* backendName() { return "avx512"; }

inline VecD zero() { return {_mm512_setzero_pd()}; }
inline VecD broadcast(double x) { return {_mm512_set1_pd(x)}; }
inline VecD load(const double* p) { return {_mm512_load_pd(p)}; }
inline VecD loadu(const double* p) { return {_mm512_loadu_pd(p)}; }
inline void store(double* p, VecD a) { _mm512_store_pd(p, a.v); }
inline void storeu(double* p, VecD a) { _mm512_storeu_pd(p, a.v); }
inline void stream(double* p, VecD a) { _mm512_stream_pd(p, a.v); }
inline void storeFence() { _mm_sfence(); }
inline VecD operator+(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm512_div_pd(a.v, b.v)}; }
/// a*b + c in one rounding.
inline VecD fmadd(VecD a, VecD b, VecD c) {
  return {_mm512_fmadd_pd(a.v, b.v, c.v)};
}

#elif defined(HEMO_SIMD_X86) && defined(__AVX2__)

inline constexpr int kWidth = 4;
struct VecD {
  __m256d v;
};
inline const char* backendName() { return "avx2"; }

inline VecD zero() { return {_mm256_setzero_pd()}; }
inline VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline VecD load(const double* p) { return {_mm256_load_pd(p)}; }
inline VecD loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD a) { _mm256_store_pd(p, a.v); }
inline void storeu(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline void stream(double* p, VecD a) { _mm256_stream_pd(p, a.v); }
inline void storeFence() { _mm_sfence(); }
inline VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VecD fmadd(VecD a, VecD b, VecD c) {
#if defined(__FMA__)
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
  return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
#endif
}

#else  // scalar fallback

inline constexpr int kWidth = 4;
struct VecD {
  double v[kWidth];
};
inline const char* backendName() { return "scalar"; }

inline VecD zero() { return VecD{}; }
inline VecD broadcast(double x) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = x;
  return r;
}
inline VecD load(const double* p) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
  return r;
}
inline VecD loadu(const double* p) { return load(p); }
inline void store(double* p, VecD a) {
  for (int i = 0; i < kWidth; ++i) p[i] = a.v[i];
}
inline void storeu(double* p, VecD a) { store(p, a); }
inline void stream(double* p, VecD a) { store(p, a); }
inline void storeFence() {}
inline VecD operator+(VecD a, VecD b) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline VecD operator-(VecD a, VecD b) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline VecD operator*(VecD a, VecD b) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline VecD operator/(VecD a, VecD b) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
inline VecD fmadd(VecD a, VecD b, VecD c) {
  VecD r;
  for (int i = 0; i < kWidth; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

#endif

inline VecD operator+=(VecD& a, VecD b) { return a = a + b; }
inline VecD operator-=(VecD& a, VecD b) { return a = a - b; }

/// Copy `n` doubles (non-overlapping). With `nt` (used only by the roofline
/// copy probes) the bulk of the copy uses non-temporal stores: scalar peel
/// until `dst` is 64-byte aligned, full vectors streamed past the cache,
/// scalar tail. Callers that streamed must issue storeFence() before the
/// data is handed to another thread.
inline void copyDoubles(double* dst, const double* src, std::size_t n,
                        bool nt = false) {
  // Short copies (frontier runs average a handful of sites) stay inline:
  // a libc memcpy call costs more than the copy itself.
  if (n < 2 * static_cast<std::size_t>(kWidth)) {
    for (std::size_t k = 0; k < n; ++k) dst[k] = src[k];
    return;
  }
#if defined(HEMO_SIMD_X86)
  if (nt && n >= 2 * static_cast<std::size_t>(kWidth)) {
    while ((reinterpret_cast<std::uintptr_t>(dst) & 63u) != 0 && n > 0) {
      *dst++ = *src++;
      --n;
    }
    while (n >= static_cast<std::size_t>(kWidth)) {
      stream(dst, loadu(src));
      dst += kWidth;
      src += kWidth;
      n -= static_cast<std::size_t>(kWidth);
    }
  }
#else
  (void)nt;
#endif
  if (n > 0) std::memcpy(dst, src, n * sizeof(double));
}

/// Ask the kernel to back [p, p+bytes) with transparent huge pages. A
/// D3Q19 sweep keeps 19 direction planes plus the macro planes hot at
/// once; on 4 KiB pages that overflows the first-level DTLB every vector
/// group, and the walk cost dominates the streamed accesses. Must be called before first
/// touch so the pages can be allocated huge rather than collapsed later.
inline void adviseHugePages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (addr + 4095u) & ~std::uintptr_t{4095};
  const std::uintptr_t last = (addr + bytes) & ~std::uintptr_t{4095};
  if (last > first) {
    ::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// 64-byte-aligned allocator so every SoA direction plane (and the SIMD
/// block buffers) can use aligned vector loads and whole-line NT stores.
/// Large blocks are madvise'd for huge pages before they are touched.
template <typename T>
struct AlignedAlloc64 {
  using value_type = T;
  AlignedAlloc64() = default;
  template <typename U>
  AlignedAlloc64(const AlignedAlloc64<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t{64});
    if (n * sizeof(T) >= (std::size_t{2} << 20)) {
      adviseHugePages(p, n * sizeof(T));
    }
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
  template <typename U>
  bool operator==(const AlignedAlloc64<U>&) const {
    return true;
  }
};

template <typename T>
using AVector = std::vector<T, AlignedAlloc64<T>>;

}  // namespace hemo::simd
