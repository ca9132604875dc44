#pragma once
/// \file layout.hpp
/// \brief Distribution storage for the LB solver.
///
/// `DistField` owns the per-rank distribution values in one slab of
/// structure-of-arrays planes: one contiguous plane of doubles per velocity
/// direction, addressed as (direction, internal site). Planes are 64-byte
/// aligned and padded to an *odd* multiple of eight doubles, so (a) a SIMD
/// sweep can load full vectors off either end of a plane without faulting,
/// and (b) the planes of a D3Q19 field do not collide in the same cache
/// sets when the site count happens to be a large power of two. Lane w of
/// a vector is site l+w of the same direction.
///
/// Hot kernels never call `at()`; they hoist `dirBase()` once per sweep so
/// the compiler sees plain unit-stride pointers.

#include <cstddef>
#include <utility>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace hemo::lb {

template <int Q>
class DistField {
 public:
  void init(std::size_t n) {
    n_ = n;
    // Pad each plane to an odd multiple of 8 doubles (one cache line):
    // aligned plane starts, and consecutive planes staggered across sets.
    pitch_ = (n + 7) / 8 * 8;
    if ((pitch_ / 8) % 2 == 0) pitch_ += 8;
    data_.assign(pitch_ * static_cast<std::size_t>(Q), 0.0);
  }

  std::size_t numSites() const { return n_; }

  /// The (64-byte aligned) plane of direction q: site l is dirBase(q)[l].
  double* dirBase(int q) {
    return data_.data() + static_cast<std::size_t>(q) * pitch_;
  }
  const double* dirBase(int q) const {
    return data_.data() + static_cast<std::size_t>(q) * pitch_;
  }

  double& at(int q, std::size_t l) { return dirBase(q)[l]; }
  double at(int q, std::size_t l) const { return dirBase(q)[l]; }

  /// Set direction q of every site to v (equilibrium init).
  void fill(int q, double v) {
    double* base = dirBase(q);
    for (std::size_t l = 0; l < n_; ++l) base[l] = v;
  }

  /// O(1): swap the slabs (the reference kernel's per-step f/fNext flip;
  /// the production kernel streams in place in one slab).
  void swapWith(DistField& o) {
    HEMO_CHECK(n_ == o.n_);
    std::swap(pitch_, o.pitch_);
    data_.swap(o.data_);
  }

 private:
  std::size_t n_ = 0;
  std::size_t pitch_ = 0;  ///< plane pitch in doubles
  simd::AVector<double> data_;
};

}  // namespace hemo::lb
