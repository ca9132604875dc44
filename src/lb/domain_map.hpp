#pragma once
/// \file domain_map.hpp
/// \brief Rank-local view of a partitioned sparse lattice: which global
/// sites this rank owns and how to find the owner of any site. Shared by
/// the solver and every in situ visualisation algorithm.

#include <cstdint>
#include <vector>

#include "geometry/sparse_lattice.hpp"
#include "partition/graph.hpp"
#include "util/check.hpp"

namespace hemo::lb {

class DomainMap {
 public:
  DomainMap(const geometry::SparseLattice& lattice,
            const partition::Partition& partition, int myRank)
      : lattice_(&lattice), partition_(&partition), rank_(myRank) {
    const std::uint64_t n = lattice.numFluidSites();
    HEMO_CHECK_MSG(n < kNotOwned,
                   "site count does not fit the 32-bit ownership index");
    localOf_.assign(static_cast<std::size_t>(n), kNotOwned);
    for (std::uint64_t g = 0; g < n; ++g) {
      if (partition.partOfSite[static_cast<std::size_t>(g)] == myRank) {
        localOf_[static_cast<std::size_t>(g)] =
            static_cast<std::uint32_t>(ownedIds_.size());
        ownedIds_.push_back(g);
      }
    }
  }

  const geometry::SparseLattice& lattice() const { return *lattice_; }
  const partition::Partition& partition() const { return *partition_; }
  int rank() const { return rank_; }

  std::uint32_t numOwned() const {
    return static_cast<std::uint32_t>(ownedIds_.size());
  }
  const std::vector<std::uint64_t>& ownedIds() const { return ownedIds_; }
  std::uint64_t globalOf(std::uint32_t local) const {
    return ownedIds_[static_cast<std::size_t>(local)];
  }

  /// Local index of a global site, or -1 if not owned by this rank.
  /// O(1): one read of the dense ownership index.
  std::int64_t localOf(std::uint64_t global) const {
    if (global >= localOf_.size()) return -1;
    const std::uint32_t l = localOf_[static_cast<std::size_t>(global)];
    return l == kNotOwned ? -1 : static_cast<std::int64_t>(l);
  }

  /// Which rank owns a global site.
  int ownerOf(std::uint64_t global) const {
    return partition_->partOfSite[static_cast<std::size_t>(global)];
  }

 private:
  const geometry::SparseLattice* lattice_;
  const partition::Partition* partition_;
  int rank_;
  static constexpr std::uint32_t kNotOwned = 0xFFFFFFFFu;

  std::vector<std::uint64_t> ownedIds_;
  /// Per global site: its local index here, or kNotOwned (4 B per site).
  std::vector<std::uint32_t> localOf_;
};

/// Hot-path site permutation built by the solver over a rank's owned sites.
///
/// The solver stores distributions in an *internal* order chosen for the
/// collide–stream kernel: frontier sites (any streaming pull that crosses
/// a rank boundary, a wall, or an iolet) come first so their outgoing halo
/// populations can be computed and posted before the bulk sweep; bulk
/// sites follow in row-major order (x fastest), so the streamed writes
/// decompose into long unit-stride runs.
///
/// Contract: *external* local indices — the DomainMap order used by
/// checkpointing, visualisation sampling, WSS extraction and every test —
/// are unchanged. The solver translates at its boundary through these maps;
/// nothing outside the solver ever sees internal indices.
struct SiteReordering {
  std::vector<std::uint32_t> internalOf;  ///< external local -> internal
  std::vector<std::uint32_t> externalOf;  ///< internal -> external local
  std::uint32_t numFrontier = 0;  ///< internal [0, numFrontier) are frontier

  std::uint32_t numSites() const {
    return static_cast<std::uint32_t>(externalOf.size());
  }
  std::uint32_t numBulk() const { return numSites() - numFrontier; }
};

/// Macroscopic moments of the owned sites, refreshed every collision.
struct MacroFields {
  std::vector<double> rho;
  std::vector<Vec3d> u;
  /// Deviatoric stress tensors (filled only when the solver's
  /// computeStress option is on).
  std::vector<SymTensor3> stress;
};

}  // namespace hemo::lb
