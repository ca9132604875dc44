#pragma once
/// \file sampler.hpp
/// \brief Rank-local field sampling with a one-site ghost ring.
///
/// Particle-based visualisation (integral lines, tracers) samples velocity
/// at arbitrary positions. Each rank keeps, besides its owned sites, a
/// ghost copy of every foreign site adjacent (26-neighbourhood) to an owned
/// site, refreshed on demand. A particle whose containing site is owned can
/// then always sample trilinearly — all eight cell corners are within one
/// step of the base site — so integration is bitwise independent of the
/// decomposition, and a particle is handed to another rank exactly when its
/// base site changes owner.

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "util/vec.hpp"

namespace hemo::vis {

/// Owned + ghost velocity/density view of the distributed macro fields.
class GhostedField {
 public:
  /// Collective: builds the ghost exchange plan. `rings` is the ghost
  /// depth: 1 suffices for cell-corner sampling at owned sites; integral
  /// lines use 2 so that every RK4 substage of a step shorter than one
  /// voxel can be evaluated before the particle is handed off — which
  /// makes the traced lines bitwise independent of the decomposition.
  GhostedField(const lb::DomainMap& domain, comm::Communicator& comm,
               int rings = 1);

  /// Collective: refresh ghost values from the current macro fields.
  /// Classified as visualisation traffic.
  void refresh(const lb::MacroFields& macro, comm::Communicator& comm);

  const lb::DomainMap& domain() const { return *domain_; }

  /// Velocity at a global site available on this rank (owned or ghost);
  /// nullopt otherwise.
  std::optional<Vec3d> velocityAt(std::uint64_t global) const;
  std::optional<double> densityAt(std::uint64_t global) const;

  /// Bytes moved by the last refresh (whole communicator, local share).
  std::uint64_t ghostCount() const { return ghostIds_.size(); }

 private:
  /// Index of a ghost in ghostIds_, or -1: its owner's receive group, then
  /// a binary search in it.
  std::int64_t ghostSlot(std::uint64_t global) const;

  const lb::DomainMap* domain_;
  const lb::MacroFields* macro_ = nullptr;
  /// Grouped by owner rank (recvOffset_), ascending within a group.
  std::vector<std::uint64_t> ghostIds_;
  std::vector<Vec3d> ghostU_;
  std::vector<double> ghostRho_;
  /// Exchange plan: for each peer rank, the owned locals it wants.
  struct SendPlan {
    int dest;
    std::vector<std::uint32_t> locals;
  };
  std::vector<SendPlan> sendPlans_;
  std::vector<std::pair<int, std::uint32_t>> recvRanges_;  ///< (rank, count)
  std::vector<std::uint32_t> recvOffset_;
};

/// Samples the ghosted field at world positions.
class VelocitySampler {
 public:
  explicit VelocitySampler(const GhostedField& field) : field_(&field) {}

  /// Global id of the fluid site containing `world` (by voxel floor), or
  /// -1 if that voxel is not fluid.
  std::int64_t containingSite(const Vec3d& world) const;

  /// Trilinear velocity at `world`. Requires the base site to be available
  /// on this rank; corners that are not fluid contribute zero velocity
  /// (no-slip towards walls). Returns nullopt if the base voxel is not
  /// fluid or not available here.
  std::optional<Vec3d> sample(const Vec3d& world) const;

 private:
  const GhostedField* field_;
};

}  // namespace hemo::vis
