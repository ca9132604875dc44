#pragma once
/// \file sparse_lattice.hpp
/// \brief Sparse block-structured lattice: the fundamental data structure of
/// the HemeLB-style solver.
///
/// Vessel geometries fill only a few percent of their bounding box, so the
/// lattice is stored two-level, exactly like the paper describes HemeLB's
/// input: the box is tiled with cubic blocks (default 8³ sites); only blocks
/// containing fluid are materialised, and the coarse block table (fluid count
/// per block) alone supports the approximate initial load balance of the
/// pre-processing stage without touching any site data.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/site.hpp"
#include "util/bbox.hpp"
#include "util/check.hpp"
#include "util/vec.hpp"

namespace hemo::geometry {

/// Immutable-after-finalize sparse lattice with global fluid-site ids.
/// Site ids are assigned in block-scan order: blocks ascending by row-major
/// block linear index, sites within a block ascending by row-major local
/// index. This ordering is part of the .sgmy format contract.
class SparseLattice {
 public:
  struct BlockInfo {
    Vec3i coord;               ///< block coordinates (block units)
    std::uint32_t fluidCount;  ///< number of fluid sites in this block
    std::uint64_t firstSiteId; ///< global id of the block's first fluid site
  };

  SparseLattice(const Vec3i& dims, double voxelSize, const Vec3d& origin,
                int blockSize = 8);

  // --- building (before finalize) ---------------------------------------

  /// Register a fluid site. Positions must be unique and inside dims.
  void addFluidSite(const Vec3i& pos, const SiteRecord& record);

  void setIolets(std::vector<Iolet> iolets) { iolets_ = std::move(iolets); }

  /// Assign global ids; afterwards the lattice is immutable and queryable.
  void finalize();

  // --- queries (after finalize) ------------------------------------------

  bool finalized() const { return finalized_; }
  const Vec3i& dims() const { return dims_; }
  double voxelSize() const { return voxelSize_; }
  const Vec3d& origin() const { return origin_; }
  int blockSize() const { return blockSize_; }
  Vec3i blockDims() const { return blockDims_; }
  const std::vector<Iolet>& iolets() const { return iolets_; }

  std::uint64_t numFluidSites() const { return positions_.size(); }
  std::size_t numNonEmptyBlocks() const { return blocks_.size(); }

  /// Global fluid id at a lattice position, or -1 if solid/outside. O(1):
  /// the dense block index, then the block's local table.
  std::int64_t siteId(const Vec3i& pos) const {
    HEMO_CHECK(finalized_);
    if (pos.x < 0 || pos.x >= dims_.x || pos.y < 0 || pos.y >= dims_.y ||
        pos.z < 0 || pos.z >= dims_.z) {
      return -1;
    }
    const Vec3i bc{pos.x / blockSize_, pos.y / blockSize_, pos.z / blockSize_};
    const std::int32_t block =
        blockIndex_[static_cast<std::size_t>(blockLinear(bc))];
    if (block < 0) return -1;
    const Vec3i in{pos.x % blockSize_, pos.y % blockSize_, pos.z % blockSize_};
    return localToGlobal_[static_cast<std::size_t>(block) * blockVolume() +
                          static_cast<std::size_t>(localLinear(in))];
  }

  const Vec3i& sitePosition(std::uint64_t id) const {
    return positions_[static_cast<std::size_t>(id)];
  }
  const SiteRecord& site(std::uint64_t id) const {
    return records_[static_cast<std::size_t>(id)];
  }

  /// World-space position of a site centre.
  Vec3d siteWorld(std::uint64_t id) const {
    const Vec3i& p = sitePosition(id);
    return origin_ + (p.cast<double>() + Vec3d{0.5, 0.5, 0.5}) * voxelSize_;
  }

  /// Global id of the fluid neighbour along direction d (26-set), or -1.
  std::int64_t neighborId(std::uint64_t id, int direction) const {
    return siteId(sitePosition(id) + kDirections[static_cast<std::size_t>(direction)]);
  }

  /// Non-empty blocks in id order.
  const std::vector<BlockInfo>& blocks() const { return blocks_; }

  /// Which non-empty block (index into blocks()) a site id belongs to.
  std::size_t blockOfSite(std::uint64_t id) const;

  /// Bounding box (lattice units) of all fluid sites.
  BoxI fluidBounds() const { return fluidBounds_; }

  /// Fraction of the bounding box that is fluid — the sparsity the paper's
  /// design revolves around.
  double fluidFraction() const {
    const long long vol = 1LL * dims_.x * dims_.y * dims_.z;
    return vol > 0 ? static_cast<double>(numFluidSites()) /
                         static_cast<double>(vol)
                   : 0.0;
  }

  std::uint64_t blockLinear(const Vec3i& blockCoord) const {
    return (static_cast<std::uint64_t>(blockCoord.z) *
                static_cast<std::uint64_t>(blockDims_.y) +
            static_cast<std::uint64_t>(blockCoord.y)) *
               static_cast<std::uint64_t>(blockDims_.x) +
           static_cast<std::uint64_t>(blockCoord.x);
  }

  int localLinear(const Vec3i& posInBlock) const {
    return (posInBlock.z * blockSize_ + posInBlock.y) * blockSize_ +
           posInBlock.x;
  }

 private:
  std::size_t blockVolume() const {
    return static_cast<std::size_t>(blockSize_) *
           static_cast<std::size_t>(blockSize_) *
           static_cast<std::size_t>(blockSize_);
  }

  Vec3i dims_;
  double voxelSize_;
  Vec3d origin_;
  int blockSize_;
  Vec3i blockDims_;
  std::vector<Iolet> iolets_;

  // Build phase: position + record pairs per block.
  struct BuildSite {
    int local;
    Vec3i pos;
    SiteRecord record;
  };
  std::unordered_map<std::uint64_t, std::vector<BuildSite>> building_;

  // Finalized storage.
  bool finalized_ = false;
  /// Dense index over the whole block grid, by blockLinear: the block's
  /// position in blocks_, or -1 for an empty block (4 B per box block).
  std::vector<std::int32_t> blockIndex_;
  /// localLinear -> global fluid id (-1 = solid) of every stored block, B³
  /// entries per block in blocks_ order.
  std::vector<std::int64_t> localToGlobal_;
  std::vector<BlockInfo> blocks_;
  std::vector<Vec3i> positions_;
  std::vector<SiteRecord> records_;
  BoxI fluidBounds_ = BoxI::empty();
};

}  // namespace hemo::geometry
