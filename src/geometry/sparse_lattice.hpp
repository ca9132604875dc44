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
///
/// Boundary data is stored for edge sites only, the second level of the
/// same store-only-what-is-there idea: a bulk site (all 26 links kBulk, no
/// wall normal) costs one 4 B "no edge" index; an edge site points at an
/// EdgeRecord (wall normal, flags) whose run of 8 B CutLinks holds its
/// non-bulk links. site() rebuilds the full SiteRecord from these tables.
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

  /// Register a fluid site. Positions must be unique and inside dims. A
  /// kBulk link must carry no distance or iolet id (it is not stored).
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
  /// The full boundary record of a site, rebuilt from the edge tables.
  /// Returned by value: use link() for one link, and never bind a
  /// reference into the returned record beyond the full expression.
  SiteRecord site(std::uint64_t id) const;

  /// Link `direction` (26-set) of a site; kBulk with no data for a bulk link.
  LinkInfo link(std::uint64_t id, int direction) const;

  /// Some link of the site is not kBulk. O(1).
  bool isEdgeSite(std::uint64_t id) const {
    const EdgeRecord* e = edgeOf(id);
    return e != nullptr && e->numLinks > 0;
  }

  /// Some link of the site is kWall. O(1).
  bool touchesWall(std::uint64_t id) const {
    const EdgeRecord* e = edgeOf(id);
    return e != nullptr && e->touchesWall != 0;
  }

  /// Heap bytes of the finalized lattice: ids, positions, the block index
  /// and the edge tables (capacity, not size, of each array).
  std::size_t storageBytes() const;

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
  /// One non-bulk link of an edge site.
  struct CutLink {
    std::uint8_t direction;  ///< index into kDirections
    LinkKind kind;
    std::uint16_t ioletId;
    float wallDistance;
  };

  /// Boundary data of one edge site: its run in the CutLink table and its
  /// wall normal.
  struct EdgeRecord {
    std::uint32_t firstLink;
    std::uint8_t numLinks;
    std::uint8_t touchesWall;    ///< some cut link is kWall
    std::uint8_t hasWallNormal;  ///< SiteRecord::hasWallNormal, as given
    Vec3f wallNormal;
  };

  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

  const EdgeRecord* edgeOf(std::uint64_t id) const {
    const std::uint32_t e = edgeIndex_[static_cast<std::size_t>(id)];
    return e == kNoEdge ? nullptr : &edges_[e];
  }

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

  // Build phase: the sites of each block with their edge index; edges_ and
  // cutLinks_ are filled in insertion order and kept as they are.
  struct BuildSite {
    int local;
    Vec3i pos;
    std::uint32_t edge;
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
  /// Site id -> index into edges_, or kNoEdge for a bulk site.
  std::vector<std::uint32_t> edgeIndex_;
  std::vector<EdgeRecord> edges_;
  std::vector<CutLink> cutLinks_;
  BoxI fluidBounds_ = BoxI::empty();
};

}  // namespace hemo::geometry
