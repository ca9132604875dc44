#include "geometry/sparse_lattice.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

namespace hemo::geometry {

SparseLattice::SparseLattice(const Vec3i& dims, double voxelSize,
                             const Vec3d& origin, int blockSize)
    : dims_(dims), voxelSize_(voxelSize), origin_(origin),
      blockSize_(blockSize) {
  HEMO_CHECK(dims.x > 0 && dims.y > 0 && dims.z > 0);
  HEMO_CHECK(voxelSize > 0.0);
  HEMO_CHECK(blockSize >= 2);
  blockDims_ = {(dims.x + blockSize - 1) / blockSize,
                (dims.y + blockSize - 1) / blockSize,
                (dims.z + blockSize - 1) / blockSize};
}

void SparseLattice::addFluidSite(const Vec3i& pos, const SiteRecord& record) {
  HEMO_CHECK(!finalized_);
  HEMO_CHECK_MSG(pos.x >= 0 && pos.x < dims_.x && pos.y >= 0 &&
                     pos.y < dims_.y && pos.z >= 0 && pos.z < dims_.z,
                 "site out of bounds " << pos);
  const Vec3i bc{pos.x / blockSize_, pos.y / blockSize_, pos.z / blockSize_};
  const Vec3i in{pos.x % blockSize_, pos.y % blockSize_, pos.z % blockSize_};

  // Compact the record: its non-bulk links go to cutLinks_, and it gets an
  // EdgeRecord only if it has one or carries a wall normal.
  const auto firstLink = cutLinks_.size();
  bool touchesWall = false;
  for (int d = 0; d < kNumDirections; ++d) {
    const LinkInfo& l = record.links[static_cast<std::size_t>(d)];
    if (l.kind == LinkKind::kBulk) {
      HEMO_CHECK_MSG(l.wallDistance == 0.0f && l.ioletId == 0,
                     "bulk link with boundary data at " << pos);
      continue;
    }
    touchesWall = touchesWall || l.kind == LinkKind::kWall;
    cutLinks_.push_back(CutLink{static_cast<std::uint8_t>(d), l.kind,
                                l.ioletId, l.wallDistance});
  }
  std::uint32_t edge = kNoEdge;
  const auto numLinks = cutLinks_.size() - firstLink;
  if (numLinks > 0 || record.hasWallNormal != 0 ||
      record.wallNormal != Vec3f{}) {
    HEMO_CHECK_MSG(cutLinks_.size() <= kNoEdge && edges_.size() < kNoEdge,
                   "too many edge sites for 32-bit edge indices");
    edge = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(EdgeRecord{static_cast<std::uint32_t>(firstLink),
                                static_cast<std::uint8_t>(numLinks),
                                static_cast<std::uint8_t>(touchesWall),
                                record.hasWallNormal, record.wallNormal});
  }
  building_[blockLinear(bc)].push_back(BuildSite{localLinear(in), pos, edge});
}

void SparseLattice::finalize() {
  HEMO_CHECK(!finalized_);
  std::vector<std::uint64_t> keys;
  keys.reserve(building_.size());
  std::size_t totalSites = 0;
  for (const auto& [key, sites] : building_) {
    keys.push_back(key);
    totalSites += sites.size();
  }
  std::sort(keys.begin(), keys.end());
  HEMO_CHECK_MSG(keys.size() <= static_cast<std::size_t>(
                                    std::numeric_limits<std::int32_t>::max()),
                 "too many non-empty blocks: " << keys.size());

  const std::size_t cube = blockVolume();
  blockIndex_.assign(static_cast<std::size_t>(blockDims_.x) *
                         static_cast<std::size_t>(blockDims_.y) *
                         static_cast<std::size_t>(blockDims_.z),
                     -1);
  localToGlobal_.assign(keys.size() * cube, -1);
  blocks_.reserve(keys.size());
  positions_.reserve(totalSites);
  edgeIndex_.reserve(totalSites);
  std::uint64_t nextId = 0;
  for (const auto key : keys) {
    auto& sites = building_.at(key);
    const std::size_t block = blocks_.size();
    std::int64_t* table = localToGlobal_.data() + block * cube;
    // Place by local index: the table first holds each site's index in
    // `sites` (a second claim on a slot is a duplicate), then, in ascending
    // local order, its global id.
    for (std::size_t i = 0; i < sites.size(); ++i) {
      auto& slot = table[static_cast<std::size_t>(sites[i].local)];
      HEMO_CHECK_MSG(slot < 0, "duplicate fluid site at " << sites[i].pos);
      slot = static_cast<std::int64_t>(i);
    }

    BlockInfo info;
    const auto bx = key % static_cast<std::uint64_t>(blockDims_.x);
    const auto rest = key / static_cast<std::uint64_t>(blockDims_.x);
    info.coord = {static_cast<int>(bx),
                  static_cast<int>(rest % static_cast<std::uint64_t>(blockDims_.y)),
                  static_cast<int>(rest / static_cast<std::uint64_t>(blockDims_.y))};
    info.fluidCount = static_cast<std::uint32_t>(sites.size());
    info.firstSiteId = nextId;

    for (std::size_t local = 0; local < cube; ++local) {
      if (table[local] < 0) continue;
      const auto& s = sites[static_cast<std::size_t>(table[local])];
      table[local] = static_cast<std::int64_t>(nextId++);
      positions_.push_back(s.pos);
      edgeIndex_.push_back(s.edge);
      fluidBounds_.expand(s.pos);
    }
    blockIndex_[static_cast<std::size_t>(key)] =
        static_cast<std::int32_t>(block);
    blocks_.push_back(info);
    std::vector<BuildSite>().swap(sites);  // free the build copy as we go
  }
  building_.clear();
  edges_.shrink_to_fit();
  cutLinks_.shrink_to_fit();
  finalized_ = true;
}

SiteRecord SparseLattice::site(std::uint64_t id) const {
  SiteRecord rec;
  const EdgeRecord* e = edgeOf(id);
  if (e == nullptr) return rec;
  for (std::uint32_t i = 0; i < e->numLinks; ++i) {
    const CutLink& c = cutLinks_[e->firstLink + i];
    rec.links[c.direction] = LinkInfo{c.kind, c.wallDistance, c.ioletId};
  }
  rec.wallNormal = e->wallNormal;
  rec.hasWallNormal = e->hasWallNormal;
  return rec;
}

LinkInfo SparseLattice::link(std::uint64_t id, int direction) const {
  const EdgeRecord* e = edgeOf(id);
  if (e == nullptr) return {};
  for (std::uint32_t i = 0; i < e->numLinks; ++i) {
    const CutLink& c = cutLinks_[e->firstLink + i];
    if (c.direction == direction) {
      return LinkInfo{c.kind, c.wallDistance, c.ioletId};
    }
  }
  return {};
}

std::size_t SparseLattice::storageBytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(blockIndex_) + bytes(localToGlobal_) + bytes(blocks_) +
         bytes(positions_) + bytes(edgeIndex_) + bytes(edges_) +
         bytes(cutLinks_) + bytes(iolets_);
}

std::size_t SparseLattice::blockOfSite(std::uint64_t id) const {
  HEMO_CHECK(finalized_ && id < numFluidSites());
  // blocks_ is sorted by firstSiteId; binary-search the containing block.
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), id,
      [](std::uint64_t v, const BlockInfo& b) { return v < b.firstSiteId; });
  HEMO_CHECK(it != blocks_.begin());
  return static_cast<std::size_t>(std::distance(blocks_.begin(), it) - 1);
}

}  // namespace hemo::geometry
