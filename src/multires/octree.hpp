#pragma once
/// \file octree.hpp
/// \brief Multi-resolution field hierarchy (paper §V).
///
/// Simulation fields are cached in an octree whose level L cells are
/// 2^(maxLevel−L) voxels wide; level 0 is a single root cell. Nodes are
/// keyed by (level, Morton code) — the hierarchical indexing scheme of
/// Pascucci & Frank (paper ref [10]): parent/child moves are 3-bit shifts
/// and each level is a sorted key array, so lookup is a binary search and
/// range queries are contiguous scans.
///
/// Each rank builds the octree over its *owned* sites only; the structure
/// (which cells exist) is fixed after construction, while the aggregates
/// are refreshed in situ from the solver's macroscopic fields each time the
/// post-processing pipeline runs. Rank-local trees merge exactly across
/// ranks because all aggregates are weighted by fluid-site count.

#include <cstdint>
#include <vector>

#include "lb/domain_map.hpp"
#include "util/bbox.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/vec.hpp"

namespace hemo::multires {

/// Aggregates of one octree cell. Trivially copyable — nodes travel over
/// the wire during context gathering and ROI streaming.
struct OctreeNode {
  std::uint64_t key = 0;     ///< Morton code of the cell at its level
  std::uint32_t count = 0;   ///< fluid sites under the cell
  float meanScalar = 0.f;
  float minScalar = 0.f;
  float maxScalar = 0.f;
  Vec3f meanVelocity{0.f, 0.f, 0.f};
};

class FieldOctree {
 public:
  /// Build the structure over the sites owned by `domain`. `leafCellLog2`
  /// sets the leaf resolution: leaves are 2^leafCellLog2 voxels wide
  /// (0 = one node per site).
  explicit FieldOctree(const lb::DomainMap& domain, int leafCellLog2 = 0);

  /// Number of levels; level numLevels()-1 is the leaf level.
  int numLevels() const { return static_cast<int>(levels_.size()); }
  int leafLevel() const { return numLevels() - 1; }

  /// Cell width (in voxels) at a level: 2^(rootLog2 − level).
  int cellWidth(int level) const { return 1 << shiftForLevel(level); }

  /// Nodes of a level, ascending by key.
  const std::vector<OctreeNode>& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }

  /// Per owned site: index of its leaf node in the leaf level.
  const std::vector<std::uint32_t>& leafOfSite() const { return leafOfSite_; }

  /// For a level l > 0: index in level l-1 of each node's parent.
  const std::vector<std::uint32_t>& parentLinks(int l) const {
    return parentOf_[static_cast<std::size_t>(l)];
  }

  /// Refresh all aggregates from per-owned-site scalar + velocity fields.
  void update(const std::vector<double>& scalar,
              const std::vector<Vec3d>& velocity);

  /// Binary-search a node by key; nullptr if the cell has no fluid here.
  const OctreeNode* find(int level, std::uint64_t key) const;

  /// All nodes of `level` whose cells intersect the lattice box `roi`.
  std::vector<OctreeNode> query(int level, const BoxI& roi) const;

  /// Lattice-space box covered by a node.
  BoxI cellBox(int level, std::uint64_t key) const;

  /// Reconstruct the scalar field at `level`: each owned site gets its
  /// containing cell's mean. Used for level-error measurements.
  std::vector<double> reconstructScalar(int level) const;

  /// Bytes one level occupies (the §V data-reduction metric).
  std::uint64_t levelBytes(int l) const {
    return levels_[static_cast<std::size_t>(l)].size() * sizeof(OctreeNode);
  }

  const lb::DomainMap& domain() const { return *domain_; }

 private:
  int shiftForLevel(int level) const { return maxLevelLog2_ - level; }

  const lb::DomainMap* domain_;
  int leafCellLog2_;
  int maxLevelLog2_ = 0;  ///< log2 of the root cell width in voxels
  /// levels_[l] sorted by key.
  std::vector<std::vector<OctreeNode>> levels_;
  /// Per owned site: index of its leaf node in the leaf level.
  std::vector<std::uint32_t> leafOfSite_;
  /// For each level > 0: node index of each node's parent in level-1.
  std::vector<std::vector<std::uint32_t>> parentOf_;
};

/// Relative L2 error of the level-L reconstruction against the full field.
double levelError(const FieldOctree& tree, int level,
                  const std::vector<double>& scalar);

/// Structure-of-arrays split of a node vector for wire encoding: the keys
/// column delta+varint-compresses (Morton keys of one level are sorted and
/// close together) and the float columns quantise independently, which an
/// array-of-structs layout cannot do.
struct NodeColumns {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> counts;
  std::vector<float> meanScalar;
  std::vector<float> minScalar;
  std::vector<float> maxScalar;
  std::vector<float> velocity;  ///< xyz interleaved, 3 per node
};

NodeColumns splitColumns(const std::vector<OctreeNode>& nodes);
std::vector<OctreeNode> mergeColumns(const NodeColumns& cols);

}  // namespace hemo::multires
