#include "multires/octree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/stats.hpp"

namespace hemo::multires {

namespace {
/// Number of distinct values of keyAt(0 .. count-1), a sorted sequence.
template <typename KeyAt>
std::size_t countDistinct(std::size_t count, KeyAt keyAt) {
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i == 0 || keyAt(i) != keyAt(i - 1)) ++distinct;
  }
  return distinct;
}
}  // namespace

FieldOctree::FieldOctree(const lb::DomainMap& domain, int leafCellLog2)
    : domain_(&domain), leafCellLog2_(leafCellLog2) {
  HEMO_CHECK(leafCellLog2 >= 0);
  const auto& lat = domain.lattice();
  const Vec3i dims = lat.dims();
  const int maxDim = std::max({dims.x, dims.y, dims.z});
  maxLevelLog2_ = 0;
  while ((1 << maxLevelLog2_) < maxDim) ++maxLevelLog2_;
  const int numLevels = maxLevelLog2_ - leafCellLog2_ + 1;
  HEMO_CHECK_MSG(numLevels >= 1, "leaf cells coarser than the domain");
  levels_.resize(static_cast<std::size_t>(numLevels));

  // Sort the owned sites' leaf keys once; the distinct keys are the leaf
  // level, in key order.
  const auto n = domain.numOwned();
  const int leafShift = shiftForLevel(numLevels - 1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> leafKeys(
      static_cast<std::size_t>(n));
  for (std::uint32_t s = 0; s < n; ++s) {
    const Vec3i p = lat.sitePosition(domain.globalOf(s));
    leafKeys[s] = {
        morton3(Vec3i{p.x >> leafShift, p.y >> leafShift, p.z >> leafShift}),
        s};
  }
  std::sort(leafKeys.begin(), leafKeys.end());
  auto& leaves = levels_.back();
  leaves.reserve(countDistinct(leafKeys.size(), [&](std::size_t i) {
    return leafKeys[i].first;
  }));
  leafOfSite_.resize(static_cast<std::size_t>(n));
  for (const auto& [key, s] : leafKeys) {
    if (leaves.empty() || leaves.back().key != key) {
      leaves.emplace_back().key = key;
    }
    leafOfSite_[s] = static_cast<std::uint32_t>(leaves.size() - 1);
  }

  // Each coarser level is the distinct Morton parents of the level below.
  // A parent key is a shift of the child key, so parents of a sorted level
  // come out sorted, and one pass yields the nodes and the parent links.
  parentOf_.resize(levels_.size());
  for (int l = numLevels - 1; l >= 1; --l) {
    const auto& nodes = levels_[static_cast<std::size_t>(l)];
    auto& parents = levels_[static_cast<std::size_t>(l - 1)];
    auto& links = parentOf_[static_cast<std::size_t>(l)];
    links.resize(nodes.size());
    parents.reserve(countDistinct(nodes.size(), [&](std::size_t i) {
      return mortonParent(nodes[i].key);
    }));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto pkey = mortonParent(nodes[i].key);
      if (parents.empty() || parents.back().key != pkey) {
        parents.emplace_back().key = pkey;
      }
      links[i] = static_cast<std::uint32_t>(parents.size() - 1);
    }
  }
}

void FieldOctree::update(const std::vector<double>& scalar,
                         const std::vector<Vec3d>& velocity) {
  const auto n = domain_->numOwned();
  HEMO_CHECK(scalar.size() == n && velocity.size() == n);
  for (auto& nodes : levels_) {
    for (auto& node : nodes) {
      node.count = 0;
      node.meanScalar = 0.f;
      node.minScalar = std::numeric_limits<float>::max();
      node.maxScalar = std::numeric_limits<float>::lowest();
      node.meanVelocity = {0.f, 0.f, 0.f};
    }
  }
  // Accumulate sites into leaves (means kept as sums until the end).
  auto& leaves = levels_.back();
  for (std::uint32_t s = 0; s < n; ++s) {
    auto& node = leaves[static_cast<std::size_t>(leafOfSite_[s])];
    const auto v = static_cast<float>(scalar[s]);
    node.count += 1;
    node.meanScalar += v;
    node.minScalar = std::min(node.minScalar, v);
    node.maxScalar = std::max(node.maxScalar, v);
    node.meanVelocity += velocity[s].cast<float>();
  }
  // Propagate sums upward, then normalise every level.
  for (int l = numLevels() - 1; l >= 1; --l) {
    const auto& nodes = levels_[static_cast<std::size_t>(l)];
    auto& parents = levels_[static_cast<std::size_t>(l - 1)];
    const auto& links = parentOf_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      auto& parent = parents[static_cast<std::size_t>(links[i])];
      parent.count += nodes[i].count;
      parent.meanScalar += nodes[i].meanScalar;
      parent.minScalar = std::min(parent.minScalar, nodes[i].minScalar);
      parent.maxScalar = std::max(parent.maxScalar, nodes[i].maxScalar);
      parent.meanVelocity += nodes[i].meanVelocity;
    }
  }
  for (auto& nodes : levels_) {
    for (auto& node : nodes) {
      if (node.count > 0) {
        const float inv = 1.0f / static_cast<float>(node.count);
        node.meanScalar *= inv;
        node.meanVelocity *= inv;
      }
    }
  }
}

const OctreeNode* FieldOctree::find(int level, std::uint64_t key) const {
  const auto& nodes = levels_[static_cast<std::size_t>(level)];
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), key,
      [](const OctreeNode& a, std::uint64_t k) { return a.key < k; });
  if (it == nodes.end() || it->key != key) return nullptr;
  return &*it;
}

BoxI FieldOctree::cellBox(int level, std::uint64_t key) const {
  const int w = cellWidth(level);
  const Vec3i cell = mortonDecode3(key);
  return {cell * w, cell * w + Vec3i{w, w, w}};
}

std::vector<OctreeNode> FieldOctree::query(int level, const BoxI& roi) const {
  std::vector<OctreeNode> hits;
  for (const auto& node : levels_[static_cast<std::size_t>(level)]) {
    if (!cellBox(level, node.key).intersect(roi).isEmpty()) {
      hits.push_back(node);
    }
  }
  return hits;
}

std::vector<double> FieldOctree::reconstructScalar(int level) const {
  const auto n = domain_->numOwned();
  const int shift = shiftForLevel(level);
  const auto& lat = domain_->lattice();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    const Vec3i p = lat.sitePosition(domain_->globalOf(s));
    const auto key =
        morton3(Vec3i{p.x >> shift, p.y >> shift, p.z >> shift});
    const OctreeNode* node = find(level, key);
    HEMO_CHECK(node != nullptr);
    out[s] = node->meanScalar;
  }
  return out;
}

double levelError(const FieldOctree& tree, int level,
                  const std::vector<double>& scalar) {
  return relativeL2(tree.reconstructScalar(level), scalar);
}

NodeColumns splitColumns(const std::vector<OctreeNode>& nodes) {
  NodeColumns cols;
  const std::size_t n = nodes.size();
  cols.keys.reserve(n);
  cols.counts.reserve(n);
  cols.meanScalar.reserve(n);
  cols.minScalar.reserve(n);
  cols.maxScalar.reserve(n);
  cols.velocity.reserve(3 * n);
  for (const auto& node : nodes) {
    cols.keys.push_back(node.key);
    cols.counts.push_back(node.count);
    cols.meanScalar.push_back(node.meanScalar);
    cols.minScalar.push_back(node.minScalar);
    cols.maxScalar.push_back(node.maxScalar);
    cols.velocity.push_back(node.meanVelocity.x);
    cols.velocity.push_back(node.meanVelocity.y);
    cols.velocity.push_back(node.meanVelocity.z);
  }
  return cols;
}

std::vector<OctreeNode> mergeColumns(const NodeColumns& cols) {
  const std::size_t n = cols.keys.size();
  HEMO_CHECK(cols.counts.size() == n && cols.meanScalar.size() == n &&
             cols.minScalar.size() == n && cols.maxScalar.size() == n &&
             cols.velocity.size() == 3 * n);
  std::vector<OctreeNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].key = cols.keys[i];
    nodes[i].count = static_cast<std::uint32_t>(cols.counts[i]);
    nodes[i].meanScalar = cols.meanScalar[i];
    nodes[i].minScalar = cols.minScalar[i];
    nodes[i].maxScalar = cols.maxScalar[i];
    nodes[i].meanVelocity = {cols.velocity[3 * i], cols.velocity[3 * i + 1],
                             cols.velocity[3 * i + 2]};
  }
  return nodes;
}

}  // namespace hemo::multires
