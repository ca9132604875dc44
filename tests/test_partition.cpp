// Tests for the decomposition substrate: graph construction, all five
// partitioners (validity + balance + edge-cut sanity), metrics and the
// diffusive repartitioner.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "partition/graph.hpp"
#include "partition/metrics.hpp"
#include "partition/partitioners.hpp"
#include "partition/repartition.hpp"
#include "util/stats.hpp"

namespace hemo::partition {
namespace {

geometry::SparseLattice makeTestLattice() {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  return geometry::voxelize(geometry::makeAneurysmVessel(6.0, 1.0, 1.0), opt);
}

class PartitionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lattice_ = new geometry::SparseLattice(makeTestLattice());
    graph_ = new SiteGraph(buildSiteGraph(*lattice_));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete lattice_;
    graph_ = nullptr;
    lattice_ = nullptr;
  }
  static geometry::SparseLattice* lattice_;
  static SiteGraph* graph_;
};

geometry::SparseLattice* PartitionFixture::lattice_ = nullptr;
SiteGraph* PartitionFixture::graph_ = nullptr;

TEST_F(PartitionFixture, GraphIsSymmetricAndLoopFree) {
  const auto& g = *graph_;
  ASSERT_EQ(g.xadj.size(), g.numVertices + 1);
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const auto u = g.adjncy[e];
      EXPECT_NE(u, v);  // no self loops
      // Symmetric: u lists v.
      bool found = false;
      for (std::uint64_t e2 = g.xadj[u]; e2 < g.xadj[u + 1]; ++e2) {
        if (g.adjncy[e2] == v) {
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "edge " << v << "->" << u << " not symmetric";
      if (v > 100) break;  // full check on a prefix keeps the test fast
    }
    if (v > 100) break;
  }
}

TEST_F(PartitionFixture, GraphDegreesAreLatticeLike) {
  const auto& g = *graph_;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    EXPECT_LE(g.degree(v), 26u);
    EXPECT_GE(g.degree(v), 1u);
  }
  EXPECT_DOUBLE_EQ(g.totalWeight(), static_cast<double>(g.numVertices));
}

struct PartitionerCase {
  const char* name;
  int parts;
};

class AllPartitionersTest
    : public PartitionFixture,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(AllPartitionersTest, ValidBalancedCover) {
  const auto [which, parts] = GetParam();
  const auto all = makeAllPartitioners(*lattice_);
  const auto& partitioner = *all[static_cast<std::size_t>(which)];
  const auto p = partitioner.partition(*graph_, parts);

  ASSERT_EQ(p.numParts, parts);
  ASSERT_EQ(p.partOfSite.size(), graph_->numVertices);
  // Every site assigned exactly one valid part; every part non-empty.
  std::vector<std::uint64_t> count(static_cast<std::size_t>(parts), 0);
  for (const int q : p.partOfSite) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, parts);
    ++count[static_cast<std::size_t>(q)];
  }
  for (int q = 0; q < parts; ++q) {
    EXPECT_GT(count[static_cast<std::size_t>(q)], 0u)
        << partitioner.name() << " left part " << q << " empty";
  }
  const auto m = evaluatePartition(*graph_, p);
  // Block granularity is the loosest (a single 8³ block can exceed the
  // ideal share at high part counts on this small lattice); everything
  // else should be tight.
  const double bound = (which == 0) ? 3.2 : 1.35;
  EXPECT_LT(m.imbalance, bound) << partitioner.name();
  EXPECT_GT(m.edgeCut, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPartitionersTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(2, 3, 4, 8, 16)));

TEST_F(PartitionFixture, SinglePartIsTrivial) {
  for (const auto& partitioner : makeAllPartitioners(*lattice_)) {
    const auto p = partitioner->partition(*graph_, 1);
    const auto m = evaluatePartition(*graph_, p);
    EXPECT_EQ(m.edgeCut, 0u) << partitioner->name();
    EXPECT_EQ(m.boundaryVertices, 0u);
    EXPECT_DOUBLE_EQ(m.imbalance, 1.0);
  }
}

TEST_F(PartitionFixture, KWayBeatsNaiveSplitOnEdgeCut) {
  // The multilevel partitioner should cut fewer edges than the coarse
  // block scan — that is why HemeLB calls ParMETIS at all.
  MultilevelKWayPartitioner kway;
  BlockPartitioner block(*lattice_);
  const auto mk = evaluatePartition(*graph_, kway.partition(*graph_, 8));
  const auto mb = evaluatePartition(*graph_, block.partition(*graph_, 8));
  EXPECT_LT(mk.edgeCut, mb.edgeCut);
}

TEST_F(PartitionFixture, KWayIsDeterministic) {
  MultilevelKWayPartitioner a, b;
  const auto pa = a.partition(*graph_, 4);
  const auto pb = b.partition(*graph_, 4);
  EXPECT_EQ(pa.partOfSite, pb.partOfSite);
}

/// FNV-1a over the part of every site, in site order.
std::uint64_t partitionDigest(const Partition& p) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const int part : p.partOfSite) {
    const auto u = static_cast<std::uint32_t>(part);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST_F(PartitionFixture, KWayPartitionIsBitIdentical) {
  // Golden digests of the fixture partitions: speed work on the
  // partitioners must not change which site lands on which part.
  const std::pair<int, std::uint64_t> kway[] = {
      {2, 0xc3e719cd949e4385ULL},
      {3, 0xc253353ec67b5f24ULL},
      {4, 0xba66ce9c6ca11f84ULL},
      {7, 0x1fe7ed714276df80ULL},
      {8, 0x9e0a02d49065f895ULL}};
  MultilevelKWayPartitioner partitioner;
  for (const auto& [parts, digest] : kway) {
    EXPECT_EQ(partitionDigest(partitioner.partition(*graph_, parts)), digest)
        << "kway, " << parts << " parts";
  }
  // Non-unit vertex weights (vis-aware balance) go through the coarse
  // vertex-weight sums.
  SiteGraph weighted = *graph_;
  for (std::uint64_t v = 0; v < weighted.numVertices; ++v) {
    weighted.vertexWeight[v] = 1.0 + 0.125 * static_cast<double>(v % 7);
  }
  EXPECT_EQ(partitionDigest(partitioner.partition(weighted, 4)),
            0xe8624158ccf40324ULL)
      << "kway, weighted, 4 parts";
  // A finer lattice (~43k sites), large enough that the site graph and the
  // first coarse levels are built on several threads.
  geometry::VoxelizeOptions fine;
  fine.voxelSize = 0.08;
  const SiteGraph big = buildSiteGraph(geometry::voxelize(
      geometry::makeAneurysmVessel(6.0, 1.0, 1.0), fine));
  EXPECT_EQ(partitionDigest(partitioner.partition(big, 4)),
            0x01a77ae0d02c7104ULL)
      << "kway, fine lattice, 4 parts";
  GreedyGrowingPartitioner greedy;
  EXPECT_EQ(partitionDigest(greedy.partition(*graph_, 4)),
            0x555bb08b81c66645ULL)
      << "greedy, 4 parts";
}

TEST_F(PartitionFixture, RcbRespectsGeometry) {
  RcbPartitioner rcb;
  const auto p = rcb.partition(*graph_, 2);
  // With 2 parts, RCB must split along the longest axis (x for the tube):
  // part of a site is monotone in x except at the single cut plane.
  int crossings = 0;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    for (std::uint64_t e = graph_->xadj[v]; e < graph_->xadj[v + 1]; ++e) {
      const auto u = graph_->adjncy[e];
      if (u > v && p.partOfSite[v] != p.partOfSite[u]) {
        ++crossings;
      }
    }
  }
  // The cut surface should be roughly one tube cross-section of links, far
  // smaller than the total edge count.
  EXPECT_LT(crossings * 20, static_cast<int>(graph_->adjncy.size() / 2));
}

TEST_F(PartitionFixture, MetricsCommVolumeAtLeastBoundary) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 8);
  const auto m = evaluatePartition(*graph_, p);
  EXPECT_GE(m.commVolume, m.boundaryVertices);
  EXPECT_GE(m.avgNeighborParts, 1.0);
  EXPECT_LE(m.avgNeighborParts, 7.0);
}

TEST_F(PartitionFixture, WeightedPartitionBalancesWeight) {
  // Double the weight of sites in the aneurysm half; the partitioner must
  // balance *weight*, not site count.
  SiteGraph g = *graph_;
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    if (g.coords[v].x > midX) g.vertexWeight[v] = 3.0;
  }
  SfcPartitioner sfc;
  const auto p = sfc.partition(g, 4);
  const auto loads = p.partLoads(g);
  EXPECT_LT(imbalanceFactor(loads), 1.2);
  // Site *counts* must now be skewed.
  std::vector<double> siteCounts(4, 0.0);
  for (const int q : p.partOfSite) siteCounts[static_cast<std::size_t>(q)] += 1;
  EXPECT_GT(imbalanceFactor(siteCounts), 1.2);
}

TEST_F(PartitionFixture, RebalanceReducesMeasuredImbalance) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  // Simulate a measured per-site cost where one region got expensive (e.g.
  // in situ vis concentrated in the aneurysm).
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 4.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  EXPECT_GT(r.imbalanceBefore, 1.3);
  EXPECT_LT(r.imbalanceAfter, r.imbalanceBefore);
  EXPECT_LT(r.imbalanceAfter, 1.25);
  EXPECT_GT(r.sitesMoved, 0u);
  // Validity preserved.
  std::vector<std::uint64_t> count(4, 0);
  for (const int q : r.partition.partOfSite) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, 4);
    ++count[static_cast<std::size_t>(q)];
  }
  for (const auto c : count) EXPECT_GT(c, 0u);
}

TEST_F(PartitionFixture, RebalanceNoopWhenBalanced) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  RepartitionOptions opt;
  opt.targetImbalance = 1.10;
  const auto r = rebalance(*graph_, p, cost, opt);
  if (r.imbalanceBefore <= opt.targetImbalance) {
    EXPECT_EQ(r.sitesMoved, 0u);
  }
  EXPECT_LE(r.imbalanceAfter, r.imbalanceBefore + 1e-12);
}

// --- Repartitioner regression/property tests on a hand-built grid graph ---

/// W x H grid with 8-neighbourhood links (a 2-D slice of the lattice
/// adjacency) — small enough to reason about boundary shapes exactly.
SiteGraph makeGridGraph(int w, int h) {
  SiteGraph g;
  g.numVertices = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
  g.xadj.push_back(0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = x + dx;
          const int ny = y + dy;
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          g.adjncy.push_back(static_cast<std::uint64_t>(ny) * w + nx);
        }
      }
      g.xadj.push_back(g.adjncy.size());
      g.vertexWeight.push_back(1.0);
      g.coords.push_back({x, y, 0});
    }
  }
  return g;
}

/// Number of connected components of the subgraph induced by part `p`.
int partComponents(const SiteGraph& g, const std::vector<int>& partOf, int p) {
  std::vector<char> seen(g.numVertices, 0);
  int comps = 0;
  for (std::uint64_t s = 0; s < g.numVertices; ++s) {
    if (partOf[s] != p || seen[s]) continue;
    ++comps;
    std::vector<std::uint64_t> stack{s};
    seen[s] = 1;
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const auto u = g.adjncy[e];
        if (partOf[u] == p && !seen[u]) {
          seen[u] = 1;
          stack.push_back(u);
        }
      }
    }
  }
  return comps;
}

/// Sites with no same-part neighbour (in a part of size > 1).
int singleSiteIslands(const SiteGraph& g, const std::vector<int>& partOf,
                      int numParts) {
  std::vector<std::uint64_t> count(static_cast<std::size_t>(numParts), 0);
  for (const int p : partOf) ++count[static_cast<std::size_t>(p)];
  int islands = 0;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    if (count[static_cast<std::size_t>(partOf[v])] <= 1) continue;
    bool hasFriend = false;
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      if (partOf[g.adjncy[e]] == partOf[v]) {
        hasFriend = true;
        break;
      }
    }
    if (!hasFriend) ++islands;
  }
  return islands;
}

// Regression for the boundary-shred guard: this exact configuration (4x5
// grid, three vertical strips, measured costs below) fragments under the
// pre-fix diffusion — which picked the least-loaded *adjacent* part with no
// regard for connectivity, detaching a single-site island and splitting a
// part into two components. With the guard (receiver must touch the site
// with at least as many links as any other foreign part) every part stays
// connected.
TEST(RebalanceGuard, PreventsBoundaryFragmentation) {
  const int w = 4;
  const int h = 5;
  const SiteGraph g = makeGridGraph(w, h);
  Partition start;
  start.numParts = 3;
  start.partOfSite = {0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2,
                      0, 0, 1, 2, 0, 0, 1, 2};
  const std::vector<double> cost = {22.8, 12.0, 25.5, 11.0, 19.2, 12.0, 27.0,
                                    14.0, 14.4, 14.4, 22.5, 16.0, 15.6, 22.8,
                                    15.0, 14.0, 14.4, 21.6, 19.5, 13.0};
  const auto r = rebalance(g, start, cost);
  EXPECT_LT(r.imbalanceAfter, r.imbalanceBefore);
  for (int p = 0; p < start.numParts; ++p) {
    EXPECT_LE(partComponents(g, r.partition.partOfSite, p), 1)
        << "part " << p << " fragmented";
  }
  EXPECT_EQ(singleSiteIslands(g, r.partition.partOfSite, start.numParts), 0);
}

TEST_F(PartitionFixture, RebalanceCountsDistinctMigratedSites) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 6.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  // sitesMoved is the *distinct* migration volume: exactly the sites whose
  // final owner differs from their starting owner, never more than the
  // lattice holds.
  std::uint64_t distinct = 0;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (r.partition.partOfSite[v] != p.partOfSite[v]) ++distinct;
  }
  EXPECT_EQ(r.sitesMoved, distinct);
  EXPECT_LE(r.sitesMoved, graph_->numVertices);
  EXPECT_GT(r.sitesMoved, 0u);
}

TEST_F(PartitionFixture, RebalanceImbalanceMonotonePerPass) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 8.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  ASSERT_EQ(static_cast<int>(r.passImbalance.size()), r.passesUsed);
  ASSERT_GT(r.passesUsed, 0);
  // Every accepted move is strictly downhill, so the measured imbalance
  // never rises between passes and ends exactly at imbalanceAfter.
  double prev = r.imbalanceBefore;
  for (const double f : r.passImbalance) {
    EXPECT_LE(f, prev + 1e-12);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(r.passImbalance.back(), r.imbalanceAfter);
}

TEST_F(PartitionFixture, RebalanceRepeatedCallsDoNotStall) {
  // Satellite check for the (proven-invariant) pass-loop mean: feeding the
  // result of one rebalance into the next with *updated* measured costs must
  // keep improving the measured imbalance, not stall above target.
  MultilevelKWayPartitioner kway;
  auto current = kway.partition(*graph_, 4);
  const int midX = lattice_->dims().x / 2;
  auto costWith = [&](double hot) {
    std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices),
                             1.0);
    for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
      if (graph_->coords[v].x > midX) cost[v] = hot;
    }
    return cost;
  };
  RepartitionOptions opt;
  opt.maxPasses = 8;  // deliberately too few to converge in one call
  const auto first = rebalance(*graph_, current, costWith(6.0), opt);
  // Costs drift between windows (the hot region cooled a little).
  const auto second =
      rebalance(*graph_, first.partition, costWith(5.0), opt);
  EXPECT_LT(second.imbalanceAfter, second.imbalanceBefore + 1e-12);
  const auto third =
      rebalance(*graph_, second.partition, costWith(5.0), opt);
  EXPECT_LE(third.imbalanceAfter, second.imbalanceAfter + 1e-12);
}

TEST_F(PartitionFixture, RebalanceMovesScaleWithImbalance) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  auto costWith = [&](double hot) {
    std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices),
                             1.0);
    const int midX = lattice_->dims().x / 2;
    for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
      if (graph_->coords[v].x > midX) cost[v] = hot;
    }
    return cost;
  };
  const auto mild = rebalance(*graph_, p, costWith(1.5));
  const auto severe = rebalance(*graph_, p, costWith(8.0));
  EXPECT_LT(mild.sitesMoved, severe.sitesMoved);
}

}  // namespace
}  // namespace hemo::partition
