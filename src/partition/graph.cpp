#include "partition/graph.hpp"

#include <numeric>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace hemo::partition {

SiteGraph buildSiteGraph(const geometry::SparseLattice& lattice) {
  HEMO_CHECK(lattice.finalized());
  SiteGraph g;
  g.numVertices = lattice.numFluidSites();
  HEMO_CHECK_MSG(g.numVertices < (std::uint64_t{1} << 32),
                 "site graph needs 32-bit vertex ids, lattice has "
                     << g.numVertices << " sites");
  const auto n = static_cast<std::size_t>(g.numVertices);
  g.xadj.assign(n + 1, 0);
  g.vertexWeight.assign(n, 1.0);
  g.coords.resize(n);

  // Two passes over contiguous site ranges: count each site's fluid
  // neighbours (a prefix sum turns the counts into xadj), then fill every
  // row in place, in direction order.
  parallelFor(n, [&](std::uint64_t begin, std::uint64_t end) {
    for (auto v = begin; v < end; ++v) {
      g.coords[static_cast<std::size_t>(v)] = lattice.sitePosition(v);
      std::uint64_t degree = 0;
      for (int d = 0; d < geometry::kNumDirections; ++d) {
        if (lattice.neighborId(v, d) >= 0) ++degree;
      }
      g.xadj[static_cast<std::size_t>(v) + 1] = degree;
    }
  });
  std::partial_sum(g.xadj.begin(), g.xadj.end(), g.xadj.begin());
  g.adjncy.resize(static_cast<std::size_t>(g.xadj[n]));
  parallelFor(n, [&](std::uint64_t begin, std::uint64_t end) {
    for (auto v = begin; v < end; ++v) {
      auto out = static_cast<std::size_t>(g.xadj[static_cast<std::size_t>(v)]);
      for (int d = 0; d < geometry::kNumDirections; ++d) {
        const auto u = lattice.neighborId(v, d);
        if (u >= 0) g.adjncy[out++] = static_cast<std::uint32_t>(u);
      }
    }
  });
  return g;
}

std::vector<double> Partition::partLoads(const SiteGraph& graph) const {
  HEMO_CHECK(partOfSite.size() == graph.numVertices);
  std::vector<double> loads(static_cast<std::size_t>(numParts), 0.0);
  for (std::size_t v = 0; v < partOfSite.size(); ++v) {
    HEMO_CHECK(partOfSite[v] >= 0 && partOfSite[v] < numParts);
    loads[static_cast<std::size_t>(partOfSite[v])] += graph.vertexWeight[v];
  }
  return loads;
}

}  // namespace hemo::partition
