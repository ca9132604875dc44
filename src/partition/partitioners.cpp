#include "partition/partitioners.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/bbox.hpp"
#include "util/check.hpp"
#include "util/hilbert.hpp"
#include "util/morton.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hemo::partition {

namespace {

/// Split the ordered index sequence into numParts weight-balanced contiguous
/// runs; the target for each part is recomputed on the remaining weight so
/// rounding error does not starve the last parts.
void assignContiguousByWeight(const std::vector<std::uint64_t>& order,
                              const SiteGraph& graph, int numParts,
                              std::vector<int>& partOf) {
  double remaining = 0.0;
  for (const auto v : order) {
    remaining += graph.vertexWeight[static_cast<std::size_t>(v)];
  }
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  for (const auto v : order) {
    partOf[static_cast<std::size_t>(v)] = part;
    const double w = graph.vertexWeight[static_cast<std::size_t>(v)];
    inPart += w;
    remaining -= w;
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
  }
}

/// Greedy graph growing over a CSR graph (SiteGraph or the coarsest k-way
/// level): parts are grown one at a time by BFS from the lowest-id
/// unassigned vertex until each reaches its share of the remaining weight.
template <typename Graph>
std::vector<int> greedyGrow(const Graph& g, int numParts) {
  const std::size_t n = g.vertexWeight.size();
  std::vector<int> partOf(n, -1);
  double remaining = 0.0;
  for (const double w : g.vertexWeight) remaining += w;
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  std::queue<std::uint64_t> frontier;
  std::size_t seedScan = 0;
  std::size_t assigned = 0;
  auto assign = [&](std::uint64_t v) {
    partOf[static_cast<std::size_t>(v)] = part;
    const double w = g.vertexWeight[static_cast<std::size_t>(v)];
    inPart += w;
    remaining -= w;
    for (std::uint64_t e = g.xadj[static_cast<std::size_t>(v)];
         e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto u = g.adjncy[static_cast<std::size_t>(e)];
      if (partOf[static_cast<std::size_t>(u)] < 0) frontier.push(u);
    }
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
    ++assigned;
  };
  while (assigned < n) {
    if (frontier.empty()) {
      // Seed (or re-seed after a disconnected component) from the lowest
      // unassigned id, as HemeLB's basic growing decomposition does.
      while (partOf[seedScan] >= 0) ++seedScan;
      assign(seedScan);
      continue;
    }
    const auto v = frontier.front();
    frontier.pop();
    if (partOf[static_cast<std::size_t>(v)] < 0) assign(v);
  }
  return partOf;
}

}  // namespace

// --- BlockPartitioner -------------------------------------------------------

Partition BlockPartitioner::partition(const SiteGraph& graph,
                                      int numParts) const {
  HEMO_CHECK(graph.numVertices == lattice_.numFluidSites());
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);

  // Greedy contiguous scan over the coarse block table, by fluid volume —
  // identical logic to the parallel reader's initial distribution.
  const auto& blocks = lattice_.blocks();
  HEMO_CHECK_MSG(blocks.size() >= static_cast<std::size_t>(numParts),
                 "fewer non-empty blocks than parts");
  std::uint64_t remaining = graph.numVertices;
  int part = 0;
  std::uint64_t inPart = 0;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const auto& b = blocks[bi];
    const int partsLeft = numParts - part;
    const std::uint64_t target =
        (remaining + static_cast<std::uint64_t>(partsLeft) - 1) /
        static_cast<std::uint64_t>(partsLeft);
    for (std::uint64_t id = b.firstSiteId; id < b.firstSiteId + b.fluidCount;
         ++id) {
      p.partOfSite[static_cast<std::size_t>(id)] = part;
    }
    inPart += b.fluidCount;
    remaining -= b.fluidCount;
    const std::size_t blocksLeft = blocks.size() - bi - 1;
    // Close the part when it reached its share — or when the remaining
    // blocks are only just enough to keep every later part non-empty.
    if (part + 1 < numParts &&
        (inPart >= target ||
         blocksLeft <= static_cast<std::size_t>(numParts - part - 1))) {
      ++part;
      inPart = 0;
    }
  }
  return p;
}

// --- SfcPartitioner ----------------------------------------------------------

Partition SfcPartitioner::partition(const SiteGraph& graph,
                                    int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  std::vector<std::uint64_t> order(static_cast<std::size_t>(graph.numVertices));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return morton3(graph.coords[static_cast<std::size_t>(a)]) <
                     morton3(graph.coords[static_cast<std::size_t>(b)]);
            });
  assignContiguousByWeight(order, graph, numParts, p.partOfSite);
  return p;
}

// --- HilbertPartitioner -------------------------------------------------------

Partition HilbertPartitioner::partition(const SiteGraph& graph,
                                        int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  // Enough bits to cover the largest coordinate.
  int maxCoord = 1;
  for (const auto& c : graph.coords) {
    maxCoord = std::max({maxCoord, c.x, c.y, c.z});
  }
  int bits = 1;
  while ((1 << bits) <= maxCoord) ++bits;
  std::vector<std::uint64_t> order(static_cast<std::size_t>(graph.numVertices));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return hilbert3(graph.coords[static_cast<std::size_t>(a)], bits) <
                     hilbert3(graph.coords[static_cast<std::size_t>(b)], bits);
            });
  assignContiguousByWeight(order, graph, numParts, p.partOfSite);
  return p;
}

// --- RcbPartitioner ----------------------------------------------------------

namespace {

void rcbRecurse(std::vector<std::uint64_t>& idx, std::size_t lo,
                std::size_t hi, int firstPart, int numParts,
                const SiteGraph& graph, std::vector<int>& partOf) {
  if (numParts == 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      partOf[static_cast<std::size_t>(idx[i])] = firstPart;
    }
    return;
  }
  // Widest axis of the enclosed coordinates.
  BoxI box = BoxI::empty();
  for (std::size_t i = lo; i < hi; ++i) {
    box.expand(graph.coords[static_cast<std::size_t>(idx[i])]);
  }
  const Vec3i ext = box.extent();
  const int axis = (ext.x >= ext.y && ext.x >= ext.z) ? 0
                   : (ext.y >= ext.z)                 ? 1
                                                      : 2;
  std::sort(idx.begin() + static_cast<std::ptrdiff_t>(lo),
            idx.begin() + static_cast<std::ptrdiff_t>(hi),
            [&](std::uint64_t a, std::uint64_t b) {
              return graph.coords[static_cast<std::size_t>(a)][axis] <
                     graph.coords[static_cast<std::size_t>(b)][axis];
            });
  // Weighted split proportional to the sub-part counts.
  const int leftParts = numParts / 2;
  double total = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    total += graph.vertexWeight[static_cast<std::size_t>(idx[i])];
  }
  const double want = total * leftParts / numParts;
  double acc = 0.0;
  std::size_t cut = lo;
  while (cut < hi && acc < want) {
    acc += graph.vertexWeight[static_cast<std::size_t>(idx[cut])];
    ++cut;
  }
  // Keep both halves non-empty.
  cut = std::clamp(cut, lo + 1, hi - 1);
  rcbRecurse(idx, lo, cut, firstPart, leftParts, graph, partOf);
  rcbRecurse(idx, cut, hi, firstPart + leftParts, numParts - leftParts, graph,
             partOf);
}

}  // namespace

Partition RcbPartitioner::partition(const SiteGraph& graph,
                                    int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  std::vector<std::uint64_t> idx(static_cast<std::size_t>(graph.numVertices));
  std::iota(idx.begin(), idx.end(), 0);
  HEMO_CHECK(graph.numVertices >= static_cast<std::uint64_t>(numParts));
  rcbRecurse(idx, 0, idx.size(), 0, numParts, graph, p.partOfSite);
  return p;
}

// --- GreedyGrowingPartitioner ------------------------------------------------

Partition GreedyGrowingPartitioner::partition(const SiteGraph& graph,
                                              int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite = greedyGrow(graph, numParts);
  return p;
}

// --- MultilevelKWayPartitioner ----------------------------------------------

namespace {

/// A coarse level: the contracted graph with merged edge weights. The
/// finest level is the SiteGraph itself, whose edges all weigh 1.
struct WGraph {
  std::vector<std::uint64_t> xadj;
  std::vector<std::uint64_t> adjncy;
  std::vector<double> edgeWeight;
  std::vector<double> vertexWeight;
};

std::uint64_t numVerticesOf(const SiteGraph& g) { return g.numVertices; }
std::uint64_t numVerticesOf(const WGraph& g) { return g.xadj.size() - 1; }
double edgeWeightOf(const SiteGraph&, std::size_t) { return 1.0; }
double edgeWeightOf(const WGraph& g, std::size_t e) { return g.edgeWeight[e]; }

/// A heavy-edge matching of one level: each coarse vertex is a matched pair
/// of fine vertices, or one fine vertex left unmatched.
struct Matching {
  /// Fine vertex -> coarse vertex.
  std::vector<std::uint64_t> coarseOf;
  /// Fine vertex -> the fine vertex it is matched with (itself if none).
  std::vector<std::uint64_t> partner;
  std::uint64_t coarseCount = 0;
};

/// Heavy-edge matching in a seeded random visit order; coarse ids follow
/// that order.
template <typename Graph>
Matching heavyEdgeMatch(const Graph& g, Rng& rng) {
  const auto n = numVerticesOf(g);
  std::vector<std::uint64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniformInt(i)]);
  }
  constexpr std::uint64_t kUnmatched = ~0ULL;
  Matching m;
  auto& match = m.partner;
  match.assign(static_cast<std::size_t>(n), kUnmatched);
  m.coarseOf.resize(static_cast<std::size_t>(n));
  for (const auto v : order) {
    if (match[static_cast<std::size_t>(v)] != kUnmatched) continue;
    std::uint64_t best = v;
    double bestW = -1.0;
    for (std::uint64_t e = g.xadj[static_cast<std::size_t>(v)];
         e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto u = g.adjncy[static_cast<std::size_t>(e)];
      const double w = edgeWeightOf(g, static_cast<std::size_t>(e));
      if (u != v && match[static_cast<std::size_t>(u)] == kUnmatched &&
          w > bestW) {
        bestW = w;
        best = u;
      }
    }
    match[static_cast<std::size_t>(v)] = best;
    match[static_cast<std::size_t>(best)] = v;
    m.coarseOf[static_cast<std::size_t>(v)] = m.coarseCount;
    m.coarseOf[static_cast<std::size_t>(best)] = m.coarseCount;
    ++m.coarseCount;
  }
  return m;
}

/// Contract a matching into the coarse graph, written straight into CSR.
/// Coarse rows are independent, so they are built in parallel in two passes:
/// the first counts each row's distinct coarse neighbours and a prefix sum
/// turns the counts into xadj, the second fills each row in place, parallel
/// edges merged and sorted by coarse id. Each row is built by the thread
/// that owns its lower fine member, so the threads walk the fine graph in
/// id order. Edge weights start at 1 and only ever add, so every coarse
/// weight is an integer held exactly and the merge order cannot change it:
/// the coarse graph does not depend on the thread count.
template <typename Graph>
WGraph buildCoarse(const Graph& fine, const Matching& m) {
  const auto n = static_cast<std::size_t>(m.coarseCount);
  WGraph c;
  c.vertexWeight.resize(n);
  c.xadj.assign(n + 1, 0);

  // Calls rowFn(cv, v, partner, row) for every coarse row cv whose lower
  // fine member v lies in a chunk of the fine ids, with the row's merged
  // (coarse neighbour, weight) entries in first-seen order. slotOf[cu] is
  // cu's index in `row` while cu is in the current row; a stale index from
  // an earlier row fails the row[s] check, so the table never needs clearing.
  auto forEachRow = [&](auto&& rowFn) {
    parallelFor(numVerticesOf(fine), [&](std::uint64_t begin,
                                         std::uint64_t end) {
      std::vector<std::uint32_t> slotOf(n, 0);
      std::vector<std::pair<std::uint64_t, double>> row;
      auto gather = [&](std::size_t f, std::uint64_t cv) {
        for (auto e = static_cast<std::size_t>(fine.xadj[f]);
             e < fine.xadj[f + 1]; ++e) {
          const auto cu = m.coarseOf[static_cast<std::size_t>(fine.adjncy[e])];
          if (cu == cv) continue;
          const double w = edgeWeightOf(fine, e);
          const auto s = slotOf[static_cast<std::size_t>(cu)];
          if (s < row.size() && row[s].first == cu) {
            row[s].second += w;
          } else {
            slotOf[static_cast<std::size_t>(cu)] =
                static_cast<std::uint32_t>(row.size());
            row.emplace_back(cu, w);
          }
        }
      };
      for (auto v = static_cast<std::size_t>(begin); v < end; ++v) {
        const auto partner = static_cast<std::size_t>(m.partner[v]);
        if (partner < v) continue;
        const auto cv = m.coarseOf[v];
        row.clear();
        gather(v, cv);
        if (partner != v) gather(partner, cv);
        rowFn(static_cast<std::size_t>(cv), v, partner, row);
      }
    });
  };

  forEachRow([&](std::size_t cv, std::size_t v, std::size_t partner,
                 const auto& row) {
    c.vertexWeight[cv] = fine.vertexWeight[v];
    if (partner != v) c.vertexWeight[cv] += fine.vertexWeight[partner];
    c.xadj[cv + 1] = row.size();
  });
  std::partial_sum(c.xadj.begin(), c.xadj.end(), c.xadj.begin());
  c.adjncy.resize(static_cast<std::size_t>(c.xadj[n]));
  c.edgeWeight.resize(static_cast<std::size_t>(c.xadj[n]));
  forEachRow([&](std::size_t cv, std::size_t, std::size_t, auto& row) {
    std::sort(row.begin(), row.end());
    auto out = static_cast<std::size_t>(c.xadj[cv]);
    for (const auto& [cu, w] : row) {
      c.adjncy[out] = cu;
      c.edgeWeight[out] = w;
      ++out;
    }
  });
  return c;
}

/// Boundary KL/FM-style refinement sweeps; improves edge cut under a
/// balance constraint and never empties a part.
template <typename Graph>
void refine(const Graph& g, std::vector<int>& partOf, int numParts,
            double tolerance, int passes) {
  const auto n = numVerticesOf(g);
  std::vector<double> loads(static_cast<std::size_t>(numParts), 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(numParts), 0);
  double total = 0.0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto p = static_cast<std::size_t>(partOf[static_cast<std::size_t>(v)]);
    loads[p] += g.vertexWeight[static_cast<std::size_t>(v)];
    counts[p] += 1;
    total += g.vertexWeight[static_cast<std::size_t>(v)];
  }
  const double maxLoad = tolerance * total / numParts;

  std::vector<double> connect(static_cast<std::size_t>(numParts), 0.0);
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (std::uint64_t v = 0; v < n; ++v) {
      const int own = partOf[static_cast<std::size_t>(v)];
      if (counts[static_cast<std::size_t>(own)] <= 1) continue;
      const auto first =
          static_cast<std::size_t>(g.xadj[static_cast<std::size_t>(v)]);
      const auto last =
          static_cast<std::size_t>(g.xadj[static_cast<std::size_t>(v) + 1]);
      // Interior vertices (every neighbour in the own part) cannot move.
      bool boundary = false;
      for (std::size_t e = first; e < last && !boundary; ++e) {
        boundary = partOf[static_cast<std::size_t>(g.adjncy[e])] != own;
      }
      if (!boundary) continue;
      std::fill(connect.begin(), connect.end(), 0.0);
      for (std::size_t e = first; e < last; ++e) {
        connect[static_cast<std::size_t>(
            partOf[static_cast<std::size_t>(g.adjncy[e])])] +=
            edgeWeightOf(g, e);
      }
      const double w = g.vertexWeight[static_cast<std::size_t>(v)];
      int bestPart = own;
      double bestGain = 0.0;
      for (int q = 0; q < numParts; ++q) {
        if (q == own || connect[static_cast<std::size_t>(q)] <= 0.0) continue;
        if (loads[static_cast<std::size_t>(q)] + w > maxLoad) continue;
        const double gain = connect[static_cast<std::size_t>(q)] -
                            connect[static_cast<std::size_t>(own)];
        const bool balanceWin = loads[static_cast<std::size_t>(own)] -
                                    loads[static_cast<std::size_t>(q)] >
                                w;
        if (gain > bestGain ||
            (gain == bestGain && bestPart == own && gain >= 0.0 &&
             balanceWin)) {
          bestGain = gain;
          bestPart = q;
        }
      }
      if (bestPart != own) {
        partOf[static_cast<std::size_t>(v)] = bestPart;
        loads[static_cast<std::size_t>(own)] -= w;
        loads[static_cast<std::size_t>(bestPart)] += w;
        counts[static_cast<std::size_t>(own)] -= 1;
        counts[static_cast<std::size_t>(bestPart)] += 1;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

Partition MultilevelKWayPartitioner::partition(const SiteGraph& graph,
                                               int numParts) const {
  HEMO_CHECK(graph.numVertices >= static_cast<std::uint64_t>(numParts));
  Partition result;
  result.numParts = numParts;

  // Coarsening chain. Level 0 is the site graph itself; level k > 0 is
  // coarse[k - 1], contracted from level k - 1 through coarseMaps[k - 1].
  std::vector<WGraph> coarse;
  std::vector<std::vector<std::uint64_t>> coarseMaps;
  auto onLevel = [&](std::size_t k, auto&& fn) {
    return k == 0 ? fn(graph) : fn(coarse[k - 1]);
  };
  Rng rng(options_.seed);
  const std::uint64_t coarseTarget =
      options_.coarsestVerticesPerPart * static_cast<std::uint64_t>(numParts);
  for (;;) {
    const std::size_t top = coarse.size();
    const auto n = onLevel(top, [](const auto& g) { return numVerticesOf(g); });
    if (n <= coarseTarget) break;
    Matching matching =
        onLevel(top, [&](const auto& g) { return heavyEdgeMatch(g, rng); });
    // Matching stalled (e.g. star graphs): stop coarsening.
    if (matching.coarseCount > n * 9 / 10) break;
    coarse.push_back(
        onLevel(top, [&](const auto& g) { return buildCoarse(g, matching); }));
    coarseMaps.push_back(std::move(matching.coarseOf));
  }

  // Initial partition on the coarsest graph, then uncoarsen + refine.
  std::size_t level = coarse.size();
  std::vector<int> partOf =
      onLevel(level, [&](const auto& g) { return greedyGrow(g, numParts); });
  for (;;) {
    onLevel(level, [&](const auto& g) {
      refine(g, partOf, numParts, options_.imbalanceTolerance,
             options_.refinementPasses);
    });
    if (level == 0) break;
    const auto& map = coarseMaps[--level];
    std::vector<int> finer(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) {
      finer[v] = partOf[static_cast<std::size_t>(map[v])];
    }
    partOf = std::move(finer);
  }
  result.partOfSite = std::move(partOf);
  return result;
}

std::vector<std::unique_ptr<Partitioner>> makeAllPartitioners(
    const geometry::SparseLattice& lattice) {
  std::vector<std::unique_ptr<Partitioner>> all;
  all.push_back(std::make_unique<BlockPartitioner>(lattice));
  all.push_back(std::make_unique<SfcPartitioner>());
  all.push_back(std::make_unique<HilbertPartitioner>());
  all.push_back(std::make_unique<RcbPartitioner>());
  all.push_back(std::make_unique<GreedyGrowingPartitioner>());
  all.push_back(std::make_unique<MultilevelKWayPartitioner>());
  return all;
}

}  // namespace hemo::partition
