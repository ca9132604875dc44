// Live repartitioning tests: the cross-rank site migration data plane
// (distribution repacking onto a rebuilt DomainMap), the driver's
// telemetry-driven trigger policy (hysteresis, sentinel gate), and the
// invariants the tentpole promises — a migrated run is bit-equivalent to an
// unmigrated reference, checkpoints restore across a migration epoch, and
// the serving plane (octree context, broker subscriptions) survives the
// ownership handoff.
//
// Registered under the `resilience` ctest label and the TSan sweep
// (tests/run_tsan.sh): migration interleaves bulk alltoall traffic with
// solver/ghost/octree rebuilds across simulated rank threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/buddy.hpp"
#include "lb/checkpoint.hpp"
#include "lb/migration.hpp"
#include "lb/solver.hpp"
#include "multires/octree.hpp"
#include "partition/partitioners.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"

namespace hemo {
namespace {

geometry::SparseLattice tubeLattice(double length = 4.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

core::DriverConfig plainDriverConfig() {
  core::DriverConfig dcfg;
  dcfg.lb.tau = 0.8;
  dcfg.lb.bodyForce = {1e-5, 0, 0};
  dcfg.computeWss = false;
  dcfg.visEvery = 0;
  dcfg.statusEvery = 0;
  return dcfg;
}

/// Synthetic measured cost: sites owned by rank 0 under `part` are
/// expensive, everything else cheap — exactly the shape a hot ROI produces.
std::vector<double> skewedCosts(const partition::Partition& part,
                                double hot = 4.0) {
  std::vector<double> cost(part.partOfSite.size(), 1.0);
  for (std::size_t g = 0; g < cost.size(); ++g) {
    if (part.partOfSite[g] == 0) cost[g] = hot;
  }
  return cost;
}

/// A solver's full state (all kQ distributions + macro fields) assembled
/// into global arrays for cross-run comparison. Pre-sized before rt.run();
/// every simulated rank fills only its owned (disjoint) entries.
struct GlobalState {
  std::vector<std::vector<double>> f;  // [q][globalSite]
  std::vector<double> rho;
  std::vector<Vec3d> u;

  explicit GlobalState(std::uint64_t numSites)
      : f(lb::SolverD3Q19::kQ, std::vector<double>(numSites, 0.0)),
        rho(numSites, 0.0),
        u(numSites) {}
};

void collectState(const lb::DomainMap& domain, lb::SolverD3Q19& solver,
                  GlobalState& out) {
  std::vector<double> col;
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    solver.gatherDistribution(i, col);
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      out.f[static_cast<std::size_t>(i)][domain.globalOf(l)] = col[l];
    }
  }
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    out.rho[domain.globalOf(l)] = solver.macro().rho[l];
    out.u[domain.globalOf(l)] = solver.macro().u[l];
  }
}

/// FNV-1a over the bits of every distribution, direction-major in global
/// site order.
std::uint64_t distributionDigest(const GlobalState& state) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& column : state.f) {
    for (const double v : column) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// --- data plane -------------------------------------------------------------

TEST(Migration, RepacksDistributionsOntoNewOwnership) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  // Flip ownership of every site: the worst case, everything migrates.
  partition::Partition flipped = part;
  for (auto& p : flipped.partOfSite) p = 1 - p;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::LbParams params;
    params.tau = 0.8;
    params.bodyForce = {1e-5, 0, 0};
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(3);

    lb::DomainMap newDomain(lat, flipped, comm.rank());
    std::vector<std::vector<double>> columns;
    const auto stats =
        lb::migrateDistributions(solver, newDomain, comm, columns);
    EXPECT_EQ(stats.sitesMoved, lat.numFluidSites());
    EXPECT_EQ(stats.bytesMoved,
              lat.numFluidSites() *
                  (sizeof(std::uint64_t) +
                   lb::SolverD3Q19::kQ * sizeof(double)));

    // Each migrated column must hold, bit-exact, the values the old owner
    // had for the same global site.
    std::vector<double> oldCol;
    for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
      solver.gatherDistribution(i, oldCol);
      // Old rank r owns site g iff new rank 1-r owns it; compare through
      // the exchanged columns of the peer by allgathering old columns.
      const auto oldAll = comm.allgatherVec(oldCol);
      for (std::uint32_t nl = 0; nl < newDomain.numOwned(); ++nl) {
        const auto g = newDomain.globalOf(nl);
        const int oldOwner = part.partOfSite[static_cast<std::size_t>(g)];
        lb::DomainMap oldView(lat, part, oldOwner);
        const auto ol = oldView.localOf(g);
        ASSERT_GE(ol, 0);
        EXPECT_EQ(columns[static_cast<std::size_t>(i)][nl],
                  oldAll[static_cast<std::size_t>(oldOwner)]
                        [static_cast<std::size_t>(ol)]);
      }
    }
  });
}

// --- octree rebuild ---------------------------------------------------------

/// The octree structure built level by level: each level's cell keys sorted
/// and deduplicated on their own, each site's leaf and each node's parent
/// found by binary search.
struct ReferenceOctree {
  std::vector<std::vector<std::uint64_t>> keys;  ///< [level] sorted
  std::vector<std::uint32_t> leafOfSite;
  std::vector<std::vector<std::uint32_t>> parentOf;  ///< [level > 0]
};

std::uint32_t indexOfKey(const std::vector<std::uint64_t>& keys,
                         std::uint64_t key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  EXPECT_TRUE(it != keys.end() && *it == key);
  return static_cast<std::uint32_t>(it - keys.begin());
}

ReferenceOctree referenceOctree(const lb::DomainMap& domain, int leafLog2) {
  const auto& lat = domain.lattice();
  const Vec3i dims = lat.dims();
  int rootLog2 = 0;
  while ((1 << rootLog2) < std::max({dims.x, dims.y, dims.z})) ++rootLog2;
  const int numLevels = rootLog2 - leafLog2 + 1;
  const auto keyOf = [&](std::uint32_t s, int level) {
    const int shift = rootLog2 - level;
    const Vec3i p = lat.sitePosition(domain.globalOf(s));
    return morton3(Vec3i{p.x >> shift, p.y >> shift, p.z >> shift});
  };
  ReferenceOctree ref;
  ref.keys.resize(static_cast<std::size_t>(numLevels));
  ref.parentOf.resize(static_cast<std::size_t>(numLevels));
  for (int l = 0; l < numLevels; ++l) {
    auto& keys = ref.keys[static_cast<std::size_t>(l)];
    for (std::uint32_t s = 0; s < domain.numOwned(); ++s) {
      keys.push_back(keyOf(s, l));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  for (std::uint32_t s = 0; s < domain.numOwned(); ++s) {
    ref.leafOfSite.push_back(
        indexOfKey(ref.keys.back(), keyOf(s, numLevels - 1)));
  }
  for (int l = 1; l < numLevels; ++l) {
    for (const auto key : ref.keys[static_cast<std::size_t>(l)]) {
      ref.parentOf[static_cast<std::size_t>(l)].push_back(indexOfKey(
          ref.keys[static_cast<std::size_t>(l - 1)], mortonParent(key)));
    }
  }
  return ref;
}

/// Structure and post-update aggregates of `tree` against the reference:
/// every node's count, min and max exactly, its means to float rounding.
void expectMatchesReference(const lb::DomainMap& domain, int leafLog2) {
  multires::FieldOctree tree(domain, leafLog2);
  const auto ref = referenceOctree(domain, leafLog2);
  ASSERT_EQ(tree.numLevels(), static_cast<int>(ref.keys.size()));
  for (int l = 0; l < tree.numLevels(); ++l) {
    const auto& nodes = tree.level(l);
    const auto& keys = ref.keys[static_cast<std::size_t>(l)];
    ASSERT_EQ(nodes.size(), keys.size()) << "level " << l;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(nodes[i].key, keys[i]) << "level " << l << " node " << i;
    }
    if (l > 0) {
      EXPECT_EQ(tree.parentLinks(l), ref.parentOf[static_cast<std::size_t>(l)])
          << "level " << l;
    }
  }
  EXPECT_EQ(tree.leafOfSite(), ref.leafOfSite);

  const auto n = domain.numOwned();
  std::vector<double> scalar(n);
  std::vector<Vec3d> velocity(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const double g = static_cast<double>(domain.globalOf(s));
    scalar[s] = std::sin(0.01 * g) + 1e-3 * g;
    velocity[s] = {0.5 * g, -g, 1.0};
  }
  tree.update(scalar, velocity);
  // Each site reaches its level-l node through l parent hops of the
  // reference links; aggregate in doubles per node.
  for (int l = tree.leafLevel(); l >= 0; --l) {
    const auto& nodes = tree.level(l);
    std::vector<std::uint32_t> count(nodes.size(), 0);
    std::vector<double> sum(nodes.size(), 0.0);
    std::vector<Vec3d> usum(nodes.size(), Vec3d{0, 0, 0});
    std::vector<float> lo(nodes.size(), std::numeric_limits<float>::max());
    std::vector<float> hi(nodes.size(), std::numeric_limits<float>::lowest());
    for (std::uint32_t s = 0; s < n; ++s) {
      std::uint32_t node = ref.leafOfSite[s];
      for (int up = tree.leafLevel(); up > l; --up) {
        node = ref.parentOf[static_cast<std::size_t>(up)][node];
      }
      const auto v = static_cast<float>(scalar[s]);
      ++count[node];
      sum[node] += v;
      usum[node] += velocity[s].cast<float>().cast<double>();
      lo[node] = std::min(lo[node], v);
      hi[node] = std::max(hi[node], v);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_EQ(nodes[i].count, count[i]) << "level " << l << " node " << i;
      EXPECT_EQ(nodes[i].minScalar, lo[i]);
      EXPECT_EQ(nodes[i].maxScalar, hi[i]);
      const double mean = sum[i] / count[i];
      EXPECT_NEAR(nodes[i].meanScalar, mean, 1e-4 * (1.0 + std::abs(mean)));
      const Vec3d u = usum[i] / static_cast<double>(count[i]);
      EXPECT_NEAR(nodes[i].meanVelocity.x, u.x, 1e-4 * (1.0 + std::abs(u.x)));
      EXPECT_NEAR(nodes[i].meanVelocity.y, u.y, 1e-4 * (1.0 + std::abs(u.y)));
      EXPECT_NEAR(nodes[i].meanVelocity.z, u.z, 1e-4 * (1.0 + std::abs(u.z)));
    }
  }
}

TEST(FieldOctree, SingleSortMatchesPerLevelBuild) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(partition::buildSiteGraph(lat), 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, plainDriverConfig());
    driver.run(2);
    for (const int leafLog2 : {0, 1, 2}) {
      SCOPED_TRACE(leafLog2);
      expectMatchesReference(driver.domain(), leafLog2);
    }
    const auto outcome = driver.migrateNow(skewedCosts(part));
    ASSERT_TRUE(outcome.migrated);
    ASSERT_NE(&driver.domain(), &domain);
    for (const int leafLog2 : {0, 1, 2}) {
      SCOPED_TRACE(leafLog2);
      expectMatchesReference(driver.domain(), leafLog2);
    }
  });
}

// --- tentpole equivalence ---------------------------------------------------

TEST(Migration, MigratedRunMatchesUnmigratedReference) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto cfg = plainDriverConfig();

  // Reference: 20 uninterrupted steps on the original partition, plus one
  // pipeline run for the octree context view.
  GlobalState reference(lat.numFluidSites());
  std::vector<multires::OctreeNode> referenceNodes;
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(20);
      driver.runPipelineNow();
      collectState(domain, driver.solver(), reference);
      if (comm.rank() == 0) {
        referenceNodes = driver.lastOutputs().contextNodes;
      }
    });
  }

  // Migrated runs: live migration under a skewed synthetic cost field
  // after 10 steps (even parity: canonical slab) and after 11 (odd parity:
  // the solver's AA layout after an even step), then on to step 20. State
  // and octree context must match the reference to 1e-13 (the migration
  // itself is bit-exact; the solver arithmetic per site is partition- and
  // parity-independent).
  for (const int migrateAt : {10, 11}) {
    SCOPED_TRACE(migrateAt);
    GlobalState migrated(lat.numFluidSites());
    std::vector<multires::OctreeNode> migratedNodes;
    {
      comm::Runtime rt(2);
      rt.run([&](comm::Communicator& comm) {
        lb::DomainMap domain(lat, part, comm.rank());
        core::SimulationDriver driver(domain, comm, cfg);
        driver.run(migrateAt);
        EXPECT_EQ(driver.solver().oddParity(), migrateAt % 2 == 1);
        const auto outcome = driver.migrateNow(skewedCosts(part));
        EXPECT_TRUE(outcome.migrated);
        EXPECT_GT(outcome.sitesMoved, 0u);
        EXPECT_GT(outcome.imbalanceBefore, 1.10);
        EXPECT_LT(outcome.imbalanceAfter, outcome.imbalanceBefore);
        EXPECT_EQ(driver.migrationEpoch(), 1u);
        EXPECT_EQ(driver.solver().stepsDone(),
                  static_cast<std::uint64_t>(migrateAt));
        // The driver now runs on its own rebuilt domain.
        EXPECT_NE(&driver.domain(), &domain);
        driver.run(20 - migrateAt);
        EXPECT_EQ(driver.solver().stepsDone(), 20u);
        driver.runPipelineNow();
        collectState(driver.domain(), driver.solver(), migrated);
        if (comm.rank() == 0) {
          migratedNodes = driver.lastOutputs().contextNodes;
        }
      });
    }

    for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
      for (std::size_t g = 0; g < reference.f[0].size(); ++g) {
        ASSERT_NEAR(migrated.f[static_cast<std::size_t>(i)][g],
                    reference.f[static_cast<std::size_t>(i)][g], 1e-13)
            << "direction " << i << " site " << g;
      }
    }
    for (std::size_t g = 0; g < reference.rho.size(); ++g) {
      ASSERT_NEAR(migrated.rho[g], reference.rho[g], 1e-13);
      ASSERT_NEAR((migrated.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
    }
    // Octree ownership handoff: the cross-rank merged context is exact, so
    // the rebuilt octree must reproduce the reference context node for node.
    ASSERT_EQ(migratedNodes.size(), referenceNodes.size());
    for (std::size_t i = 0; i < referenceNodes.size(); ++i) {
      EXPECT_EQ(migratedNodes[i].key, referenceNodes[i].key);
      EXPECT_EQ(migratedNodes[i].count, referenceNodes[i].count);
      EXPECT_NEAR(migratedNodes[i].meanScalar, referenceNodes[i].meanScalar,
                  1e-6);
    }
  }
}

TEST(Migration, CheckpointRestoresAcrossMigrationEpoch) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dir = "/tmp/hemo_test_migration_ckpt";
  std::filesystem::remove_all(dir);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 5;
  cfg.checkpointDir = dir;
  cfg.checkpointKeep = 2;

  // Run A: checkpoint at 5 (pre-migration partition), migrate at 6,
  // checkpoint at 10 (post-migration partition), stop at 12.
  GlobalState stateA(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(6);
      const auto outcome = driver.migrateNow(skewedCosts(part));
      EXPECT_TRUE(outcome.migrated);
      driver.run(6);
      collectState(driver.domain(), driver.solver(), stateA);
    });
  }

  // Run B: a fresh job on the *original* partition restores the newest
  // checkpoint — written at step 10 under the *migrated* partition — and
  // finishes. readCheckpoint routes sites by current ownership, so the
  // epoch boundary is invisible; final state must match run A to 1e-13.
  GlobalState stateB(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      const auto restored = driver.restoreState(/*allowColdStart=*/false);
      EXPECT_EQ(restored.source, core::StateSource::kDisk);
      const auto& r = restored.result;
      EXPECT_TRUE(r.ok()) << r.detail;
      EXPECT_EQ(r.step, 10u);
      driver.run(2);
      EXPECT_EQ(driver.solver().stepsDone(), 12u);
      collectState(driver.domain(), driver.solver(), stateB);
    });
  }
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    for (std::size_t g = 0; g < stateA.f[0].size(); ++g) {
      ASSERT_NEAR(stateB.f[static_cast<std::size_t>(i)][g],
                  stateA.f[static_cast<std::size_t>(i)][g], 1e-13);
    }
  }
  for (std::size_t g = 0; g < stateA.rho.size(); ++g) {
    ASSERT_NEAR(stateB.rho[g], stateA.rho[g], 1e-13);
    ASSERT_NEAR((stateB.u[g] - stateA.u[g]).norm(), 0.0, 1e-13);
  }
  std::filesystem::remove_all(dir);
}

TEST(Migration, SteeredStateSurvivesMigration) {
  const auto lat = tubeLattice();
  ASSERT_GE(lat.iolets().size(), 2u);
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto cfg = plainDriverConfig();
  // Every kind of steered solver state: tau and body force (LbParams), an
  // iolet density, and a velocity override that also switches iolet 1 to
  // the velocity boundary condition.
  const double tau = 0.85;
  const Vec3d force{2e-5, 1e-6, 0.0};
  const double inletDensity = 1.002;
  const Vec3d outletVelocity{0.004, 0.0, 0.0};

  // Both runs: 6 steps, steer, 10 more steps; the second migrates right
  // after steering.
  GlobalState reference(lat.numFluidSites());
  GlobalState migrated(lat.numFluidSites());
  for (const bool migrate : {false, true}) {
    SCOPED_TRACE(migrate);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(6);
      driver.solver().setTau(tau);
      driver.solver().setBodyForce(force);
      driver.solver().setIoletDensity(0, inletDensity);
      driver.solver().setIoletVelocity(1, outletVelocity);
      if (migrate) {
        EXPECT_TRUE(driver.migrateNow(skewedCosts(part)).migrated);
        const auto& s = driver.solver();
        EXPECT_EQ(s.params().tau, tau);
        EXPECT_EQ(s.params().bodyForce.x, force.x);
        EXPECT_EQ(s.params().bodyForce.y, force.y);
        EXPECT_EQ(s.params().bodyForce.z, force.z);
        EXPECT_EQ(s.ioletDensity(0), inletDensity);
        EXPECT_TRUE(s.ioletIsVelocityBc(1));
        EXPECT_EQ(s.ioletVelocity(1).x, outletVelocity.x);
        EXPECT_EQ(s.ioletVelocity(1).y, outletVelocity.y);
        EXPECT_EQ(s.ioletVelocity(1).z, outletVelocity.z);
        EXPECT_EQ(s.stepsDone(), 6u);
      }
      driver.run(10);
      collectState(driver.domain(), driver.solver(),
                   migrate ? migrated : reference);
    });
  }
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    for (std::size_t g = 0; g < reference.f[0].size(); ++g) {
      ASSERT_NEAR(migrated.f[static_cast<std::size_t>(i)][g],
                  reference.f[static_cast<std::size_t>(i)][g], 1e-13)
          << "direction " << i << " site " << g;
    }
  }
  for (std::size_t g = 0; g < reference.rho.size(); ++g) {
    ASSERT_NEAR(migrated.rho[g], reference.rho[g], 1e-13);
    ASSERT_NEAR((migrated.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
  }
}

TEST(Migration, OneTransferThreeSourcesIdenticalBits) {
  // One 4-rank state put onto the same 3-rank partition three ways: live
  // migration, a buddy snapshot and a disk checkpoint. All three go through
  // the one owner-routed transfer, so the bits must not depend on the
  // source — nor differ from the state they came from.
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part4 = kway.partition(graph, 4);
  const auto part3 = kway.partition(graph, 3);
  const auto params = plainDriverConfig().lb;
  const std::string dir = "/tmp/hemo_test_three_sources";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/" + lb::checkpointFileName(7);

  lb::BuddyStore store;
  GlobalState source(lat.numFluidSites());
  GlobalState live(lat.numFluidSites());
  {
    comm::Runtime rt(4);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part4, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      solver.run(7);  // odd step count: the AA layout's odd parity
      collectState(domain, solver, source);
      lb::writeCheckpoint(path, solver, comm);
      lb::mirrorBuddy(solver, comm, store);
      // The 3-part partition on 4 ranks: rank 3 ends up owning nothing.
      lb::DomainMap target(lat, part3, comm.rank());
      std::vector<std::vector<double>> columns;
      lb::migrateDistributions(solver, target, comm, columns);
      for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
        for (std::uint32_t l = 0; l < target.numOwned(); ++l) {
          live.f[static_cast<std::size_t>(i)][target.globalOf(l)] =
              columns[static_cast<std::size_t>(i)][l];
        }
      }
    });
  }
  GlobalState fromBuddy(lat.numFluidSites());
  GlobalState fromDisk(lat.numFluidSites());
  {
    comm::Runtime rt(3);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part3, comm.rank());
      lb::SolverD3Q19 buddySolver(domain, comm, params);
      const auto b = lb::restoreFromBuddy(store, buddySolver, comm);
      EXPECT_TRUE(b.ok()) << b.detail;
      EXPECT_EQ(b.step, 7u);
      collectState(domain, buddySolver, fromBuddy);
      lb::SolverD3Q19 diskSolver(domain, comm, params);
      const auto d = lb::readCheckpoint(path, diskSolver, comm);
      EXPECT_TRUE(d.ok()) << d.detail;
      EXPECT_EQ(d.step, 7u);
      collectState(domain, diskSolver, fromDisk);
    });
  }
  const auto expected = distributionDigest(source);
  EXPECT_EQ(distributionDigest(live), expected);
  EXPECT_EQ(distributionDigest(fromBuddy), expected);
  EXPECT_EQ(distributionDigest(fromDisk), expected);
  std::filesystem::remove_all(dir);
}

// --- trigger policy ---------------------------------------------------------

/// A deliberately lopsided 2-part split: rank 0 gets roughly `fraction` of
/// the sites (a contiguous id prefix), rank 1 the rest.
partition::Partition lopsidedPartition(std::uint64_t numSites,
                                       double fraction) {
  partition::Partition p;
  p.numParts = 2;
  const auto cut = static_cast<std::uint64_t>(
      static_cast<double>(numSites) * fraction);
  p.partOfSite.resize(numSites);
  for (std::uint64_t g = 0; g < numSites; ++g) {
    p.partOfSite[static_cast<std::size_t>(g)] = g < cut ? 0 : 1;
  }
  return p;
}

TEST(MigrationPolicy, TelemetryTriggerRebalancesLopsidedRun) {
  const auto lat = tubeLattice();
  // Rank 1 owns ~90% of the sites: its busy time dominates each window, so
  // the measured imbalance sits near 1.8 — far over threshold.
  const auto part = lopsidedPartition(lat.numFluidSites(), 0.1);

  auto cfg = plainDriverConfig();
  cfg.repartition.repartitionEvery = 5;
  cfg.repartition.imbalanceThreshold = 1.25;
  cfg.repartition.triggerWindows = 2;
  cfg.repartition.cooldownWindows = 1;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    EXPECT_EQ(driver.run(40), 40);
    EXPECT_GE(driver.migrationEpoch(), 1u);
    EXPECT_EQ(driver.solver().stepsDone(), 40u);
    // Ownership genuinely rebalanced: the site-count imbalance must have
    // dropped from ~1.8 toward parity.
    const auto owned = comm.allgather<std::uint64_t>(driver.domain().numOwned());
    const double hi = static_cast<double>(std::max(owned[0], owned[1]));
    const double total = static_cast<double>(owned[0] + owned[1]);
    EXPECT_LT(2.0 * hi / total, 1.4);
    // repart.* telemetry recorded on every rank.
    if (auto* t = telemetry::threadTelemetry()) {
      EXPECT_GE(t->metrics().counter("repart.migrations").value(), 1u);
      EXPECT_GE(t->metrics().counter("repart.sites_moved").value(), 1u);
    }
  });
}

TEST(MigrationPolicy, SentinelVetoesMigrationOfPoisonedState) {
  const auto lat = tubeLattice();
  const auto part = lopsidedPartition(lat.numFluidSites(), 0.1);

  auto cfg = plainDriverConfig();
  cfg.repartition.repartitionEvery = 5;
  cfg.repartition.imbalanceThreshold = 1.25;
  cfg.repartition.triggerWindows = 2;
  // Sentinel enabled but never due inside the run loop — only the
  // migration gate consults it. The density band excludes rho ~ 1, so
  // every check reports "poisoned": migration must never proceed.
  cfg.sentinel.checkEvery = 1 << 20;
  cfg.sentinel.minDensity = 2.0;
  cfg.sentinel.maxDensity = 3.0;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    EXPECT_EQ(driver.run(30), 30);
    EXPECT_EQ(driver.migrationEpoch(), 0u);
    EXPECT_EQ(&driver.domain(), &domain);
    if (auto* t = telemetry::threadTelemetry()) {
      EXPECT_GE(t->metrics().counter("repart.vetoed").value(), 1u);
      EXPECT_EQ(t->metrics().counter("repart.migrations").value(), 0u);
    }
  });
}

// --- serving plane ----------------------------------------------------------

TEST(MigrationServing, BrokerSubscriptionsSurviveMigration) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  auto cfg = plainDriverConfig();
  cfg.statusEvery = 2;

  serve::SessionBroker broker;
  serve::ServeClient client(broker.connect());
  client.subscribe(serve::StreamKind::kStatus, 2);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(6);
    const auto outcome = driver.migrateNow(skewedCosts(part));
    EXPECT_TRUE(outcome.migrated);
    // The subscription machinery is domain-stateless: the same client
    // keeps receiving post-migration status frames without resubscribing.
    driver.run(6);
    EXPECT_TRUE(driver.brokerHealthy());
  });

  std::uint64_t lastStatusStep = 0;
  while (auto event = client.pollEvent()) {
    if (event->type == steer::MsgType::kStatus) {
      lastStatusStep = std::max(lastStatusStep, event->status.step);
    }
  }
  EXPECT_GE(lastStatusStep, 8u);
}

}  // namespace
}  // namespace hemo
