// Production-kernel tests: the SIMD collide-stream path must reproduce the
// reference three-phase oracle to round-off on every distribution value,
// the internal frontier/bulk reordering must stay invisible outside the
// solver, and conservation laws must hold on both kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <tuple>

#include "comm/runtime.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"

namespace hemo::lb {
namespace {

using geometry::SparseLattice;

SparseLattice tube(double voxel = 0.15) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
}

SparseLattice closedCavity() {
  geometry::Scene scene;
  scene.addShape(std::make_unique<geometry::SphereShape>(Vec3d{0, 0, 0}, 1.2));
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.15;
  return geometry::voxelize(scene, opt);
}

/// Full solver state in global site order: every distribution plus the
/// cached macroscopic moments.
struct GlobalState {
  std::vector<std::vector<double>> f;  ///< kQ vectors of numFluidSites
  std::vector<double> rho;
  std::vector<Vec3d> u;
};

template <typename Lattice = D3Q19>
GlobalState runGatheredState(
    const SparseLattice& lattice, int ranks, const LbParams& params,
    int steps,
    const std::type_identity_t<std::function<void(Solver<Lattice>&)>>& setup =
        nullptr) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, ranks);

  GlobalState state;
  state.f.assign(static_cast<std::size_t>(Lattice::kQ),
                 std::vector<double>(lattice.numFluidSites(), 0.0));
  state.rho.assign(lattice.numFluidSites(), 0.0);
  state.u.assign(lattice.numFluidSites(), Vec3d{});

  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, comm.rank());
    Solver<Lattice> solver(domain, comm, params);
    if (setup) setup(solver);
    solver.run(steps);
    std::vector<double> fi;
    for (int i = 0; i < Lattice::kQ; ++i) {
      solver.gatherDistribution(i, fi);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        state.f[static_cast<std::size_t>(i)]
               [static_cast<std::size_t>(domain.globalOf(l))] = fi[l];
      }
    }
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const auto g = static_cast<std::size_t>(domain.globalOf(l));
      state.rho[g] = solver.macro().rho[static_cast<std::size_t>(l)];
      state.u[g] = solver.macro().u[static_cast<std::size_t>(l)];
    }
  });
  return state;
}

template <typename Lattice = D3Q19>
void expectStatesMatch(const GlobalState& a, const GlobalState& b,
                       double tol) {
  ASSERT_EQ(a.rho.size(), b.rho.size());
  double maxDf = 0.0;
  for (int i = 0; i < Lattice::kQ; ++i) {
    const auto& fa = a.f[static_cast<std::size_t>(i)];
    const auto& fb = b.f[static_cast<std::size_t>(i)];
    for (std::size_t g = 0; g < fa.size(); ++g) {
      maxDf = std::max(maxDf, std::abs(fa[g] - fb[g]));
    }
  }
  EXPECT_LE(maxDf, tol) << "max distribution mismatch";
  double maxDrho = 0.0, maxDu = 0.0;
  for (std::size_t g = 0; g < a.rho.size(); ++g) {
    maxDrho = std::max(maxDrho, std::abs(a.rho[g] - b.rho[g]));
    maxDu = std::max(maxDu, (a.u[g] - b.u[g]).norm());
  }
  EXPECT_LE(maxDrho, tol) << "max density mismatch";
  EXPECT_LE(maxDu, tol) << "max velocity mismatch";
}

// --- production vs reference equivalence ------------------------------------

// The production kernel fuses collide and stream into one vectorised sweep;
// the reference oracle runs them as three separate phases. Both perform the
// same per-site update (FMA contraction and the optimised equilibrium
// polynomial are the only differences), so every distribution must agree to
// round-off. FusedVsReference runs the default kernel, exactly as production
// runs do; SimdVsReference pins the SIMD kernel and covers further
// decompositions.

/// Largest per-site difference in the Frobenius norm of the stress tensor
/// between `params.kernel` and the reference kernel after `steps` steps.
double maxStressMismatch(const SparseLattice& lattice, LbParams params,
                         int ranks, int steps) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, ranks);
  std::vector<double> stressNorm[2];
  for (const auto kernel : {params.kernel, LbParams::Kernel::kReference}) {
    params.kernel = kernel;
    auto& out = stressNorm[kernel == LbParams::Kernel::kReference ? 1 : 0];
    out.assign(lattice.numFluidSites(), 0.0);
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      DomainMap domain(lattice, part, comm.rank());
      SolverD3Q19 solver(domain, comm, params);
      solver.run(steps);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        out[static_cast<std::size_t>(domain.globalOf(l))] =
            solver.macro().stress[static_cast<std::size_t>(l)].frobenius();
      }
    });
  }
  double maxD = 0.0;
  for (std::size_t g = 0; g < stressNorm[0].size(); ++g) {
    maxD = std::max(maxD, std::abs(stressNorm[0][g] - stressNorm[1][g]));
  }
  return maxD;
}

/// Velocity BC on the inlet, pressure BC on the outlet: exercises both
/// iolet rules of the frontier pass.
void setBothIoletKinds(SolverD3Q19& solver) {
  solver.setIoletVelocity(0, Vec3d{0.0, 0.0, 0.005});
  solver.setIoletDensity(1, 0.995);
}

TEST(FusedVsReference, BgkBodyForceMatches) {
  const auto lattice = tube();
  LbParams params;
  params.tau = 0.8;
  params.collision = LbParams::Collision::kBgk;
  params.bodyForce = Vec3d{1e-5, 0, 0};

  const auto fused = runGatheredState(lattice, 3, params, 100);
  params.kernel = LbParams::Kernel::kReference;
  const auto ref = runGatheredState(lattice, 3, params, 100);
  expectStatesMatch(fused, ref, 1e-12);
}

TEST(FusedVsReference, TrtBothIoletKindsMatch) {
  const auto lattice = tube();
  ASSERT_GE(lattice.iolets().size(), 2u);
  LbParams params;
  params.tau = 0.9;
  params.collision = LbParams::Collision::kTrt;

  const auto fused =
      runGatheredState(lattice, 2, params, 100, setBothIoletKinds);
  params.kernel = LbParams::Kernel::kReference;
  const auto ref = runGatheredState(lattice, 2, params, 100, setBothIoletKinds);
  expectStatesMatch(fused, ref, 1e-12);
}

TEST(FusedVsReference, StressFieldMatches) {
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  params.computeStress = true;
  EXPECT_LE(maxStressMismatch(tube(), params, 2, 50), 1e-12);
}

TEST(SimdVsReference, BgkBodyForceMatches) {
  const auto lattice = tube();
  LbParams params;
  params.tau = 0.8;
  params.collision = LbParams::Collision::kBgk;
  params.bodyForce = Vec3d{1e-5, 0, 0};

  for (const int ranks : {2, 3, 4}) {
    SCOPED_TRACE(ranks);
    params.kernel = LbParams::Kernel::kSimd;
    const auto simd = runGatheredState(lattice, ranks, params, 100);
    params.kernel = LbParams::Kernel::kReference;
    const auto ref = runGatheredState(lattice, ranks, params, 100);
    expectStatesMatch(simd, ref, 1e-12);
  }
}

TEST(SimdVsReference, TrtBothIoletKindsMatch) {
  const auto lattice = tube();
  ASSERT_GE(lattice.iolets().size(), 2u);
  LbParams params;
  params.tau = 0.9;
  params.collision = LbParams::Collision::kTrt;

  params.kernel = LbParams::Kernel::kSimd;
  const auto simd =
      runGatheredState(lattice, 4, params, 100, setBothIoletKinds);
  params.kernel = LbParams::Kernel::kReference;
  const auto ref = runGatheredState(lattice, 4, params, 100, setBothIoletKinds);
  expectStatesMatch(simd, ref, 1e-12);
}

TEST(SimdVsReference, SingleRankMatches) {
  // One rank maximises the bulk segment, so the SIMD strips (not the
  // scalar tail) carry nearly all sites.
  const auto lattice = tube();
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};

  params.kernel = LbParams::Kernel::kSimd;
  const auto simd = runGatheredState(lattice, 1, params, 100);
  params.kernel = LbParams::Kernel::kReference;
  const auto ref = runGatheredState(lattice, 1, params, 100);
  expectStatesMatch(simd, ref, 1e-12);
}

TEST(SimdVsReference, StressFieldMatches) {
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  params.computeStress = true;
  params.kernel = LbParams::Kernel::kSimd;
  EXPECT_LE(maxStressMismatch(tube(), params, 3, 100), 1e-12);
}

// --- conservation on the production kernel -----------------------------------

/// Mass of a swirling closed cavity is conserved to round-off.
void expectClosedCavityMassExact(LbParams::Kernel kernel) {
  const auto lattice = closedCavity();
  LbParams params;
  params.tau = 0.7;
  params.kernel = kernel;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, comm.size());
    DomainMap domain(lattice, part, comm.rank());
    SolverD3Q19 solver(domain, comm, params);
    solver.initWith([](const Vec3d& w) {
      return std::pair{1.0, Vec3d{0.01 * w.y, -0.01 * w.x, 0.0}};
    });
    solver.step();
    const double m0 = comm.allreduceSum(solver.localMass());
    solver.run(100);
    const double m1 = comm.allreduceSum(solver.localMass());
    EXPECT_NEAR(m1 / m0, 1.0, 1e-12);
  });
}

TEST(FusedConservation, ClosedCavityMassExact) {
  expectClosedCavityMassExact(LbParams{}.kernel);
}

TEST(FusedConservation, AtRestCavityStaysAtRest) {
  const auto lattice = closedCavity();
  LbParams params;
  params.tau = 0.7;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, comm.size());
    DomainMap domain(lattice, part, comm.rank());
    SolverD3Q19 solver(domain, comm, params);  // equilibrium at rest
    solver.run(100);
    const Vec3d p = comm.allreduceSum(solver.localMomentum());
    EXPECT_LE(p.norm(), 1e-13);  // round-off only, summed over all sites
    const double mass = comm.allreduceSum(solver.localMass());
    EXPECT_NEAR(mass, static_cast<double>(lattice.numFluidSites()), 1e-10);
  });
}

TEST(ConservationEveryKernel, ClosedCavityMassExact) {
  for (const auto kernel :
       {LbParams::Kernel::kSimd, LbParams::Kernel::kReference}) {
    SCOPED_TRACE(static_cast<int>(kernel));
    expectClosedCavityMassExact(kernel);
  }
}

// --- reordering contract ------------------------------------------------------

TEST(Reordering, MapsAreInversePermutations) {
  const auto lattice = tube();
  LbParams params;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, 1);
    DomainMap domain(lattice, part, 0);
    SolverD3Q19 solver(domain, comm, params);
    const auto& ro = solver.reordering();
    ASSERT_EQ(ro.numSites(), domain.numOwned());
    EXPECT_GT(ro.numFrontier, 0u);  // the tube has walls and iolets
    EXPECT_GT(ro.numBulk(), 0u);
    for (std::uint32_t e = 0; e < ro.numSites(); ++e) {
      EXPECT_EQ(ro.externalOf[ro.internalOf[e]], e);
    }

    // On one rank a site is frontier exactly when some streaming pull
    // crosses a wall or iolet (no remote neighbours exist).
    const auto& set = D3Q19::kSet;
    for (std::uint32_t e = 0; e < ro.numSites(); ++e) {
      bool boundary = false;
      const std::uint64_t g = domain.globalOf(e);
      for (int i = 1; i < D3Q19::kQ; ++i) {
        if (lattice.neighborId(
                g, set.geoDir[static_cast<std::size_t>(i)]) < 0) {
          boundary = true;
          break;
        }
      }
      EXPECT_EQ(ro.internalOf[e] < ro.numFrontier, boundary)
          << "site " << g;
    }

    // Bulk segment is row-major (x fastest), so x-neighbours are
    // consecutive internal indices.
    const auto rowMajor = [&](std::uint32_t l) {
      const Vec3i p = lattice.sitePosition(domain.globalOf(ro.externalOf[l]));
      return std::tuple{p.z, p.y, p.x};
    };
    for (std::uint32_t l = ro.numFrontier + 1; l < ro.numSites(); ++l) {
      EXPECT_LT(rowMajor(l - 1), rowMajor(l)) << "internal site " << l;
    }
  });
}

TEST(Reordering, ExternalIndexingUnchanged) {
  const auto lattice = tube();
  LbParams params;
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::MultilevelKWayPartitioner kway;
    const auto part = kway.partition(graph, comm.size());
    DomainMap domain(lattice, part, comm.rank());
    SolverD3Q19 solver(domain, comm, params);
    // Seed a site-identifying density; macro() and distribution() must
    // report it back in DomainMap (external) order.
    solver.initWith([](const Vec3d& w) {
      return std::pair{1.0 + 0.001 * w.x, Vec3d{}};
    });
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const Vec3d w = lattice.siteWorld(domain.globalOf(l));
      EXPECT_NEAR(solver.macro().rho[static_cast<std::size_t>(l)],
                  1.0 + 0.001 * w.x, 1e-14);
    }
    // distribution()/setDistribution() round-trip in external order.
    const auto f5 = solver.distribution(5);
    solver.setDistribution(5, f5);
    EXPECT_EQ(solver.distribution(5), f5);
  });
}

}  // namespace
}  // namespace hemo::lb
