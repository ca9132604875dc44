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

/// Run one solver per rank to the last of `stepCounts` (ascending) and
/// gather the full state after each listed step count.
template <typename Lattice = D3Q19>
std::vector<GlobalState> runGatheredStates(
    const SparseLattice& lattice, int ranks, const LbParams& params,
    const std::vector<int>& stepCounts,
    const std::type_identity_t<std::function<void(Solver<Lattice>&)>>& setup =
        nullptr) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, ranks);

  GlobalState blank;
  blank.f.assign(static_cast<std::size_t>(Lattice::kQ),
                 std::vector<double>(lattice.numFluidSites(), 0.0));
  blank.rho.assign(lattice.numFluidSites(), 0.0);
  blank.u.assign(lattice.numFluidSites(), Vec3d{});
  std::vector<GlobalState> states(stepCounts.size(), blank);

  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, comm.rank());
    Solver<Lattice> solver(domain, comm, params);
    if (setup) setup(solver);
    int done = 0;
    std::vector<double> fi;
    for (std::size_t k = 0; k < stepCounts.size(); ++k) {
      solver.run(stepCounts[k] - done);
      done = stepCounts[k];
      auto& state = states[k];
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
    }
  });
  return states;
}

template <typename Lattice = D3Q19>
GlobalState runGatheredState(
    const SparseLattice& lattice, int ranks, const LbParams& params,
    int steps,
    const std::type_identity_t<std::function<void(Solver<Lattice>&)>>& setup =
        nullptr) {
  return std::move(
      runGatheredStates<Lattice>(lattice, ranks, params, {steps}, setup)[0]);
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
/// between `params.kernel` and the reference kernel, after each of
/// `stepCounts` (ascending) steps of one run per kernel.
std::vector<double> maxStressMismatches(const SparseLattice& lattice,
                                        LbParams params, int ranks,
                                        const std::vector<int>& stepCounts) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, ranks);
  // stressNorm[kernel][checkpoint][global site]
  std::vector<std::vector<double>> stressNorm[2];
  for (const auto kernel : {params.kernel, LbParams::Kernel::kReference}) {
    params.kernel = kernel;
    auto& out = stressNorm[kernel == LbParams::Kernel::kReference ? 1 : 0];
    out.assign(stepCounts.size(),
               std::vector<double>(lattice.numFluidSites(), 0.0));
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      DomainMap domain(lattice, part, comm.rank());
      SolverD3Q19 solver(domain, comm, params);
      int done = 0;
      for (std::size_t k = 0; k < stepCounts.size(); ++k) {
        solver.run(stepCounts[k] - done);
        done = stepCounts[k];
        for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
          out[k][static_cast<std::size_t>(domain.globalOf(l))] =
              solver.macro().stress[static_cast<std::size_t>(l)].frobenius();
        }
      }
    });
  }
  std::vector<double> maxD(stepCounts.size(), 0.0);
  for (std::size_t k = 0; k < stepCounts.size(); ++k) {
    for (std::size_t g = 0; g < stressNorm[0][k].size(); ++g) {
      maxD[k] = std::max(maxD[k],
                         std::abs(stressNorm[0][k][g] - stressNorm[1][k][g]));
    }
  }
  return maxD;
}

double maxStressMismatch(const SparseLattice& lattice, LbParams params,
                         int ranks, int steps) {
  return maxStressMismatches(lattice, params, ranks, {steps})[0];
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

// The production kernel alternates two step types (AA pattern: even steps
// collide in place, odd steps gather, collide and scatter back), so every
// case compares states after odd and even step counts — 1, 7 and 101 stop
// with the slab in the AA layout of an even step, 2 and 100 in canonical
// order — on the canonical populations gatherDistribution reads at either
// parity. One run per kernel goes to the last count and is read at each.
const std::vector<int> kStepCounts = {1, 2, 7, 100, 101};

/// Run both kernels once through kStepCounts and compare every checkpoint.
void expectSimdMatchesReference(
    const SparseLattice& lattice, LbParams params, int ranks,
    const std::function<void(SolverD3Q19&)>& setup = nullptr) {
  params.kernel = LbParams::Kernel::kSimd;
  const auto simd =
      runGatheredStates(lattice, ranks, params, kStepCounts, setup);
  params.kernel = LbParams::Kernel::kReference;
  const auto ref =
      runGatheredStates(lattice, ranks, params, kStepCounts, setup);
  for (std::size_t k = 0; k < kStepCounts.size(); ++k) {
    SCOPED_TRACE(testing::Message() << ranks << " ranks, " << kStepCounts[k]
                                    << " steps");
    expectStatesMatch(simd[k], ref[k], 1e-12);
  }
}

TEST(SimdVsReference, BgkBodyForceMatches) {
  const auto lattice = tube();
  LbParams params;
  params.tau = 0.8;
  params.collision = LbParams::Collision::kBgk;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  for (const int ranks : {1, 2, 3, 4}) {
    expectSimdMatchesReference(lattice, params, ranks);
  }
}

TEST(SimdVsReference, TrtBothIoletKindsMatch) {
  const auto lattice = tube();
  ASSERT_GE(lattice.iolets().size(), 2u);
  LbParams params;
  params.tau = 0.9;
  params.collision = LbParams::Collision::kTrt;
  for (const int ranks : {1, 2, 3, 4}) {
    expectSimdMatchesReference(lattice, params, ranks, setBothIoletKinds);
  }
}

TEST(SimdVsReference, SingleRankMatches) {
  // One rank maximises the bulk segment, so the odd sweep's bulk strips
  // carry nearly all sites.
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  expectSimdMatchesReference(tube(), params, 1);
}

TEST(SimdVsReference, StressFieldMatches) {
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  params.computeStress = true;
  params.kernel = LbParams::Kernel::kSimd;
  const auto lattice = tube();
  for (const int ranks : {1, 2, 3, 4}) {
    const auto mismatch =
        maxStressMismatches(lattice, params, ranks, kStepCounts);
    for (std::size_t k = 0; k < kStepCounts.size(); ++k) {
      EXPECT_LE(mismatch[k], 1e-12)
          << ranks << " ranks, " << kStepCounts[k] << " steps";
    }
  }
}

TEST(SimdVsReference, OtherVelocitySetsMatch) {
  // D3Q15 and D3Q27 run the same AA tables and vector collide.
  const auto lattice = tube();
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = Vec3d{1e-5, 0, 0};
  for (const int steps : {7, 100}) {
    SCOPED_TRACE(steps);
    params.kernel = LbParams::Kernel::kSimd;
    const auto q15 = runGatheredState<D3Q15>(lattice, 3, params, steps);
    const auto q27 = runGatheredState<D3Q27>(lattice, 3, params, steps);
    params.kernel = LbParams::Kernel::kReference;
    expectStatesMatch<D3Q15>(
        q15, runGatheredState<D3Q15>(lattice, 3, params, steps), 1e-12);
    expectStatesMatch<D3Q27>(
        q27, runGatheredState<D3Q27>(lattice, 3, params, steps), 1e-12);
  }
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
    // distribution()/setDistributions() round-trip in external order, from
    // the AA layout one (even) step leaves behind.
    solver.step();
    ASSERT_TRUE(solver.oddParity());
    std::vector<std::vector<double>> columns;
    for (int i = 0; i < D3Q19::kQ; ++i) {
      columns.push_back(solver.distribution(i));
    }
    solver.setDistributions(columns);
    EXPECT_FALSE(solver.oddParity());
    for (int i = 0; i < D3Q19::kQ; ++i) {
      EXPECT_EQ(solver.distribution(i), columns[static_cast<std::size_t>(i)]);
    }
  });
}

}  // namespace
}  // namespace hemo::lb
