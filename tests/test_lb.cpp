// Lattice-Boltzmann solver tests: velocity-set algebra, conservation laws,
// Poiseuille validation against Hagen-Poiseuille, partition invariance
// (the same physics regardless of rank count), boundary conditions,
// steering setters, stress/WSS extraction and checkpoint/restart.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "comm/runtime.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/checkpoint.hpp"
#include "lb/solver.hpp"
#include "lb/wss.hpp"
#include "partition/partitioners.hpp"
#include "util/stats.hpp"

namespace hemo::lb {
namespace {

using geometry::SparseLattice;

template <typename Lattice>
void checkVelocitySetAlgebra() {
  const auto& set = Lattice::kSet;
  double wsum = 0.0;
  Vec3d first{0, 0, 0};
  double second[3][3] = {};
  for (int i = 0; i < Lattice::kQ; ++i) {
    const double w = set.w[static_cast<std::size_t>(i)];
    const Vec3d c = set.c[static_cast<std::size_t>(i)].template cast<double>();
    wsum += w;
    first += c * w;
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) second[a][b] += w * c[a] * c[b];
    }
    // Opposite table is an involution mapping c -> -c.
    const int o = set.opposite[static_cast<std::size_t>(i)];
    EXPECT_EQ(set.c[static_cast<std::size_t>(o)],
              -set.c[static_cast<std::size_t>(i)]);
    EXPECT_EQ(set.opposite[static_cast<std::size_t>(o)], i);
    // geoDir consistency.
    if (i == 0) {
      EXPECT_EQ(set.geoDir[0], -1);
    } else {
      EXPECT_EQ(geometry::kDirections[static_cast<std::size_t>(
                    set.geoDir[static_cast<std::size_t>(i)])],
                set.c[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_NEAR(wsum, 1.0, 1e-14);
  EXPECT_NEAR(first.norm(), 0.0, 1e-14);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_NEAR(second[a][b], a == b ? kCs2 : 0.0, 1e-14)
          << Lattice::kName << " second moment (" << a << "," << b << ")";
    }
  }
}

TEST(VelocitySets, D3Q19Algebra) { checkVelocitySetAlgebra<D3Q19>(); }
TEST(VelocitySets, D3Q15Algebra) { checkVelocitySetAlgebra<D3Q15>(); }
TEST(VelocitySets, D3Q27Algebra) { checkVelocitySetAlgebra<D3Q27>(); }

// The ownership index: localOf inverts globalOf on every owned id, and
// answers -1 for a foreign id and for an id past the end of the lattice.
TEST(DomainMap, LocalOfMatchesOwnedIds) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat =
      geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), opt);
  const auto graph = partition::buildSiteGraph(lat);
  const std::uint64_t n = lat.numFluidSites();
  for (int ranks = 1; ranks <= 4; ++ranks) {
    partition::MultilevelKWayPartitioner kway;
    const auto part = kway.partition(graph, ranks);
    std::uint64_t owned = 0;
    for (int r = 0; r < ranks; ++r) {
      const DomainMap domain(lat, part, r);
      owned += domain.numOwned();
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        ASSERT_EQ(domain.localOf(domain.globalOf(l)), l);
        if (l > 0) {
          ASSERT_LT(domain.globalOf(l - 1), domain.globalOf(l));
        }
      }
      for (std::uint64_t g = 0; g < n; ++g) {
        const bool mine = part.partOfSite[static_cast<std::size_t>(g)] == r;
        ASSERT_EQ(domain.localOf(g) >= 0, mine) << "rank " << r << " " << g;
        ASSERT_EQ(domain.ownerOf(g),
                  part.partOfSite[static_cast<std::size_t>(g)]);
      }
      EXPECT_EQ(domain.localOf(n), -1);
      EXPECT_EQ(domain.localOf(n + 1), -1);
      EXPECT_EQ(domain.localOf(0xFFFFFFFFull), -1);
      EXPECT_EQ(domain.localOf(~std::uint64_t{0}), -1);
    }
    EXPECT_EQ(owned, n) << ranks << " ranks";
  }
}

TEST(Equilibrium, MomentsMatchInputs) {
  const double rho = 1.05;
  const Vec3d u{0.02, -0.01, 0.005};
  double m0 = 0.0;
  Vec3d m1{0, 0, 0};
  for (int i = 0; i < D3Q19::kQ; ++i) {
    const double fi = equilibrium<D3Q19>(i, rho, u);
    m0 += fi;
    m1 += D3Q19::kSet.c[static_cast<std::size_t>(i)].cast<double>() * fi;
  }
  EXPECT_NEAR(m0, rho, 1e-13);
  EXPECT_NEAR((m1 / rho - u).norm(), 0.0, 1e-13);
}

// --- shared helpers ---------------------------------------------------------

struct GlobalField {
  std::vector<double> rho;
  std::vector<Vec3d> u;
};

/// Run `steps` on `ranks` thread-ranks, then collect the global macro
/// fields (each rank fills the slots of its owned sites).
template <typename Lattice = D3Q19>
GlobalField runGathered(
    const SparseLattice& lattice, int ranks, const LbParams& params,
    int steps,
    const std::type_identity_t<std::function<void(Solver<Lattice>&)>>&
        setup = nullptr) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, ranks);

  GlobalField field;
  field.rho.assign(lattice.numFluidSites(), 0.0);
  field.u.assign(lattice.numFluidSites(), Vec3d{});

  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, comm.rank());
    Solver<Lattice> solver(domain, comm, params);
    if (setup) setup(solver);
    solver.run(steps);
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const auto g = static_cast<std::size_t>(domain.globalOf(l));
      field.rho[g] = solver.macro().rho[static_cast<std::size_t>(l)];
      field.u[g] = solver.macro().u[static_cast<std::size_t>(l)];
    }
  });
  return field;
}

SparseLattice closedCavity() {
  geometry::Scene scene;
  scene.addShape(std::make_unique<geometry::SphereShape>(Vec3d{0, 0, 0}, 1.2));
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.15;
  return geometry::voxelize(scene, opt);
}

SparseLattice poiseuilleTube(double voxel = 0.125) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
}

// --- conservation -----------------------------------------------------------

TEST(Conservation, ClosedCavityMassExact) {
  const auto lattice = closedCavity();
  LbParams params;
  params.tau = 0.7;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, comm.size());
    DomainMap domain(lattice, part, comm.rank());
    SolverD3Q19 solver(domain, comm, params);
    // Seed a rotating perturbation.
    solver.initWith([](const Vec3d& w) {
      return std::pair{1.0, Vec3d{0.01 * w.y, -0.01 * w.x, 0.0}};
    });
    solver.step();  // refresh macros through one update
    const double m0 = comm.allreduceSum(solver.localMass());
    solver.run(100);
    const double m1 = comm.allreduceSum(solver.localMass());
    EXPECT_NEAR(m1 / m0, 1.0, 1e-12);
  });
}

TEST(Conservation, ClosedCavityMomentumDecays) {
  const auto lattice = closedCavity();
  LbParams params;
  params.tau = 0.7;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, 1);
    DomainMap domain(lattice, part, 0);
    SolverD3Q19 solver(domain, comm, params);
    solver.initWith([](const Vec3d&) {
      return std::pair{1.0, Vec3d{0.02, 0.0, 0.0}};
    });
    solver.step();
    const double p0 = solver.localMomentum().norm();
    solver.run(300);
    const double p1 = solver.localMomentum().norm();
    // No-slip walls drain momentum.
    EXPECT_LT(p1, 0.2 * p0);
  });
}

// --- Poiseuille validation ---------------------------------------------------

TEST(Poiseuille, BodyForceProfileMatchesParabola) {
  const auto lattice = poiseuilleTube();
  LbParams params;
  params.tau = 0.8;
  const double F = 1e-5;
  params.bodyForce = {F, 0, 0};

  const auto field = runGathered(lattice, 2, params, 2500);

  // Sample the cross-section at mid-tube; compare with
  // u(r) = F (R^2 - r^2) / (4 nu) in lattice units.
  const double h = lattice.voxelSize();
  const double nu = params.viscosity();
  const double Rworld = 1.0;
  const double R = Rworld / h;
  const double uMaxTheory = F * R * R / (4.0 * nu);

  double uMaxMeasured = 0.0;
  RunningStats relError;
  for (std::uint64_t g = 0; g < lattice.numFluidSites(); ++g) {
    const Vec3d w = lattice.siteWorld(g);
    if (std::abs(w.x - 2.0) > h) continue;  // mid-tube slab
    const double r = std::sqrt(w.y * w.y + w.z * w.z) / h;
    if (r > R - 2.0) continue;  // skip the staircase boundary layer
    const double expect = F * (R * R - r * r) / (4.0 * nu);
    const double got = field.u[static_cast<std::size_t>(g)].x;
    uMaxMeasured = std::max(uMaxMeasured, got);
    relError.add(std::abs(got - expect) / uMaxTheory);
  }
  ASSERT_GT(relError.count(), 50u);
  EXPECT_NEAR(uMaxMeasured / uMaxTheory, 1.0, 0.15);
  EXPECT_LT(relError.mean(), 0.10);
}

TEST(Poiseuille, TransverseVelocityNegligible) {
  const auto lattice = poiseuilleTube(0.2);
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  const auto field = runGathered(lattice, 2, params, 1200);
  double maxAxial = 0.0, maxTransverse = 0.0;
  for (const auto& u : field.u) {
    maxAxial = std::max(maxAxial, std::abs(u.x));
    maxTransverse =
        std::max({maxTransverse, std::abs(u.y), std::abs(u.z)});
  }
  EXPECT_LT(maxTransverse, 0.12 * maxAxial);
}

TEST(Poiseuille, PressureDrivenFlowFollowsGradient) {
  auto lattice = poiseuilleTube(0.2);
  // Raise inlet density, lower outlet density.
  auto iolets = lattice.iolets();
  ASSERT_EQ(iolets.size(), 2u);

  LbParams params;
  params.tau = 0.8;

  auto fluxWith = [&](double drho) {
    const auto field = runGathered(
        lattice, 2, params, 800, [&](SolverD3Q19& solver) {
          solver.setIoletDensity(0, 1.0 + drho);  // inlet
          solver.setIoletDensity(1, 1.0 - drho);  // outlet
        });
    double flux = 0.0;
    for (std::uint64_t g = 0; g < lattice.numFluidSites(); ++g) {
      flux += field.u[static_cast<std::size_t>(g)].x;
    }
    return flux;
  };

  const double f1 = fluxWith(0.001);
  const double f2 = fluxWith(0.002);
  EXPECT_GT(f1, 0.0);
  EXPECT_GT(f2, 1.5 * f1);  // roughly linear in the pressure drop
  const double fr = fluxWith(-0.001);
  EXPECT_LT(fr, 0.0);  // reversed gradient reverses the flow
}

// --- partition invariance -----------------------------------------------------

class RankInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(RankInvarianceTest, FieldsIndependentOfDecomposition) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lattice =
      geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), opt);
  LbParams params;
  params.tau = 0.75;
  params.bodyForce = {5e-6, 0, 0};

  const auto reference = runGathered(lattice, 1, params, 40);
  const auto parallel = runGathered(lattice, GetParam(), params, 40);
  ASSERT_EQ(parallel.u.size(), reference.u.size());
  for (std::size_t g = 0; g < reference.u.size(); ++g) {
    EXPECT_NEAR((parallel.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
    EXPECT_NEAR(parallel.rho[g] - reference.rho[g], 0.0, 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankInvarianceTest,
                         ::testing::Values(2, 3, 4, 7));

TEST(Determinism, RepeatedRunsBitIdentical) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lattice =
      geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  const auto a = runGathered(lattice, 3, params, 30);
  const auto b = runGathered(lattice, 3, params, 30);
  for (std::size_t g = 0; g < a.u.size(); ++g) {
    EXPECT_EQ(a.u[g].x, b.u[g].x);
    EXPECT_EQ(a.rho[g], b.rho[g]);
  }
}

// --- collision operators -------------------------------------------------------

TEST(Trt, ProfileMatchesParabola) {
  // TRT with magic 3/16 places the bounce-back wall exactly mid-link, so
  // the coarse-lattice profile should track theory at least as well as BGK.
  const auto lattice = poiseuilleTube();
  LbParams trt;
  trt.tau = 0.8;
  trt.bodyForce = {1e-5, 0, 0};
  trt.collision = LbParams::Collision::kTrt;
  const auto field = runGathered(lattice, 2, trt, 2500);

  const double h = lattice.voxelSize();
  const double nu = trt.viscosity();
  const double R = 1.0 / h;
  const double uMaxTheory = 1e-5 * R * R / (4.0 * nu);
  RunningStats relError;
  for (std::uint64_t g = 0; g < lattice.numFluidSites(); ++g) {
    const Vec3d w = lattice.siteWorld(g);
    if (std::abs(w.x - 2.0) > h) continue;
    const double r = std::sqrt(w.y * w.y + w.z * w.z) / h;
    if (r > R - 2.0) continue;
    const double expect = 1e-5 * (R * R - r * r) / (4.0 * nu);
    relError.add(std::abs(field.u[static_cast<std::size_t>(g)].x - expect) /
                 uMaxTheory);
  }
  ASSERT_GT(relError.count(), 50u);
  EXPECT_LT(relError.mean(), 0.10);
}

TEST(Trt, AgreesWithBgkInTheBulk) {
  // The operators differ in their wall-slip error, not in the bulk
  // hydrodynamics — compare away from the staircase boundary.
  const auto lattice = poiseuilleTube(0.2);
  LbParams bgk;
  bgk.tau = 0.8;
  bgk.bodyForce = {1e-5, 0, 0};
  LbParams trt = bgk;
  trt.collision = LbParams::Collision::kTrt;

  const auto a = runGathered(lattice, 2, bgk, 1200);
  const auto b = runGathered(lattice, 2, trt, 1200);
  double num = 0.0, den = 0.0;
  for (std::uint64_t g = 0; g < lattice.numFluidSites(); ++g) {
    const Vec3d w = lattice.siteWorld(g);
    if (std::sqrt(w.y * w.y + w.z * w.z) > 0.5) continue;  // core only
    num += (a.u[static_cast<std::size_t>(g)] -
            b.u[static_cast<std::size_t>(g)])
               .norm2();
    den += a.u[static_cast<std::size_t>(g)].norm2();
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.25);
}

TEST(Lattice27, ProfileAgreesWithD3Q19) {
  // The 27-velocity set resolves the same hydrodynamics; bulk fields from
  // the two lattices must agree closely after the same number of steps.
  const auto lattice = poiseuilleTube(0.2);
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  const auto a = runGathered<D3Q19>(lattice, 2, params, 800);
  const auto b = runGathered<D3Q27>(lattice, 2, params, 800);
  double num = 0.0, den = 0.0;
  for (std::size_t g = 0; g < a.u.size(); ++g) {
    num += (a.u[g] - b.u[g]).norm2();
    den += a.u[g].norm2();
  }
  EXPECT_LT(std::sqrt(num / den), 0.05);
}

TEST(Lattice15, RunsStablyOnTube) {
  const auto lattice = poiseuilleTube(0.25);
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  const auto f = runGathered<D3Q15>(lattice, 2, params, 400);
  double maxU = 0.0;
  for (const auto& u : f.u) maxU = std::max(maxU, u.norm());
  EXPECT_GT(maxU, 0.0);
  EXPECT_LT(maxU, 0.1);  // stable, low Mach
  for (const double r : f.rho) {
    EXPECT_GT(r, 0.8);
    EXPECT_LT(r, 1.2);
  }
}

// --- stress & WSS ----------------------------------------------------------------

TEST(Stress, PoiseuilleShearIsLinearInRadius) {
  const auto lattice = poiseuilleTube();
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  params.computeStress = true;

  const auto graph = partition::buildSiteGraph(lattice);
  partition::SfcPartitioner sfc;
  const auto part = sfc.partition(graph, 1);

  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, 0);
    SolverD3Q19 solver(domain, comm, params);
    solver.run(2500);
    // sigma_xy should be ~ -F*y/2 (force balance) in the bulk.
    const double h = lattice.voxelSize();
    RunningStats err;
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const Vec3d w = lattice.siteWorld(domain.globalOf(l));
      if (std::abs(w.x - 2.0) > h || std::abs(w.z) > 0.2) continue;
      const double y = w.y / h;  // lattice units
      if (std::abs(w.y) > 0.7) continue;
      const double expected = -1e-5 * y / 2.0;
      const double got = solver.macro().stress[l].xy();
      err.add(std::abs(got - expected));
    }
    ASSERT_GT(err.count(), 10u);
    EXPECT_LT(err.mean(), 2e-6);
  });
}

TEST(Wss, ScalesLinearlyWithDrivingForce) {
  const auto lattice = poiseuilleTube(0.2);
  auto meanWss = [&](double F) {
    LbParams params;
    params.tau = 0.8;
    params.bodyForce = {F, 0, 0};
    params.computeStress = true;
    const auto graph = partition::buildSiteGraph(lattice);
    partition::SfcPartitioner sfc;
    const auto part = sfc.partition(graph, 1);
    double result = 0.0;
    comm::Runtime rt(1);
    rt.run([&](comm::Communicator& comm) {
      DomainMap domain(lattice, part, 0);
      SolverD3Q19 solver(domain, comm, params);
      solver.run(1200);
      const auto samples = computeWallShearStress(domain, solver.macro());
      ASSERT_GT(samples.size(), 50u);
      RunningStats s;
      for (const auto& w : samples) s.add(w.wss);
      result = s.mean();
    });
    return result;
  };
  const double w1 = meanWss(1e-5);
  const double w2 = meanWss(2e-5);
  EXPECT_GT(w1, 0.0);
  EXPECT_NEAR(w2 / w1, 2.0, 0.1);
}

TEST(Wss, MagnitudeNearTheory) {
  const auto lattice = poiseuilleTube();
  LbParams params;
  params.tau = 0.8;
  const double F = 1e-5;
  params.bodyForce = {F, 0, 0};
  params.computeStress = true;
  const auto graph = partition::buildSiteGraph(lattice);
  partition::SfcPartitioner sfc;
  const auto part = sfc.partition(graph, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, 0);
    SolverD3Q19 solver(domain, comm, params);
    solver.run(2500);
    const auto samples = computeWallShearStress(domain, solver.macro());
    RunningStats s;
    for (const auto& w : samples) {
      const Vec3d p = w.worldPos;
      if (std::abs(p.x - 2.0) > 0.5) continue;  // mid-tube band
      s.add(w.wss);
    }
    ASSERT_GT(s.count(), 20u);
    // Theory: wall shear = F*R/2 with R = 8 lattice units.
    const double theory = F * 8.0 / 2.0;
    EXPECT_NEAR(s.mean() / theory, 1.0, 0.35);
  });
}

// --- steering hooks ---------------------------------------------------------------

TEST(Steering, TauAndForceSettersApply) {
  const auto lattice = poiseuilleTube(0.25);
  const auto graph = partition::buildSiteGraph(lattice);
  partition::SfcPartitioner sfc;
  const auto part = sfc.partition(graph, 1);
  LbParams params;
  params.tau = 0.8;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, 0);
    SolverD3Q19 solver(domain, comm, params);
    solver.setTau(1.1);
    EXPECT_DOUBLE_EQ(solver.params().tau, 1.1);
    EXPECT_THROW(solver.setTau(0.4), CheckError);
    solver.setBodyForce({2e-5, 0, 0});
    solver.run(50);
    double maxU = 0.0;
    for (const auto& u : solver.macro().u) maxU = std::max(maxU, u.norm());
    EXPECT_GT(maxU, 0.0);
    solver.setIoletDensity(0, 1.01);
    EXPECT_DOUBLE_EQ(solver.ioletDensity(0), 1.01);
    EXPECT_THROW(solver.setIoletDensity(5, 1.0), CheckError);
  });
}

TEST(Solver, RejectsUnstableTau) {
  const auto lattice = poiseuilleTube(0.25);
  const auto graph = partition::buildSiteGraph(lattice);
  partition::SfcPartitioner sfc;
  const auto part = sfc.partition(graph, 1);
  LbParams params;
  params.tau = 0.5;
  comm::Runtime rt(1);
  EXPECT_THROW(rt.run([&](comm::Communicator& comm) {
                 DomainMap domain(lattice, part, 0);
                 SolverD3Q19 solver(domain, comm, params);
               }),
               CheckError);
}

// --- checkpoint/restart --------------------------------------------------------------

TEST(Checkpoint, RestartReproducesRunEvenAcrossPartitions) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lattice =
      geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
  const auto graph = partition::buildSiteGraph(lattice);
  LbParams params;
  params.tau = 0.8;
  params.bodyForce = {1e-5, 0, 0};
  const std::string path = "/tmp/hemo_test_ckpt.bin";

  // Reference: 30 uninterrupted steps on 2 ranks (kway partition).
  const auto reference = runGathered(lattice, 2, params, 30);

  // Run 15 steps on 2 ranks, checkpoint, restore into a 3-rank run with a
  // different decomposition, run 15 more.
  {
    partition::MultilevelKWayPartitioner kway;
    const auto part = kway.partition(graph, 2);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      DomainMap domain(lattice, part, comm.rank());
      SolverD3Q19 solver(domain, comm, params);
      solver.run(15);
      writeCheckpoint(path, solver, comm);
    });
  }
  GlobalField restored;
  restored.rho.assign(lattice.numFluidSites(), 0.0);
  restored.u.assign(lattice.numFluidSites(), Vec3d{});
  {
    partition::RcbPartitioner rcb;
    const auto part = rcb.partition(graph, 3);
    comm::Runtime rt(3);
    rt.run([&](comm::Communicator& comm) {
      DomainMap domain(lattice, part, comm.rank());
      SolverD3Q19 solver(domain, comm, params);
      const auto result = readCheckpoint(path, solver, comm);
      EXPECT_TRUE(result.ok()) << result.detail;
      EXPECT_EQ(result.step, 15u);
      EXPECT_EQ(solver.stepsDone(), 15u);
      solver.run(15);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        const auto g = static_cast<std::size_t>(domain.globalOf(l));
        restored.rho[g] = solver.macro().rho[l];
        restored.u[g] = solver.macro().u[l];
      }
    });
  }
  for (std::size_t g = 0; g < reference.u.size(); ++g) {
    EXPECT_NEAR((restored.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
    EXPECT_NEAR(restored.rho[g] - reference.rho[g], 0.0, 1e-13);
  }
  std::remove(path.c_str());
}

TEST(Timers, PhasesAccumulate) {
  const auto lattice = poiseuilleTube(0.25);
  const auto graph = partition::buildSiteGraph(lattice);
  partition::SfcPartitioner sfc;
  const auto part = sfc.partition(graph, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, comm.rank());
    LbParams params;
    SolverD3Q19 solver(domain, comm, params);
    solver.run(10);
    EXPECT_GT(solver.collideTimer().total(), 0.0);
    EXPECT_GT(solver.streamTimer().total(), 0.0);
    solver.resetTimers();
    EXPECT_EQ(solver.collideTimer().total(), 0.0);
  });
}

TEST(Traffic, HaloBytesMatchPlanSize) {
  const auto lattice = poiseuilleTube(0.25);
  const auto graph = partition::buildSiteGraph(lattice);
  partition::RcbPartitioner rcb;
  const auto part = rcb.partition(graph, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    DomainMap domain(lattice, part, comm.rank());
    LbParams params;
    SolverD3Q19 solver(domain, comm, params);
    solver.run(5);
  });
  const auto halo = rt.totalCounters().of(comm::Traffic::kHalo);
  EXPECT_GT(halo.bytesSent, 0u);
  EXPECT_EQ(halo.bytesSent, halo.bytesReceived);
  // 5 steps, 2 ranks, symmetric cut: messages = 2 ranks × 5 steps (+ setup).
  EXPECT_GE(halo.messagesSent, 10u);
}

}  // namespace
}  // namespace hemo::lb
