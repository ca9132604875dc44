// Tests for the visualisation substrate: camera/image/transfer algebra,
// ghosted field exchange, trilinear sampling, distributed streamlines
// (including bitwise rank invariance), volume rendering + both compositors,
// in situ tracers and slice LIC.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/runtime.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "partition/partitioners.hpp"
#include "vis/camera.hpp"
#include "vis/lic.hpp"
#include "vis/line_render.hpp"
#include "vis/particles.hpp"
#include "vis/sampler.hpp"
#include "vis/streamlines.hpp"
#include "vis/transfer.hpp"
#include "vis/volume.hpp"

namespace hemo::vis {
namespace {

using geometry::SparseLattice;

// --- camera / image / transfer ------------------------------------------------

TEST(Camera, CentralRayPointsForward) {
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  const Ray r = cam.rayThrough(63, 63, 128, 128);
  EXPECT_NEAR(r.direction.z, -1.0, 0.02);
  EXPECT_NEAR(r.direction.norm(), 1.0, 1e-12);
}

TEST(Camera, CornerRaysDiverge) {
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  const Ray tl = cam.rayThrough(0, 0, 128, 128);
  const Ray br = cam.rayThrough(127, 127, 128, 128);
  EXPECT_LT(tl.direction.x, 0.0);
  EXPECT_GT(tl.direction.y, 0.0);
  EXPECT_GT(br.direction.x, 0.0);
  EXPECT_LT(br.direction.y, 0.0);
}

TEST(Rgba, FrontToBackAccumulationMatchesOver) {
  // Accumulating a then b front-to-back == placing a over b.
  const Rgba a{0.2f, 0.1f, 0.0f, 0.4f};  // premultiplied
  const Rgba b{0.0f, 0.3f, 0.3f, 0.6f};
  Rgba acc;
  acc.accumulate(a);
  acc.accumulate(b);
  Rgba over = b;
  over.under(a);
  EXPECT_NEAR(acc.r, over.r, 1e-6);
  EXPECT_NEAR(acc.g, over.g, 1e-6);
  EXPECT_NEAR(acc.b, over.b, 1e-6);
  EXPECT_NEAR(acc.a, over.a, 1e-6);
}

TEST(Rgba, OpaqueFrontBlocksBack) {
  Rgba acc;
  acc.accumulate(Rgba{1.f, 0.f, 0.f, 1.f});
  acc.accumulate(Rgba{0.f, 1.f, 0.f, 1.f});
  EXPECT_FLOAT_EQ(acc.r, 1.f);
  EXPECT_FLOAT_EQ(acc.g, 0.f);
  EXPECT_FLOAT_EQ(acc.a, 1.f);
}

TEST(TransferFunction, ClampsAndInterpolates) {
  TransferFunction tf({{0.f, 0.f, 0.f, 0.f, 0.f}, {1.f, 1.f, 0.f, 0.f, 1.f}});
  EXPECT_FLOAT_EQ(tf.sample(-5.f).a, 0.f);
  EXPECT_FLOAT_EQ(tf.sample(2.f).a, 1.f);
  const Rgba mid = tf.sample(0.5f);
  EXPECT_NEAR(mid.a, 0.5f, 1e-6);
  EXPECT_NEAR(mid.r, 0.25f, 1e-6);  // premultiplied: 0.5 colour × 0.5 alpha
}

TEST(TransferFunction, RejectsNonAscendingPoints) {
  EXPECT_THROW(TransferFunction({{1.f, 0, 0, 0, 0}, {0.f, 0, 0, 0, 0}}),
               CheckError);
}

TEST(Image, ToRgb8CompositesBackground) {
  Image img(2, 1);
  img.at(0, 0) = Rgba{1.f, 0.f, 0.f, 1.f};
  const auto rgb = img.toRgb8(0.5f);
  EXPECT_EQ(rgb[0], 255);  // opaque red pixel
  EXPECT_EQ(rgb[3], 128);  // empty pixel shows the background
}

// --- fixtures -------------------------------------------------------------------

SparseLattice tubeLattice(double voxel = 0.25) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(6.0, 1.0), opt);
}

partition::Partition makePartition(const SparseLattice& lat, int parts) {
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  return kway.partition(graph, parts);
}

/// Synthetic macro fields: u = fn(world), rho = 1.
lb::MacroFields syntheticField(
    const lb::DomainMap& domain,
    const std::function<Vec3d(const Vec3d&)>& fn) {
  lb::MacroFields macro;
  macro.rho.assign(domain.numOwned(), 1.0);
  macro.u.resize(domain.numOwned());
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    macro.u[l] = fn(domain.lattice().siteWorld(domain.globalOf(l)));
  }
  return macro;
}

// --- ghosted field / sampler ------------------------------------------------------

TEST(GhostedField, GhostValuesMatchOwners) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d& w) { return Vec3d{w.x, w.y, w.z}; });
    GhostedField field(domain, comm, 1);
    field.refresh(macro, comm);
    // Every ghost value equals the analytic field at that site.
    int checked = 0;
    for (std::uint64_t g = 0; g < lat.numFluidSites(); ++g) {
      if (domain.ownerOf(g) == domain.rank()) continue;
      const auto u = field.velocityAt(g);
      if (!u) continue;  // not in this rank's ghost ring
      const Vec3d w = lat.siteWorld(g);
      EXPECT_NEAR((*u - Vec3d{w.x, w.y, w.z}).norm(), 0.0, 1e-12);
      ++checked;
    }
    EXPECT_GT(checked, 0);
  });
}

TEST(GhostedField, TwoRingsCoverMoreThanOne) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    GhostedField one(domain, comm, 1);
    GhostedField two(domain, comm, 2);
    EXPECT_GT(two.ghostCount(), one.ghostCount());
  });
}

// The ghost plan against a brute-force 2-ring search: ring k is every
// foreign site one 26-neighbour step from ring k-1 (ring 0 = owned) and in
// no earlier ring. After a refresh every ghost reads its owner's value and
// every other foreign site (and any id past the end) reads nullopt.
TEST(GhostedField, GhostSetMatchesBruteForceRings) {
  geometry::VoxelizeOptions vopt;
  vopt.voxelSize = 0.25;
  const auto lat =
      geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), vopt);
  partition::MultilevelKWayPartitioner::Options kopt;
  kopt.seed = 20240917;
  const auto part = partition::MultilevelKWayPartitioner(kopt).partition(
      partition::buildSiteGraph(lat), 4);
  const std::uint64_t n = lat.numFluidSites();
  // The value every rank's fields hold for global site g.
  const auto uOf = [](std::uint64_t g) {
    const double x = static_cast<double>(g);
    return Vec3d{x, -2.0 * x, 0.5 + x};
  };
  const auto rhoOf = [](std::uint64_t g) {
    return 1.0 + 1e-6 * static_cast<double>(g);
  };
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    std::vector<int> ring(static_cast<std::size_t>(n), -1);
    for (const auto g : domain.ownedIds()) ring[g] = 0;
    for (int k = 1; k <= 2; ++k) {
      for (std::uint64_t g = 0; g < n; ++g) {
        if (ring[g] != -1) continue;
        for (int d = 0; d < geometry::kNumDirections; ++d) {
          const auto nb = lat.neighborId(g, d);
          if (nb >= 0 && ring[static_cast<std::size_t>(nb)] == k - 1) {
            ring[g] = k;
            break;
          }
        }
      }
    }
    std::uint64_t expected = 0;
    for (std::uint64_t g = 0; g < n; ++g) expected += ring[g] > 0 ? 1 : 0;

    lb::MacroFields macro;
    for (const auto g : domain.ownedIds()) {
      macro.u.push_back(uOf(g));
      macro.rho.push_back(rhoOf(g));
    }
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    EXPECT_EQ(field.ghostCount(), expected) << "rank " << comm.rank();
    EXPECT_GT(expected, 0u);
    for (std::uint64_t g = 0; g < n; ++g) {
      const auto u = field.velocityAt(g);
      const auto rho = field.densityAt(g);
      if (ring[g] >= 0) {
        ASSERT_TRUE(u && rho) << "rank " << comm.rank() << " site " << g;
        EXPECT_EQ(*u, uOf(g));
        EXPECT_EQ(*rho, rhoOf(g));
      } else {
        EXPECT_FALSE(u) << "rank " << comm.rank() << " site " << g;
        EXPECT_FALSE(rho) << "rank " << comm.rank() << " site " << g;
      }
    }
    EXPECT_FALSE(field.velocityAt(n));
    EXPECT_FALSE(field.densityAt(n + 7));
  });
}

TEST(Sampler, ExactAtSiteCentreAndInterpolatedBetween) {
  const auto lat = tubeLattice();
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lat.numFluidSites(), 0);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    auto macro = syntheticField(
        domain, [](const Vec3d& w) { return Vec3d{w.x, 0, 0}; });
    GhostedField field(domain, comm, 1);
    field.refresh(macro, comm);
    VelocitySampler sampler(field);
    // A deep-interior site: the sampled x-velocity == analytic x (linear
    // field reproduced exactly by trilinear interpolation).
    const Vec3d probe{3.0, 0.0, 0.0};
    const auto u = sampler.sample(probe);
    ASSERT_TRUE(u.has_value());
    EXPECT_NEAR(u->x, 3.0, 1e-9);
    // Outside the fluid: nullopt.
    EXPECT_FALSE(sampler.sample(Vec3d{3.0, 1.6, 0.0}).has_value());
  });
}

// --- streamlines -------------------------------------------------------------------

TEST(DiscSeeds, LieOnDiscDeterministically) {
  const auto seeds = discSeeds({1, 2, 3}, {0, 0, 1}, 2.0, 64);
  ASSERT_EQ(seeds.size(), 64u);
  for (const auto& s : seeds) {
    EXPECT_NEAR(s.z, 3.0, 1e-12);                      // on the plane
    EXPECT_LE((s - Vec3d{1, 2, 3}).norm(), 2.0 + 1e-9);  // inside radius
  }
  EXPECT_EQ(discSeeds({1, 2, 3}, {0, 0, 1}, 2.0, 64)[10], seeds[10]);
}

TEST(Streamlines, UniformFlowGivesStraightMonotoneLines) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    params.maxVertices = 300;
    const auto lines = traceStreamlines(
        comm, field, {{0.5, 0, 0}, {0.5, 0.4, 0.2}}, params);
    ASSERT_EQ(lines.size(), 2u);
    for (const auto& line : lines) {
      ASSERT_GT(line.vertices.size(), 20u);
      for (std::size_t v = 1; v < line.vertices.size(); ++v) {
        EXPECT_GT(line.vertices[v].x, line.vertices[v - 1].x);
        EXPECT_NEAR(line.vertices[v].y, line.vertices[0].y, 1e-4);
        EXPECT_NEAR(line.vertices[v].z, line.vertices[0].z, 1e-4);
      }
    }
  });
}

std::vector<Polyline> traceOnRanks(const SparseLattice& lat, int ranks,
                                   TraceStats* stats = nullptr) {
  const auto part = makePartition(lat, ranks);
  const auto seeds = discSeeds({0.5, 0, 0}, {1, 0, 0}, 0.7, 16);
  std::vector<Polyline> result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    // A swirling analytic field exercising all three components.
    auto macro = syntheticField(domain, [](const Vec3d& w) {
      return Vec3d{0.02, 0.004 * std::sin(w.x), 0.004 * std::cos(w.x)};
    });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    params.maxVertices = 400;
    // Each rank fills its own stats (the same reduced values); rank 0's
    // are reported.
    TraceStats local;
    auto lines = traceStreamlines(comm, field, seeds, params,
                                  stats != nullptr ? &local : nullptr);
    if (comm.rank() == 0) {
      result = std::move(lines);
      if (stats != nullptr) *stats = local;
    }
  });
  return result;
}

TEST(Streamlines, BitwiseRankInvariance) {
  const auto lat = tubeLattice();
  const auto serial = traceOnRanks(lat, 1);
  TraceStats stats;
  const auto parallel = traceOnRanks(lat, 4, &stats);
  EXPECT_GT(stats.migrations, 0u);  // particles really crossed ranks
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i].seedId, serial[i].seedId);
    ASSERT_EQ(parallel[i].vertices.size(), serial[i].vertices.size())
        << "seed " << serial[i].seedId;
    for (std::size_t v = 0; v < serial[i].vertices.size(); ++v) {
      EXPECT_EQ(parallel[i].vertices[v].x, serial[i].vertices[v].x);
      EXPECT_EQ(parallel[i].vertices[v].y, serial[i].vertices[v].y);
      EXPECT_EQ(parallel[i].vertices[v].z, serial[i].vertices[v].z);
    }
  }
}

TEST(Streamlines, SeedsOutsideFluidAreDropped) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    const auto lines = traceStreamlines(
        comm, field, {{3.0, 5.0, 5.0}, {3.0, 0.0, 0.0}}, params);
    if (comm.rank() == 0) {
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_EQ(lines[0].seedId, 1u);
    }
  });
}

// --- volume rendering -----------------------------------------------------------

VolumeRenderOptions tubeRenderOptions(int size = 96) {
  VolumeRenderOptions opt;
  opt.camera.position = {3.0, 0.5, 6.0};
  opt.camera.target = {3.0, 0.0, 0.0};
  opt.width = size;
  opt.height = size;
  opt.transfer = TransferFunction::bloodFlow(0.f, 0.02f);
  return opt;
}

Image renderOnRanks(const SparseLattice& lat, int ranks, CompositeMode mode) {
  const auto part = makePartition(lat, ranks);
  Image result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(domain, [](const Vec3d& w) {
      return Vec3d{0.02 * (1.0 - (w.y * w.y + w.z * w.z)), 0, 0};
    });
    auto img = renderVolume(comm, domain, macro, tubeRenderOptions(), mode);
    if (comm.rank() == 0) result = std::move(img);
  });
  return result;
}

TEST(VolumeRender, SerialImageShowsTheTube) {
  const auto lat = tubeLattice();
  const Image img = renderOnRanks(lat, 1, CompositeMode::kDirectSend);
  int covered = 0;
  for (std::size_t i = 0; i < img.numPixels(); ++i) {
    if (img.pixel(i).a > 0.01f) ++covered;
  }
  // The tube should cover a significant band of the image, not all of it.
  EXPECT_GT(covered, static_cast<int>(img.numPixels()) / 20);
  EXPECT_LT(covered, static_cast<int>(img.numPixels()) * 3 / 4);
}

TEST(VolumeRender, DirectSendMatchesSerial) {
  const auto lat = tubeLattice();
  const Image serial = renderOnRanks(lat, 1, CompositeMode::kDirectSend);
  const Image parallel = renderOnRanks(lat, 4, CompositeMode::kDirectSend);
  double sumDiff = 0.0;
  for (std::size_t i = 0; i < serial.numPixels(); ++i) {
    sumDiff += std::abs(serial.pixel(i).a - parallel.pixel(i).a) +
               std::abs(serial.pixel(i).r - parallel.pixel(i).r);
  }
  EXPECT_LT(sumDiff / static_cast<double>(serial.numPixels()), 0.01);
}

TEST(VolumeRender, BinarySwapMatchesDirectSend) {
  const auto lat = tubeLattice();
  const Image ds = renderOnRanks(lat, 4, CompositeMode::kDirectSend);
  const Image bs = renderOnRanks(lat, 4, CompositeMode::kBinarySwap);
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < ds.numPixels(); ++i) {
    maxDiff = std::max<double>(
        maxDiff, std::abs(ds.pixel(i).a - bs.pixel(i).a));
  }
  EXPECT_LT(maxDiff, 5e-3);
}

TEST(VolumeRender, BinarySwapRejectsNonPowerOfTwo) {
  const auto lat = tubeLattice(0.35);
  comm::Runtime rt(3);
  EXPECT_THROW(
      rt.run([&](comm::Communicator& comm) {
        const auto part = makePartition(lat, 3);
        lb::DomainMap domain(lat, part, comm.rank());
        auto macro = syntheticField(
            domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
        renderVolume(comm, domain, macro, tubeRenderOptions(32),
                     CompositeMode::kBinarySwap);
      }),
      CheckError);
}

// --- tracers ---------------------------------------------------------------------

TEST(Tracers, UniformFlowAdvectsAndMigrates) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.2, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    const auto seeds = discSeeds({0.5, 0, 0}, {1, 0, 0}, 0.6, 32);
    swarm.inject(comm, seeds);
    EXPECT_EQ(swarm.globalCount(comm), 32u);
    const double h = lat.voxelSize();
    // 60 steps × 0.2 voxels/step × 0.25 world/voxel = 3 world units —
    // enough to cross several of the 4 parts of a 6-unit tube.
    for (int s = 0; s < 60; ++s) swarm.advect(comm);
    EXPECT_EQ(swarm.globalCount(comm), 32u);
    const auto all = swarm.gather(comm);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 32u);
      for (const auto& t : all) {
        EXPECT_EQ(t.age, 60u);
        EXPECT_NEAR(t.pos.x - 0.5, 60 * 0.2 * h, 1e-6);
      }
    }
    const std::uint64_t migrations =
        comm.allreduceSum(swarm.stats().migrations);
    if (comm.rank() == 0) {
      EXPECT_GT(migrations, 0u);
    }
  });
}

TEST(Tracers, WallImpactKills) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    // Strong upward flow: tracers crash into the wall.
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0, 0.3, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    swarm.inject(comm, discSeeds({3.0, 0, 0}, {1, 0, 0}, 0.5, 16));
    for (int s = 0; s < 60; ++s) swarm.advect(comm);
    EXPECT_EQ(swarm.globalCount(comm), 0u);
    EXPECT_GT(swarm.stats().killedAtWall, 0u);
  });
}

TEST(Tracers, StreaklineInjectionAccumulates) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.05, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    const std::vector<Vec3d> nozzle{{0.5, 0, 0}};
    for (int s = 0; s < 10; ++s) {
      swarm.inject(comm, nozzle);
      swarm.advect(comm);
    }
    EXPECT_EQ(swarm.globalCount(comm), 10u);
    const auto all = swarm.gather(comm);
    if (comm.rank() == 0) {
      // Ages 1..10, each distinct — a streak along the axis.
      std::set<std::uint32_t> ages;
      for (const auto& t : all) ages.insert(t.age);
      EXPECT_EQ(ages.size(), 10u);
    }
  });
}

// --- LIC --------------------------------------------------------------------------

LicResult licOnRanks(const SparseLattice& lat, int ranks) {
  const auto part = makePartition(lat, ranks);
  LicResult result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.02, 0, 0}; });
    LicOptions opt;
    opt.axis = 2;
    opt.sliceIndex = lat.dims().z / 2;
    auto lic = computeLicSlice(comm, domain, macro, opt);
    if (comm.rank() == 0) result = std::move(lic);
  });
  return result;
}

TEST(Lic, IntensityOnlyOnFluid) {
  const auto lat = tubeLattice();
  const auto lic = licOnRanks(lat, 1);
  ASSERT_GT(lic.width, 0);
  int fluidPixels = 0;
  for (std::size_t i = 0; i < lic.intensity.size(); ++i) {
    if (lic.fluidMask[i]) {
      ++fluidPixels;
      EXPECT_GE(lic.intensity[i], 0.f);
      EXPECT_LE(lic.intensity[i], 1.f);
    } else {
      EXPECT_EQ(lic.intensity[i], 0.f);
    }
  }
  EXPECT_GT(fluidPixels, 100);
}

TEST(Lic, RankInvariant) {
  const auto lat = tubeLattice();
  const auto serial = licOnRanks(lat, 1);
  const auto parallel = licOnRanks(lat, 4);
  ASSERT_EQ(parallel.intensity.size(), serial.intensity.size());
  for (std::size_t i = 0; i < serial.intensity.size(); ++i) {
    EXPECT_EQ(parallel.intensity[i], serial.intensity[i]) << "pixel " << i;
  }
}

TEST(Lic, SmearsAlongTheFlowDirection) {
  // With uniform +x flow, LIC averages noise along x: variance along rows
  // (x) must be much smaller than along columns (y).
  const auto lat = tubeLattice();
  const auto lic = licOnRanks(lat, 1);
  double varAlong = 0.0, varAcross = 0.0;
  int nAlong = 0, nAcross = 0;
  auto at = [&](int x, int y) {
    return lic.intensity[static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(lic.width) +
                         static_cast<std::size_t>(x)];
  };
  auto isFluid = [&](int x, int y) {
    return lic.fluidMask[static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(lic.width) +
                         static_cast<std::size_t>(x)] != 0;
  };
  for (int y = 1; y + 1 < lic.height; ++y) {
    for (int x = 1; x + 1 < lic.width; ++x) {
      if (!isFluid(x, y)) continue;
      if (isFluid(x + 1, y)) {
        const double d = at(x + 1, y) - at(x, y);
        varAlong += d * d;
        ++nAlong;
      }
      if (isFluid(x, y + 1)) {
        const double d = at(x, y + 1) - at(x, y);
        varAcross += d * d;
        ++nAcross;
      }
    }
  }
  ASSERT_GT(nAlong, 50);
  ASSERT_GT(nAcross, 50);
  EXPECT_LT(varAlong / nAlong, 0.35 * (varAcross / nAcross));
}

// --- line rendering ------------------------------------------------------------------

TEST(LineRender, DrawsVisibleDepthTestedLines) {
  Image img(64, 64);
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  Polyline line;
  line.seedId = 0;
  line.vertices = {{-1.f, 0.f, 0.f}, {1.f, 0.f, 0.f}};
  drawPolylines(img, cam, {line});
  int lit = 0;
  for (std::size_t i = 0; i < img.numPixels(); ++i) {
    if (img.pixel(i).a > 0.f) ++lit;
  }
  EXPECT_GT(lit, 10);
  // A nearer line overwrites; a farther line does not.
  Polyline near = line;
  near.seedId = 1;
  near.vertices = {{-1.f, 0.f, 2.f}, {1.f, 0.f, 2.f}};
  drawPolylines(img, cam, {near});
  Polyline far = line;
  far.seedId = 2;
  far.vertices = {{-1.f, 0.f, -2.f}, {1.f, 0.f, -2.f}};
  const Rgba before = img.at(32, 32);
  drawPolylines(img, cam, {far});
  // Centre pixel keeps the nearer line's colour.
  EXPECT_FLOAT_EQ(img.at(32, 32).r, before.r);
}

TEST(LineRender, SeedColorsCycleDistinctly) {
  EXPECT_NE(seedColor(0).r, seedColor(1).r);
  EXPECT_FLOAT_EQ(seedColor(0).r, seedColor(8).r);
}

}  // namespace
}  // namespace hemo::vis
