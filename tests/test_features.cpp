// Tests for the second extension wave: velocity-BC iolets, distributed
// feature extraction, streakline assembly and steering observables over a
// user-defined subset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/preprocess.hpp"
#include "geometry/sgmy.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "serve/broker.hpp"
#include "steer/client.hpp"
#include "vis/features.hpp"
#include "vis/particles.hpp"

namespace hemo {
namespace {

geometry::SparseLattice tube(double voxel = 0.25) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
}

partition::Partition kway(const geometry::SparseLattice& lat, int parts) {
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner p;
  return p.partition(graph, parts);
}

// --- velocity iolets -------------------------------------------------------------

TEST(VelocityIolet, PlugInflowProducesPrescribedMeanVelocity) {
  const auto lat = tube(0.2);
  const auto part = kway(lat, 2);
  const double u0 = 0.01;  // lattice units
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::LbParams params;
    params.tau = 0.8;
    lb::SolverD3Q19 solver(domain, comm, params);
    // Inlet becomes a velocity BC; outlet stays a pressure BC at rho=1.
    solver.setIoletVelocity(0, {u0, 0, 0});
    solver.run(1500);
    // Mean axial velocity across a mid-tube slab ≈ the prescribed plug
    // speed (mass conservation: equal cross-section areas).
    double sum = 0.0;
    std::uint64_t count = 0;
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const Vec3d w = lat.siteWorld(domain.globalOf(l));
      if (std::abs(w.x - 2.0) > lat.voxelSize()) continue;
      sum += solver.macro().u[l].x;
      ++count;
    }
    const auto total = comm.allreduceSum(count);
    const double mean = comm.allreduceSum(sum) / static_cast<double>(total);
    EXPECT_NEAR(mean / u0, 1.0, 0.25);
    // And the flow is forward everywhere on the axis.
    EXPECT_GT(mean, 0.0);
  });
}

TEST(VelocityIolet, SpeedScalesTheFlow) {
  const auto lat = tube(0.25);
  const auto part = kway(lat, 1);
  auto fluxAt = [&](double u0) {
    double result = 0.0;
    comm::Runtime rt(1);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, 0);
      lb::LbParams params;
      params.tau = 0.8;
      lb::SolverD3Q19 solver(domain, comm, params);
      solver.setIoletVelocity(0, {u0, 0, 0});
      solver.run(1000);
      for (const auto& u : solver.macro().u) result += u.x;
    });
    return result;
  };
  const double f1 = fluxAt(0.005);
  const double f2 = fluxAt(0.01);
  EXPECT_GT(f1, 0.0);
  EXPECT_NEAR(f2 / f1, 2.0, 0.2);
}

TEST(VelocityIolet, SurvivesSgmyRoundTrip) {
  auto lat = tube(0.3);
  auto iolets = lat.iolets();
  iolets[0].bc = geometry::Iolet::Bc::kVelocity;
  iolets[0].speed = 0.02;
  lat.setIolets(iolets);
  const std::string path = "/tmp/hemo_test_velio.sgmy";
  ASSERT_TRUE(geometry::writeSgmy(path, lat));
  const auto back = geometry::readSgmy(path);
  ASSERT_EQ(back.iolets().size(), 2u);
  EXPECT_EQ(static_cast<int>(back.iolets()[0].bc),
            static_cast<int>(geometry::Iolet::Bc::kVelocity));
  EXPECT_DOUBLE_EQ(back.iolets()[0].speed, 0.02);
  EXPECT_EQ(static_cast<int>(back.iolets()[1].bc),
            static_cast<int>(geometry::Iolet::Bc::kPressure));
  std::remove(path.c_str());
}

// --- feature extraction -------------------------------------------------------------

/// Synthetic scalar with two disjoint blobs along the tube.
std::vector<double> twoBlobScalar(const lb::DomainMap& domain) {
  std::vector<double> s(domain.numOwned(), 0.0);
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    const Vec3d w = domain.lattice().siteWorld(domain.globalOf(l));
    const double d1 = (w - Vec3d{1.0, 0, 0}).norm();
    const double d2 = (w - Vec3d{3.0, 0, 0}).norm();
    if (d1 < 0.5 || d2 < 0.35) s[l] = 1.0;
  }
  return s;
}

class FeatureRankTest : public ::testing::TestWithParam<int> {};

TEST_P(FeatureRankTest, TwoBlobsFoundIdenticallyOnAnyDecomposition) {
  const auto lat = tube(0.2);
  const auto part = kway(lat, GetParam());
  std::vector<vis::Feature> features;
  vis::FeatureStats stats;
  comm::Runtime rt(GetParam());
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto result =
        vis::extractFeatures(comm, domain, twoBlobScalar(domain), 0.5, &stats);
    if (comm.rank() == 0) features = std::move(result);
  });
  ASSERT_EQ(features.size(), 2u);
  // Largest first; blob 1 (radius 0.5) beats blob 2 (radius 0.35).
  EXPECT_GT(features[0].sizeSites, features[1].sizeSites);
  EXPECT_NEAR(features[0].centroid.x, 1.0, 0.1);
  EXPECT_NEAR(features[1].centroid.x, 3.0, 0.1);
  EXPECT_NEAR(features[0].centroid.y, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(features[0].maxValue, 1.0);
  EXPECT_TRUE(features[0].bounds.contains({1.0, 0, 0}));
  EXPECT_GE(stats.mergeRounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, FeatureRankTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(Features, SizesAreRankInvariant) {
  const auto lat = tube(0.2);
  auto sizesOn = [&](int ranks) {
    const auto part = kway(lat, ranks);
    std::vector<std::uint64_t> sizes;
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      const auto fs =
          vis::extractFeatures(comm, domain, twoBlobScalar(domain), 0.5);
      if (comm.rank() == 0) {
        for (const auto& f : fs) sizes.push_back(f.sizeSites);
      }
    });
    return sizes;
  };
  EXPECT_EQ(sizesOn(1), sizesOn(4));
}

TEST(Features, EmptyWhenNothingExceedsThreshold) {
  const auto lat = tube(0.3);
  const auto part = kway(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    std::vector<double> zeros(domain.numOwned(), 0.0);
    const auto fs = vis::extractFeatures(comm, domain, zeros, 0.5);
    EXPECT_TRUE(fs.empty());
  });
}

TEST(Features, SingleSpanningComponentHasOneLabel) {
  // Everything above threshold: the entire tube is one feature no matter
  // how many ranks it spans.
  const auto lat = tube(0.25);
  const auto part = kway(lat, 6);
  comm::Runtime rt(6);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    std::vector<double> ones(domain.numOwned(), 1.0);
    const auto fs = vis::extractFeatures(comm, domain, ones, 0.5);
    if (comm.rank() == 0) {
      ASSERT_EQ(fs.size(), 1u);
      EXPECT_EQ(fs[0].sizeSites, lat.numFluidSites());
      EXPECT_EQ(fs[0].id, 0u);  // smallest global id labels the component
    }
  });
}

// --- streaklines ---------------------------------------------------------------------

TEST(Streaklines, AssembleOrdersOldToYoungPerSeed) {
  std::vector<vis::Tracer> tracers;
  for (std::uint32_t seed : {1u, 0u}) {
    for (std::uint32_t age : {3u, 9u, 6u}) {
      vis::Tracer t;
      t.seedId = seed;
      t.age = age;
      t.pos = {static_cast<double>(age), static_cast<double>(seed), 0};
      tracers.push_back(t);
    }
  }
  const auto streaks = vis::assembleStreaklines(tracers);
  ASSERT_EQ(streaks.size(), 2u);
  EXPECT_EQ(streaks[0].seedId, 0u);
  EXPECT_EQ(streaks[1].seedId, 1u);
  for (const auto& s : streaks) {
    ASSERT_EQ(s.vertices.size(), 3u);
    EXPECT_FLOAT_EQ(s.vertices[0].x, 9.f);  // oldest first
    EXPECT_FLOAT_EQ(s.vertices[1].x, 6.f);
    EXPECT_FLOAT_EQ(s.vertices[2].x, 3.f);
  }
}

TEST(Streaklines, ContinuousInjectionDrawsTheStreak) {
  const auto lat = tube(0.25);
  const auto part = kway(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::MacroFields macro;
    macro.rho.assign(domain.numOwned(), 1.0);
    macro.u.assign(domain.numOwned(), Vec3d{0.15, 0, 0});
    vis::GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    vis::TracerSwarm swarm(field);
    const std::vector<Vec3d> nozzle{{0.4, 0, 0}};
    for (int s = 0; s < 20; ++s) {
      swarm.inject(comm, nozzle);
      swarm.advect(comm);
    }
    const auto all = swarm.gather(comm);
    if (comm.rank() == 0) {
      const auto streaks = vis::assembleStreaklines(all);
      ASSERT_EQ(streaks.size(), 1u);
      ASSERT_EQ(streaks[0].vertices.size(), 20u);
      // Monotone from the head (furthest downstream) back to the nozzle.
      for (std::size_t v = 1; v < streaks[0].vertices.size(); ++v) {
        EXPECT_LT(streaks[0].vertices[v].x, streaks[0].vertices[v - 1].x);
      }
    }
  });
}

// --- observables over a user-defined subset -----------------------------------------------

TEST(Observables, RoiRestrictedValuesMatchDirectComputation) {
  const auto lat = tube(0.25);
  core::PreprocessConfig pcfg;
  const auto pre = core::preprocess(lat, 3, pcfg);
  serve::SessionBroker broker;

  // The ROI: the upstream half of the tube (lattice coordinates).
  const BoxI roi{{0, 0, 0}, {lat.dims().x / 2, lat.dims().y, lat.dims().z}};

  std::thread user([clientEnd = broker.connect(), roi]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;
    auto request = [&](steer::ObservableKind kind, bool whole) {
      c = {};
      c.type = steer::MsgType::kRequestObservable;
      c.observable = static_cast<std::uint8_t>(kind);
      if (!whole) c.roi = roi;
      client.send(c);
      const auto r = client.awaitObservable();
      EXPECT_TRUE(r.has_value());
      return r.value();
    };
    const auto massWhole = request(steer::ObservableKind::kMass, true);
    const auto massRoi = request(steer::ObservableKind::kMass, false);
    EXPECT_GT(massWhole.siteCount, massRoi.siteCount);
    EXPECT_GT(massRoi.siteCount, 0u);
    // Mass ≈ site count at rho ~ 1.
    EXPECT_NEAR(massRoi.value, static_cast<double>(massRoi.siteCount), 5.0);
    const auto meanSpeed =
        request(steer::ObservableKind::kMeanSpeed, false);
    const auto maxSpeed = request(steer::ObservableKind::kMaxSpeed, false);
    EXPECT_GE(maxSpeed.value, meanSpeed.value);
    EXPECT_GT(meanSpeed.value, 0.0);
    const auto flux = request(steer::ObservableKind::kMassFluxX, false);
    EXPECT_GT(flux.value, 0.0);  // body force drives +x flow
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::DriverConfig cfg;
    cfg.lb.computeStress = true;
    cfg.lb.bodyForce = {1e-5, 0, 0};
    cfg.visEvery = 0;
    cfg.statusEvery = 0;
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.solver().run(100);  // develop flow before serving requests
    driver.run(1 << 28);
    EXPECT_TRUE(driver.terminated());
  });
  user.join();
}

TEST(Observables, SteeredVelocityIoletViaProtocol) {
  const auto lat = tube(0.25);
  core::PreprocessConfig pcfg;
  const auto pre = core::preprocess(lat, 2, pcfg);
  serve::SessionBroker broker;

  std::thread user([clientEnd = broker.connect()]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;
    c.type = steer::MsgType::kSetIoletVelocity;
    c.ioletId = 0;
    c.force = {0.02, 0, 0};
    client.send(c);
    ASSERT_TRUE(client.awaitAck().has_value());
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::DriverConfig cfg;
    cfg.lb.computeStress = true;
    cfg.visEvery = 0;
    cfg.statusEvery = 0;
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(1 << 28);
    EXPECT_EQ(driver.solver().ioletVelocity(0), (Vec3d{0.02, 0, 0}));
  });
  user.join();
}

}  // namespace
}  // namespace hemo

// --- observable time series ------------------------------------------------------

#include "core/timeseries.hpp"

namespace hemo {
namespace {

TEST(TimeSeries, RecordsConsistentRowsAndWritesCsv) {
  const auto lat = tube(0.25);
  const auto part = kway(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::LbParams params;
    params.tau = 0.8;
    params.bodyForce = {1e-5, 0, 0};
    params.computeStress = true;
    lb::SolverD3Q19 solver(domain, comm, params);
    core::ObservableSeries series;
    for (int k = 0; k < 5; ++k) {
      solver.run(50);
      const auto row =
          series.sample(comm, domain, solver.macro(), solver.stepsDone());
      // Rows identical on every rank (collective reduction).
      EXPECT_NEAR(row.totalMass, static_cast<double>(lat.numFluidSites()),
                  1.0);
      EXPECT_GE(row.maxSpeed, row.meanSpeed);
      EXPECT_GT(row.massFluxX, 0.0);
      EXPECT_GT(row.maxWss, 0.0);
    }
    if (comm.rank() == 0) {
      ASSERT_EQ(series.rows().size(), 5u);
      // Accelerating from rest: flux grows monotonically early on.
      for (std::size_t i = 1; i < series.rows().size(); ++i) {
        EXPECT_GT(series.rows()[i].massFluxX,
                  series.rows()[i - 1].massFluxX);
        EXPECT_EQ(series.rows()[i].step, 50u * (i + 1));
      }
      EXPECT_TRUE(series.writeCsv("/tmp/hemo_test_series.csv"));
      std::ifstream f("/tmp/hemo_test_series.csv");
      std::string header;
      std::getline(f, header);
      EXPECT_EQ(header,
                "step,mass,mean_speed,max_speed,mass_flux_x,mean_wss,"
                "max_wss");
      int lines = 0;
      std::string line;
      while (std::getline(f, line)) ++lines;
      EXPECT_EQ(lines, 5);
      std::remove("/tmp/hemo_test_series.csv");
    } else {
      EXPECT_TRUE(series.rows().empty());  // rows live on the master
    }
  });
}

}  // namespace
}  // namespace hemo

// --- ROI-clipped rendering --------------------------------------------------------

#include "vis/volume.hpp"

namespace hemo {
namespace {

TEST(RenderClip, ClipBoxRestrictsCoverage) {
  const auto lat = tube(0.25);
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lat.numFluidSites(), 0);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    (void)comm;
    lb::DomainMap domain(lat, part, 0);
    lb::MacroFields macro;
    macro.rho.assign(domain.numOwned(), 1.0);
    macro.u.assign(domain.numOwned(), Vec3d{0.02, 0, 0});
    vis::VolumeRenderOptions vro;
    vro.width = 64;
    vro.height = 64;
    vro.camera.position = {2.0, 0, 6};
    vro.camera.target = {2.0, 0, 0};
    vro.transfer = vis::TransferFunction::bloodFlow(0.f, 0.01f);
    auto coverage = [&] {
      const auto img = vis::renderLocal(domain, macro, vro);
      int covered = 0;
      for (std::size_t i = 0; i < img.numPixels(); ++i) {
        if (img.pixel(i).a > 0.01f) ++covered;
      }
      return covered;
    };
    const int full = coverage();
    vro.clipBox = BoxD{{1.5, -2, -2}, {2.5, 2, 2}};  // middle quarter
    const int clipped = coverage();
    EXPECT_GT(full, 0);
    EXPECT_GT(clipped, 0);
    EXPECT_LT(clipped, full / 2);
  });
}

TEST(RenderClip, SteeringMessageSetsAndClearsClip) {
  const auto lat = tube(0.3);
  core::PreprocessConfig pcfg;
  const auto pre = core::preprocess(lat, 2, pcfg);
  serve::SessionBroker broker;
  std::thread user([clientEnd = broker.connect(), &lat]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;
    c.type = steer::MsgType::kSetRenderClip;
    c.roi = {{0, 0, 0}, {lat.dims().x / 2, lat.dims().y, lat.dims().z}};
    client.send(c);
    ASSERT_TRUE(client.awaitAck().has_value());
    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    const auto clipped = client.awaitImage();
    ASSERT_TRUE(clipped.has_value());
    // Clear the clip and grab another frame; it must cover more pixels.
    c = {};
    c.type = steer::MsgType::kSetRenderClip;
    c.roi = BoxI{};  // empty = clear
    client.send(c);
    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    const auto full = client.awaitImage();
    ASSERT_TRUE(full.has_value());
    auto litPixels = [](const steer::ImageFrame& f) {
      int lit = 0;
      for (std::size_t i = 0; i + 2 < f.rgb.size(); i += 3) {
        // Count pixels brighter than the background grey.
        if (f.rgb[i] > 30 || f.rgb[i + 1] > 30 || f.rgb[i + 2] > 30) ++lit;
      }
      return lit;
    };
    EXPECT_GT(litPixels(*full), litPixels(*clipped));
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::DriverConfig cfg;
    cfg.lb.computeStress = true;
    cfg.lb.bodyForce = {2e-5, 0, 0};
    cfg.visEvery = 0;
    cfg.statusEvery = 0;
    cfg.render.width = 64;
    cfg.render.height = 64;
    cfg.render.camera.position = {2.0, 0, 6.0};
    cfg.render.camera.target = {2.0, 0, 0};
    cfg.render.transfer = vis::TransferFunction::bloodFlow(0.f, 4e-4f);
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.solver().run(60);
    driver.run(1 << 28);
  });
  user.join();
}

}  // namespace
}  // namespace hemo
