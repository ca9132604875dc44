// Core co-design framework tests: pre-processing chain (including the
// vis-aware balance equation), the Fig 3 pipeline, the perf model, and the
// full Fig 2 closed loop with a live steering client.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/perf_model.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "serve/broker.hpp"
#include "steer/client.hpp"
#include "util/stats.hpp"

namespace hemo::core {
namespace {

geometry::SparseLattice aneurysmLattice(double voxel = 0.25) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), opt);
}

// --- preprocess ------------------------------------------------------------------

TEST(Preprocess, AllPartitionerNamesWork) {
  const auto lat = aneurysmLattice(0.3);
  for (const char* name :
       {"block", "sfc", "hilbert", "rcb", "greedy", "kway"}) {
    PreprocessConfig cfg;
    cfg.partitioner = name;
    const auto report = preprocess(lat, 4, cfg);
    EXPECT_EQ(report.partitionerName, name);
    EXPECT_EQ(report.partition.numParts, 4);
    EXPECT_GT(report.metrics.edgeCut, 0u);
    EXPECT_GE(report.seconds, 0.0);
  }
  PreprocessConfig bad;
  bad.partitioner = "magic";
  EXPECT_THROW(preprocess(lat, 4, bad), CheckError);
}

TEST(Preprocess, VisAwareWeightsShiftSites) {
  const auto lat = aneurysmLattice(0.3);
  // Vis work concentrated in the aneurysm half (x > 2.5).
  PreprocessConfig visAware;
  visAware.partitioner = "sfc";
  visAware.visAware = true;
  visAware.visCostFactor = 4.0;
  visAware.visRegion = [](const Vec3d& w) { return w.x > 2.5; };

  PreprocessConfig blind = visAware;
  blind.visAware = false;

  const auto pa = preprocess(lat, 4, visAware);
  const auto pb = preprocess(lat, 4, blind);

  // Under the *true* (vis-inclusive) cost, the vis-aware partition is
  // better balanced than the vis-blind one.
  const auto cost = makeSiteCosts(lat, visAware);
  auto trueImbalance = [&](const partition::Partition& p) {
    std::vector<double> loads(4, 0.0);
    for (std::size_t g = 0; g < cost.size(); ++g) {
      loads[static_cast<std::size_t>(p.partOfSite[g])] += cost[g];
    }
    return imbalanceFactor(loads);
  };
  EXPECT_LT(trueImbalance(pa.partition), 1.1);
  EXPECT_GT(trueImbalance(pb.partition), trueImbalance(pa.partition) + 0.1);
}

// --- perf model ---------------------------------------------------------------------

TEST(PerfModel, MaxRankDominates) {
  std::vector<RankCost> ranks{{1.0, 0, 0}, {2.0, 0, 0}, {0.5, 0, 0}};
  EXPECT_DOUBLE_EQ(modeledParallelSeconds(ranks), 2.0);
}

TEST(PerfModel, CommTermsAdd) {
  CostModel model;
  model.alphaPerMessage = 1e-3;
  model.betaPerByte = 1e-6;
  std::vector<RankCost> ranks{{1.0, 10, 1000}};
  EXPECT_NEAR(modeledParallelSeconds(ranks, model), 1.0 + 0.01 + 0.001,
              1e-12);
}

TEST(PerfModel, SpeedupAgainstSerial) {
  std::vector<RankCost> ranks{{1.0, 0, 0}, {1.0, 0, 0}};
  EXPECT_NEAR(modeledSpeedup(4.0, ranks), 4.0, 1e-12);
}

// --- pipeline --------------------------------------------------------------------------

TEST(Pipeline, StagesRunInOrderWithTimings) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.render.width = 48;
    dcfg.render.height = 48;
    dcfg.render.camera.position = {2.5, 0.5, 8.0};
    dcfg.render.camera.target = {2.5, 0.5, 0.0};
    dcfg.streamSeeds = vis::discSeeds({0.4, 0, 0}, {1, 0, 0}, 0.6, 8);
    dcfg.visEvery = 0;     // manual pipeline runs only
    dcfg.statusEvery = 0;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(30);
    driver.runPipelineNow();

    const auto& out = driver.lastOutputs();
    EXPECT_GT(out.maxSpeed, 0.0);
    EXPECT_GE(out.maxSpeed, out.meanSpeed);
    EXPECT_GT(out.meanWss, 0.0);
    if (comm.rank() == 0) {
      EXPECT_FALSE(out.contextNodes.empty());
      EXPECT_GT(out.volumeImage.numPixels(), 0u);
      EXPECT_FALSE(out.streamlines.empty());
    }
    auto& pipe = driver.pipeline();
    ASSERT_EQ(pipe.numStages(), 4u);
    EXPECT_STREQ(pipe.stageName(0), "extract");
    EXPECT_STREQ(pipe.stageName(3), "render");
    for (std::size_t i = 0; i < pipe.numStages(); ++i) {
      EXPECT_GT(pipe.stageSeconds(i), 0.0) << pipe.stageName(i);
    }
  });
}

TEST(Pipeline, ContextNodesCoverAllSites) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 3, cfg);
  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(3);
    driver.runPipelineNow();
    if (comm.rank() == 0) {
      std::uint64_t covered = 0;
      for (const auto& n : driver.lastOutputs().contextNodes) {
        covered += n.count;
      }
      EXPECT_EQ(covered, lat.numFluidSites());
    }
  });
}

// --- closed loop (Fig 2) ------------------------------------------------------------------

TEST(ClosedLoop, SteeringClientDrivesTheSimulation) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 3, cfg);

  // One steering client is one broker session.
  serve::SessionBroker broker;

  // The scripted user: asks for status, changes the viewpoint, requests a
  // frame, steers a simulation parameter, pauses/resumes, terminates.
  std::thread user([clientEnd = broker.connect()]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;

    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto status = client.awaitStatus();
    ASSERT_TRUE(status.has_value());
    EXPECT_GT(status->totalSites, 0u);
    EXPECT_TRUE(status->consistencyOk);

    c = {};
    c.type = steer::MsgType::kSetCamera;
    c.camera.position = {2.5, 0.5, 7.0};
    c.camera.target = {2.5, 0.5, 0.0};
    client.send(c);

    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    const auto frame = client.awaitImage();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->width, 32);
    EXPECT_EQ(frame->rgb.size(), 32u * 32u * 3u);

    c = {};
    c.type = steer::MsgType::kSetTau;
    c.value = 0.9;
    client.send(c);

    c = {};
    c.type = steer::MsgType::kSetRoi;
    c.roi = {{0, 0, 0}, {64, 64, 64}};
    c.roiLevel = 2;
    client.send(c);
    const auto roi = client.awaitRoi();
    ASSERT_TRUE(roi.has_value());
    EXPECT_FALSE(roi->nodes.empty());

    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {5e-6, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.render.width = 32;
    dcfg.render.height = 32;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.plannedSteps = 100000;
    SimulationDriver driver(domain, comm, dcfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    // Plenty of headroom: the terminate command ends the run early.
    const int executed = driver.run(2000000);
    EXPECT_TRUE(driver.terminated());
    EXPECT_LT(executed, 2000000);
    // The steered tau reached every rank.
    EXPECT_DOUBLE_EQ(driver.solver().params().tau, 0.9);
  });
  user.join();
}

TEST(ClosedLoop, PauseFreezesStepsUntilResume) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  serve::SessionBroker broker;

  std::thread user([clientEnd = broker.connect()]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;
    c.type = steer::MsgType::kPause;
    client.send(c);
    ASSERT_TRUE(client.awaitAck().has_value());
    // While paused, status must report paused with a frozen step count.
    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto s1 = client.awaitStatus();
    ASSERT_TRUE(s1.has_value());
    EXPECT_EQ(s1->paused, 1);
    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto s2 = client.awaitStatus();
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s2->step, s1->step);
    c = {};
    c.type = steer::MsgType::kResume;
    client.send(c);
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    SimulationDriver driver(domain, comm, dcfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(1000000);
    EXPECT_TRUE(driver.terminated());
  });
  user.join();
}

TEST(Driver, BatchRunWithoutSteeringWorks) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.render.width = 24;
    dcfg.render.height = 24;
    dcfg.visEvery = 5;
    dcfg.statusEvery = 0;
    SimulationDriver driver(domain, comm, dcfg);
    const int executed = driver.run(12);
    EXPECT_EQ(executed, 12);
    EXPECT_FALSE(driver.terminated());
    // visEvery=5 fired at steps 5 and 10.
    EXPECT_EQ(driver.lastOutputs().step, 10u);
  });
}

TEST(Driver, UnsteeredRunSendsNoSteeringCollective) {
  // With no broker attached the driver makes no steering collective: the
  // kSteer class stays silent on every rank, renders and status windows
  // included.
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 3, cfg);
  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    dcfg.visEvery = 5;
    dcfg.statusEvery = 10;
    SimulationDriver driver(domain, comm, dcfg);
    EXPECT_EQ(driver.run(20), 20);
  });
  for (int r = 0; r < 3; ++r) {
    const auto& steer = rt.counters(r).of(comm::Traffic::kSteer);
    EXPECT_EQ(steer.messagesSent, 0u) << "rank " << r;
    EXPECT_EQ(steer.messagesReceived, 0u) << "rank " << r;
  }
}

TEST(Driver, StatusConsistencyChecks) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.plannedSteps = 50;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(10);
    const auto status = driver.computeStatus();
    EXPECT_EQ(status.step, 10u);
    EXPECT_EQ(status.totalSites, lat.numFluidSites());
    EXPECT_TRUE(status.consistencyOk);
    EXPECT_GE(status.loadImbalance, 1.0);
    EXPECT_GT(status.stepsPerSecond, 0.0);
    EXPECT_GT(status.etaSeconds, 0.0);
  });
}

TEST(Driver, RequiresStressForWss) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 1, cfg);
  comm::Runtime rt(1);
  EXPECT_THROW(rt.run([&](comm::Communicator& comm) {
                 lb::DomainMap domain(lat, pre.partition, 0);
                 DriverConfig dcfg;
                 dcfg.computeWss = true;
                 dcfg.lb.computeStress = false;
                 SimulationDriver driver(domain, comm, dcfg);
               }),
               CheckError);
}

}  // namespace
}  // namespace hemo::core
