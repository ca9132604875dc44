// Fault-tolerance tests: the deterministic fault-injection harness, the
// validated striped checkpoint format (typed errors, CRC validation,
// atomic commit, bit-exact site ids), restore-latest fallback past a
// corrupted checkpoint, broker heartbeat eviction of wedged clients,
// client-side reconnect with session replay, graceful driver degradation
// when the serving plane dies, and recovery from a killed simulated rank.
//
// Registered under the `resilience` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "io/serial.hpp"
#include "lb/checkpoint.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "steer/client.hpp"
#include "util/faultinject.hpp"

namespace hemo {
namespace {

// --- fault-injection harness -----------------------------------------------

TEST(FaultInject, RulesAreRankAddressableAndBounded) {
  util::FaultScope scope(42);
  util::FaultRule r;
  r.site = util::FaultSite::kCommSend;
  r.action = util::FaultAction::kDrop;
  r.rank = 1;
  r.afterHits = 2;
  r.maxFires = 3;
  scope.rule(r);
  auto& fi = util::FaultInjector::instance();

  // A non-matching rank never fires (and does not consume warmup hits).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fi.decide(util::FaultSite::kCommSend, 0),
              util::FaultAction::kNone);
  }
  // Matching rank: afterHits warmup passes, then exactly maxFires fires.
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (fi.decide(util::FaultSite::kCommSend, 1) ==
        util::FaultAction::kDrop) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(fi.fired(), 3u);
  EXPECT_EQ(fi.fired(util::FaultSite::kCommSend), 3u);
  EXPECT_EQ(fi.fired(util::FaultSite::kChannelSend), 0u);
}

TEST(FaultInject, DisarmedHooksAreInert) {
  auto& fi = util::FaultInjector::instance();
  EXPECT_FALSE(fi.armed());
  EXPECT_EQ(fi.decide(util::FaultSite::kChannelSend, 0),
            util::FaultAction::kNone);
  std::vector<std::byte> bytes(64, std::byte{7});
  fi.applyBufferFault(util::FaultSite::kCheckpointCommit, 0, bytes);
  EXPECT_EQ(bytes, std::vector<std::byte>(64, std::byte{7}));
}

TEST(FaultInject, BufferFaultsCorruptAndTruncateInPlace) {
  {
    util::FaultScope scope(7);
    util::FaultRule r;
    r.site = util::FaultSite::kCheckpointCommit;
    r.action = util::FaultAction::kCorrupt;
    scope.rule(r);
    std::vector<std::byte> bytes(256, std::byte{0x11});
    util::FaultInjector::instance().applyBufferFault(
        util::FaultSite::kCheckpointCommit, 0, bytes);
    int diffs = 0;
    std::size_t where = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != std::byte{0x11}) {
        ++diffs;
        where = i;
      }
    }
    EXPECT_EQ(diffs, 1);       // exactly one byte flipped
    EXPECT_GE(where, 16u);     // magics/version stay intact
  }
  {
    util::FaultScope scope(7);
    util::FaultRule r;
    r.site = util::FaultSite::kCheckpointCommit;
    r.action = util::FaultAction::kTruncate;
    r.truncateTo = 10;
    scope.rule(r);
    std::vector<std::byte> bytes(256, std::byte{0x11});
    util::FaultInjector::instance().applyBufferFault(
        util::FaultSite::kCheckpointCommit, 0, bytes);
    EXPECT_EQ(bytes.size(), 10u);
  }
}

// --- checkpoint format ------------------------------------------------------

TEST(CheckpointFormat, SiteIdsAboveDoublePrecisionStayBitExact) {
  // 2^53 + odd is not representable as a double — the exact class of id
  // the v1 scatter corrupted by routing ids through a double vector.
  const std::uint64_t huge = (std::uint64_t{1} << 53) + 12345;
  ASSERT_NE(static_cast<std::uint64_t>(static_cast<double>(huge)), huge);

  const std::vector<std::uint64_t> ids{0, huge, (std::uint64_t{1} << 63) | 5};
  std::vector<std::vector<double>> f(
      19, std::vector<double>(ids.size(), 0.125));
  const auto blob = lb::ckptdetail::encodeBlob(ids, f);

  const std::string path = "/tmp/hemo_test_hugeids.hemockpt";
  std::uint64_t written = 0;
  ASSERT_TRUE(lb::ckptdetail::atomicWriteFile(
      lb::ckptdetail::stripePath(path, 0), 0,
      lb::ckptdetail::encodeStripeFile(7, 0, {blob}), &written));
  ASSERT_TRUE(lb::ckptdetail::atomicWriteFile(
      path, 0, lb::ckptdetail::encodeManifest(7, 19, 1, ids.size()),
      &written));

  lb::ParsedCheckpoint parsed;
  std::string detail;
  ASSERT_EQ(lb::parseCheckpoint(path, 19, parsed, &detail),
            lb::CkptStatus::kOk)
      << detail;
  EXPECT_EQ(parsed.step, 7u);
  ASSERT_EQ(parsed.blobs.size(), 1u);
  EXPECT_EQ(parsed.blobs[0].ids, ids);  // bit-exact round trip
  std::remove(path.c_str());
  std::remove(lb::ckptdetail::stripePath(path, 0).c_str());
}

geometry::SparseLattice tubeLattice(double length = 4.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

lb::LbParams tubeParams() {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  return p;
}

void flipByteOnDisk(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(Checkpoint, TypedErrorsInsteadOfAborts) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto latBig = tubeLattice(6.0);
  const auto partBig =
      kway.partition(partition::buildSiteGraph(latBig), 2);
  const auto params = tubeParams();
  const std::string dir = "/tmp/hemo_test_typed_ckpt";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/good.hemockpt";

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(3);
    lb::writeCheckpoint(path, solver, comm);

    // Missing file: typed, not an abort. Solver untouched on failure.
    auto r = lb::readCheckpoint(path + ".nope", solver, comm);
    EXPECT_EQ(r.status, lb::CkptStatus::kOpenFailed);
    EXPECT_EQ(solver.stepsDone(), 3u);

    // Not a checkpoint at all.
    const std::string junk = dir + "/junk.hemockpt";
    if (comm.rank() == 0) {
      io::Writer w;
      w.putString("NOTACKPT");
      std::uint64_t n = 0;
      lb::ckptdetail::atomicWriteFile(junk, 0, w.take(), &n);
    }
    r = lb::readCheckpoint(junk, solver, comm);
    EXPECT_EQ(r.status, lb::CkptStatus::kBadMagic);

    // One flipped byte inside a stripe blob: the CRC catches it.
    const std::string stripe = lb::ckptdetail::stripePath(path, 0);
    if (comm.rank() == 0) flipByteOnDisk(stripe, 100);
    r = lb::readCheckpoint(path, solver, comm);
    EXPECT_EQ(r.status, lb::CkptStatus::kCrcMismatch);
    if (comm.rank() == 0) flipByteOnDisk(stripe, 100);  // restore

    // Stripe cut short mid-structure.
    const std::string trunc = dir + "/trunc.hemockpt";
    if (comm.rank() == 0) {
      std::filesystem::copy_file(path, trunc);
      std::filesystem::copy_file(stripe,
                                 lb::ckptdetail::stripePath(trunc, 0));
      const auto full =
          std::filesystem::file_size(lb::ckptdetail::stripePath(trunc, 0));
      std::filesystem::resize_file(lb::ckptdetail::stripePath(trunc, 0),
                                   full / 2);
    }
    r = lb::readCheckpoint(trunc, solver, comm);
    EXPECT_EQ(r.status, lb::CkptStatus::kTruncated);

    // A valid checkpoint for a different lattice: geometry mismatch, and
    // the target solver is left untouched.
    lb::DomainMap bigDomain(latBig, partBig, comm.rank());
    lb::SolverD3Q19 bigSolver(bigDomain, comm, params);
    r = lb::readCheckpoint(path, bigSolver, comm);
    EXPECT_EQ(r.status, lb::CkptStatus::kGeometryMismatch);
    EXPECT_EQ(bigSolver.stepsDone(), 0u);

    // The pristine file still restores after all that.
    r = lb::readCheckpoint(path, solver, comm);
    EXPECT_TRUE(r.ok()) << r.detail;
    EXPECT_EQ(r.step, 3u);
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, StripedWriteRestoresAcrossDifferentPartition) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  const auto params = tubeParams();
  const std::string dir = "/tmp/hemo_test_striped_ckpt";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/ckpt.hemockpt";

  // Reference: 30 uninterrupted steps.
  std::vector<Vec3d> reference(lat.numFluidSites());
  {
    partition::MultilevelKWayPartitioner kway;
    const auto part = kway.partition(graph, 2);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      solver.run(30);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        reference[static_cast<std::size_t>(domain.globalOf(l))] =
            solver.macro().u[l];
      }
    });
  }

  // Write at step 15 from 3 ranks into 2 stripes.
  std::uint64_t reportedBytes = 0;
  {
    partition::MultilevelKWayPartitioner kway;
    const auto part = kway.partition(graph, 3);
    comm::Runtime rt(3);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      solver.run(15);
      const auto total = lb::writeCheckpoint(path, solver, comm, {2});
      if (comm.rank() == 0) reportedBytes = total;
    });
  }

  // The reported byte count is what actually reached disk, the commit was
  // atomic (no .tmp leftovers), and both stripes exist.
  std::uint64_t onDisk = 0;
  int tmpFiles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    onDisk += std::filesystem::file_size(entry.path());
    if (entry.path().extension() == ".tmp") ++tmpFiles;
  }
  EXPECT_EQ(onDisk, reportedBytes);
  EXPECT_EQ(tmpFiles, 0);
  EXPECT_TRUE(std::filesystem::exists(lb::ckptdetail::stripePath(path, 0)));
  EXPECT_TRUE(std::filesystem::exists(lb::ckptdetail::stripePath(path, 1)));

  // Restore into a different decomposition (2 ranks, RCB) and finish.
  std::vector<Vec3d> restored(lat.numFluidSites());
  {
    partition::RcbPartitioner rcb;
    const auto part = rcb.partition(graph, 2);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      const auto r = lb::readCheckpoint(path, solver, comm);
      EXPECT_TRUE(r.ok()) << r.detail;
      EXPECT_EQ(r.step, 15u);
      EXPECT_EQ(solver.stepsDone(), 15u);
      solver.run(15);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        restored[static_cast<std::size_t>(domain.globalOf(l))] =
            solver.macro().u[l];
      }
    });
  }
  for (std::size_t g = 0; g < reference.size(); ++g) {
    EXPECT_NEAR((restored[g] - reference[g]).norm(), 0.0, 1e-13);
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, WriteAndRestoreBitExact) {
  // A checkpoint restores bit-exactly, and the restore is kernel-agnostic:
  // the file either kernel wrote reads back into a solver on either kernel
  // with every distribution identical to the writer's. Writes at 10 steps
  // (even parity) and 11 (odd parity: the production slab holds the AA
  // layout of an even step) must both read the canonical populations, and
  // a restored production run continues on the writer's trajectory.
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  const std::string dir = "/tmp/hemo_test_roundtrip_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/run.hemockpt";
  constexpr int kMoreSteps = 5;

  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  using Columns = std::vector<std::vector<double>>;
  const auto gather = [&](const lb::SolverD3Q19& solver,
                          const lb::DomainMap& domain, Columns& out) {
    for (int i = 0; i < 19; ++i) {
      const auto fi = solver.distribution(i);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        out[static_cast<std::size_t>(i)]
           [static_cast<std::size_t>(domain.globalOf(l))] = fi[l];
      }
    }
  };
  const auto blank = [&] {
    return Columns(19, std::vector<double>(lat.numFluidSites(), 0.0));
  };
  const auto maxDiff = [](const Columns& a, const Columns& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t g = 0; g < a[i].size(); ++g) {
        d = std::max(d, std::abs(a[i][g] - b[i][g]));
      }
    }
    return d;
  };

  using Kernel = lb::LbParams::Kernel;
  for (const auto writer : {Kernel::kSimd, Kernel::kReference}) {
    for (const int steps : {10, 11}) {
      auto params = tubeParams();
      params.kernel = writer;
      SCOPED_TRACE(std::string("writer ") + params.kernelName() + ", step " +
                   std::to_string(steps));
      Columns written = blank();
      Columns writerLater = blank();
      {
        comm::Runtime rt(2);
        rt.run([&](comm::Communicator& comm) {
          lb::DomainMap domain(lat, part, comm.rank());
          lb::SolverD3Q19 solver(domain, comm, params);
          solver.run(steps);
          lb::writeCheckpoint(path, solver, comm, {1});
          gather(solver, domain, written);
          solver.run(kMoreSteps);
          gather(solver, domain, writerLater);
        });
      }

      for (const auto reader : {Kernel::kSimd, Kernel::kReference}) {
        params.kernel = reader;
        Columns restored = blank();
        Columns restoredLater = blank();
        comm::Runtime rt(2);
        rt.run([&](comm::Communicator& comm) {
          lb::DomainMap domain(lat, part, comm.rank());
          lb::SolverD3Q19 solver(domain, comm, params);
          const auto r = lb::readCheckpoint(path, solver, comm);
          ASSERT_TRUE(r.ok()) << r.detail;
          EXPECT_FALSE(solver.oddParity());
          gather(solver, domain, restored);
          solver.run(kMoreSteps);
          gather(solver, domain, restoredLater);
        });
        EXPECT_EQ(restored, written) << "reader " << params.kernelName();
        if (reader == writer) {
          EXPECT_LE(maxDiff(restoredLater, writerLater), 1e-13)
              << "reader " << params.kernelName();
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestoredMacroMatchesNextCollide) {
  // After a restore, macro() must already hold the moments the next
  // collide computes from the restored populations: the Guo half-force
  // shift in u and a fresh stress field included. Restores at both
  // parities of a body-forced run.
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  auto params = tubeParams();
  params.bodyForce = Vec3d{2e-4, 0, 0};
  params.computeStress = true;

  for (const int steps : {6, 7}) {
    SCOPED_TRACE(steps);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 writer(domain, comm, params);
      writer.run(steps);
      std::vector<std::vector<double>> columns;
      for (int i = 0; i < 19; ++i) columns.push_back(writer.distribution(i));

      lb::SolverD3Q19 solver(domain, comm, params);
      solver.setDistributions(columns);
      const lb::MacroFields restored = solver.macro();
      solver.step();
      const lb::MacroFields& next = solver.macro();
      ASSERT_EQ(restored.rho.size(), next.rho.size());
      ASSERT_EQ(restored.stress.size(), next.stress.size());
      for (std::size_t l = 0; l < next.rho.size(); ++l) {
        ASSERT_EQ(restored.rho[l], next.rho[l]) << "site " << l;
        ASSERT_LE((restored.u[l] - next.u[l]).norm(), 1e-15) << "site " << l;
        for (std::size_t c = 0; c < 6; ++c) {
          ASSERT_LE(std::abs(restored.stress[l].m[c] - next.stress[l].m[c]),
                    1e-15)
              << "site " << l;
        }
      }
    });
  }
}

TEST(Checkpoint, RestoreLatestFallsBackPastCorruptedCheckpoint) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto params = tubeParams();
  const std::string dir = "/tmp/hemo_test_fallback_ckpt";
  std::filesystem::remove_all(dir);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(5);
    lb::writeCheckpoint(dir + "/" + lb::checkpointFileName(5), solver, comm);
    solver.run(5);

    // The newer checkpoint is corrupted on its way to disk (only rank 0
    // writes with stripes=1, so only rank 0 arms the injector).
    if (comm.rank() == 0) {
      util::FaultInjector::instance().arm(99);
      util::FaultRule r;
      r.site = util::FaultSite::kCheckpointCommit;
      r.action = util::FaultAction::kCorrupt;
      r.rank = 0;
      r.maxFires = 1;  // mangle the stripe file, leave the manifest alone
      util::FaultInjector::instance().addRule(r);
    }
    lb::writeCheckpoint(dir + "/" + lb::checkpointFileName(10), solver,
                        comm);
    if (comm.rank() == 0) {
      EXPECT_EQ(util::FaultInjector::instance().fired(
                    util::FaultSite::kCheckpointCommit),
                1u);
      util::FaultInjector::instance().disarm();
    }

    // restoreLatest tries step 10 (CRC fails), falls back to step 5.
    lb::SolverD3Q19 fresh(domain, comm, params);
    const auto r = lb::restoreLatest(dir, fresh, comm);
    EXPECT_TRUE(r.ok()) << r.detail;
    EXPECT_EQ(r.step, 5u);
    EXPECT_EQ(fresh.stepsDone(), 5u);
  });
  std::filesystem::remove_all(dir);
}

// --- broker session recovery ------------------------------------------------

TEST(BrokerRecovery, HeartbeatsEvictWedgedClientOnly) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::BrokerConfig cfg;
    cfg.heartbeatEvery = 1;
    cfg.missedHeartbeatLimit = 2;
    serve::SessionBroker broker(cfg);
    serve::ServeClient healthy(broker.connect());
    serve::ServeClient wedged(broker.connect());

    for (std::uint64_t step = 0; step < 6; ++step) {
      for (const auto& cmd : broker.drainCommands(comm, step)) {
        broker.respondAck(comm, cmd.commandId);
      }
      // The healthy client polls (auto-acking heartbeats); the wedged one
      // never touches its channel.
      while (healthy.pollEvent()) {
      }
    }
    EXPECT_TRUE(broker.clientAlive(0));
    EXPECT_FALSE(broker.clientAlive(1));
    EXPECT_EQ(broker.numAliveClients(), 1);
    EXPECT_EQ(broker.stats().evictions, 1u);
    EXPECT_GT(broker.stats().heartbeats, 0u);

    // The evicted outbox is released; serving continues unharmed.
    for (const auto& cmd : broker.drainCommands(comm, 6)) {
      broker.respondAck(comm, cmd.commandId);
    }
    broker.closeAll();
    (void)wedged;
  });
}

TEST(BrokerRecovery, TruncatedFrameEvictsThenClientReconnectsAndResumes) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    serve::ServeClient client(broker.connect());
    client.enableReconnect([&broker] { return broker.requestConnect(true); });

    {
      // Truncate the subscribe frame in flight: the broker cannot decode
      // it and evicts the sender.
      util::FaultScope scope(5);
      util::FaultRule r;
      r.site = util::FaultSite::kChannelSend;
      r.action = util::FaultAction::kTruncate;
      r.truncateTo = 4;
      r.maxFires = 1;
      scope.rule(r);
      client.subscribe(serve::StreamKind::kStatus, 1);
      EXPECT_TRUE(broker.drainCommands(comm, 0).empty());
      EXPECT_EQ(broker.stats().evictions, 1u);
      EXPECT_FALSE(broker.clientAlive(0));
    }

    // The client notices EOF, redials through requestConnect, and replays
    // its subscription; the broker admits it on the next drain.
    EXPECT_FALSE(client.pollEvent().has_value());
    EXPECT_EQ(client.reconnects(), 1u);

    int statuses = 0;
    for (std::uint64_t step = 1; step <= 3; ++step) {
      for (const auto& cmd : broker.drainCommands(comm, step)) {
        if (cmd.type == steer::MsgType::kRequestStatus) {
          steer::StatusReport status;
          status.step = step;
          broker.respondStatus(comm, cmd.commandId, status);
        }
        broker.respondAck(comm, cmd.commandId);
      }
      while (auto event = client.pollEvent()) {
        if (event->type == steer::MsgType::kStatus) ++statuses;
      }
    }
    EXPECT_EQ(broker.stats().reconnects, 1u);
    EXPECT_EQ(statuses, 3);  // stream resumed at full cadence
    broker.closeAll();
  });
}

TEST(ClientRecovery, ReconnectRetriesConnectorWithBoundedAttempts) {
  auto pair = comm::makeChannelPair();
  serve::ServeClient client(std::move(pair.first));
  pair.second.close();  // peer gone immediately

  int calls = 0;
  comm::ChannelEnd replacementPeer;
  serve::ReconnectConfig cfg;
  cfg.maxAttempts = 8;
  cfg.baseDelayMillis = 0;  // keep the unit test sleep-free
  client.enableReconnect(
      [&] {
        ++calls;
        if (calls < 3) return comm::ChannelEnd{};  // "try again later"
        auto fresh = comm::makeChannelPair();
        replacementPeer = std::move(fresh.second);
        return std::move(fresh.first);
      },
      cfg);

  EXPECT_FALSE(client.pollEvent().has_value());
  EXPECT_EQ(calls, 3);  // two failures, then success
  EXPECT_EQ(client.reconnects(), 1u);

  // The redialled channel is live end to end.
  steer::StatusReport s;
  s.step = 3;
  ASSERT_TRUE(replacementPeer.send(steer::encodeStatus(s)));
  const auto event = client.pollEvent();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->status.step, 3u);
}

TEST(ClientRecovery, CorruptFrameIsSkippedNotFatal) {
  auto pair = comm::makeChannelPair();
  serve::ServeClient client(std::move(pair.first));
  auto& peer = pair.second;

  peer.send(std::vector<std::byte>(3, std::byte{0xee}));  // undecodable
  steer::StatusReport s;
  s.step = 9;
  peer.send(steer::encodeStatus(s));

  const auto event = client.pollEvent();  // skips the mangled frame
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->status.step, 9u);
  EXPECT_EQ(client.corruptFramesSkipped(), 1u);
}

// --- driver-level recovery --------------------------------------------------

core::DriverConfig plainDriverConfig() {
  core::DriverConfig dcfg;
  dcfg.lb.tau = 0.8;
  dcfg.lb.bodyForce = {1e-5, 0, 0};
  dcfg.computeWss = false;
  dcfg.visEvery = 0;
  dcfg.statusEvery = 0;
  return dcfg;
}

TEST(DriverRecovery, BrokerFailureDegradesToSolverOnly) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  serve::SessionBroker broker;
  serve::ServeClient client(broker.connect());
  client.subscribe(serve::StreamKind::kStatus, 2);

  util::FaultScope scope(3);
  util::FaultRule r;
  r.site = util::FaultSite::kBrokerPoll;
  r.action = util::FaultAction::kFail;
  r.afterHits = 3;
  r.maxFires = 1;
  scope.rule(r);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, plainDriverConfig());
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    // The broker dies on the 4th poll; the run must still complete every
    // step, degraded to solver-only, identically on both ranks.
    EXPECT_EQ(driver.run(10), 10);
    EXPECT_FALSE(driver.brokerHealthy());
    EXPECT_EQ(driver.solver().stepsDone(), 10u);
    // Degraded means no steering at all: no rank polls or broadcasts
    // steering traffic any more.
    const auto before = comm.counters().of(comm::Traffic::kSteer);
    EXPECT_EQ(driver.run(10), 10);
    const auto after = comm.counters().of(comm::Traffic::kSteer);
    EXPECT_EQ(after.messagesSent, before.messagesSent);
    EXPECT_EQ(after.messagesReceived, before.messagesReceived);
    EXPECT_EQ(after.bytesSent, before.bytesSent);
  });
}

TEST(DriverRecovery, KilledRankRestoresFromCheckpointAndMatchesReference) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dir = "/tmp/hemo_test_kill_ckpt";
  std::filesystem::remove_all(dir);

  auto ckptConfig = plainDriverConfig();
  ckptConfig.checkpointEvery = 5;
  ckptConfig.checkpointDir = dir;

  // Reference: 12 uninterrupted steps (no checkpointing).
  std::vector<Vec3d> reference(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, plainDriverConfig());
      driver.run(12);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        reference[static_cast<std::size_t>(domain.globalOf(l))] =
            driver.solver().macro().u[l];
      }
    });
  }

  // Rank 1 dies at its 8th step — after the step-5 checkpoint committed.
  {
    util::FaultScope scope(11);
    util::FaultRule r;
    r.site = util::FaultSite::kDriverStep;
    r.action = util::FaultAction::kKill;
    r.rank = 1;
    r.afterHits = 7;
    r.maxFires = 1;
    scope.rule(r);
    comm::Runtime rt(2);
    EXPECT_THROW(rt.run([&](comm::Communicator& comm) {
                   lb::DomainMap domain(lat, part, comm.rank());
                   core::SimulationDriver driver(domain, comm, ckptConfig);
                   driver.run(12);
                 }),
                 util::RankKilledError);
  }

  // Fresh job: restore the newest valid checkpoint and finish the run.
  std::vector<Vec3d> recovered(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, ckptConfig);
      const auto r = driver.restoreLatest();
      EXPECT_TRUE(r.ok()) << r.detail;
      EXPECT_EQ(r.step, 5u);
      driver.run(12 - static_cast<int>(r.step));
      EXPECT_EQ(driver.solver().stepsDone(), 12u);
      for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
        recovered[static_cast<std::size_t>(domain.globalOf(l))] =
            driver.solver().macro().u[l];
      }
    });
  }
  for (std::size_t g = 0; g < reference.size(); ++g) {
    EXPECT_NEAR((recovered[g] - reference[g]).norm(), 0.0, 1e-13);
  }
  std::filesystem::remove_all(dir);
}

TEST(DriverRecovery, CheckpointEveryWritesAndPrunes) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dir = "/tmp/hemo_test_policy_ckpt";
  std::filesystem::remove_all(dir);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 2;
  cfg.checkpointDir = dir;
  cfg.checkpointKeep = 2;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    driver.run(10);  // checkpoints at 2, 4, 6, 8, 10 — keep the last two
  });

  const auto kept = lb::listCheckpoints(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 10u);
  EXPECT_EQ(kept[1].first, 8u);
  // Pruning removed stripe files of deleted checkpoints, and no .tmp
  // leftovers exist.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    EXPECT_TRUE(name.rfind("ckpt_000000000008", 0) == 0 ||
                name.rfind("ckpt_000000000010", 0) == 0)
        << name;
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
  std::filesystem::remove_all(dir);
}

// --- guarded steering + stability sentinel ----------------------------------

/// Gather this rank's macroscopic fields into global arrays for exact
/// (bit-identical) cross-run comparison.
void collectMacro(const lb::DomainMap& domain, const lb::SolverD3Q19& solver,
                  std::vector<double>& rho, std::vector<Vec3d>& u) {
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    const auto g = static_cast<std::size_t>(domain.globalOf(l));
    rho[g] = solver.macro().rho[l];
    u[g] = solver.macro().u[l];
  }
}

TEST(Guard, RejectedCommandsNeverTouchSolverState) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  serve::SessionBroker broker;
  steer::SteeringClient client(broker.connect());
  // Every classic run-killer, pre-queued so the driver sees them on its
  // first poll. Each must be refused with its own reason, in order.
  struct BadCommand {
    steer::Command cmd;
    steer::RejectReason want;
  };
  std::vector<BadCommand> bad;
  {
    steer::Command c;
    c.type = steer::MsgType::kSetTau;
    c.value = 0.2;  // below the stability bound
    bad.push_back({c, steer::RejectReason::kTauUnstable});
    c.value = std::numeric_limits<double>::quiet_NaN();
    bad.push_back({c, steer::RejectReason::kNonFinite});
    c = {};
    c.type = steer::MsgType::kSetBodyForce;
    c.force = {std::numeric_limits<double>::infinity(), 0, 0};
    bad.push_back({c, steer::RejectReason::kNonFinite});
    c = {};
    c.type = steer::MsgType::kSetIoletDensity;
    c.ioletId = 99;
    c.value = 1.0;
    bad.push_back({c, steer::RejectReason::kIoletOutOfRange});
    c.ioletId = 0;
    c.value = -5.0;
    bad.push_back({c, steer::RejectReason::kValueOutOfRange});
    c = {};
    c.type = steer::MsgType::kSetRoi;
    c.roi = {{1000, 1000, 1000}, {1010, 1010, 1010}};  // fully outside
    bad.push_back({c, steer::RejectReason::kRoiOutsideLattice});
  }
  std::vector<std::uint32_t> sentIds;
  for (const auto& b : bad) sentIds.push_back(client.send(b.cmd));

  std::vector<double> steeredRho(lat.numFluidSites());
  std::vector<Vec3d> steeredU(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, plainDriverConfig());
      driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
      EXPECT_EQ(driver.run(30), 30);
      collectMacro(domain, driver.solver(), steeredRho, steeredU);
    });
  }

  // Every command was answered with its typed NACK, in order.
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto rej = client.awaitReject();
    ASSERT_TRUE(rej.has_value()) << "command " << i;
    EXPECT_EQ(static_cast<int>(rej->type),
              static_cast<int>(steer::MsgType::kReject));
    EXPECT_EQ(rej->commandId, sentIds[i]);
    EXPECT_EQ(static_cast<int>(rej->reason), static_cast<int>(bad[i].want))
        << steer::rejectReasonName(bad[i].want);
  }

  // Reference: the identical run with no steering attached at all.
  std::vector<double> cleanRho(lat.numFluidSites());
  std::vector<Vec3d> cleanU(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, plainDriverConfig());
      EXPECT_EQ(driver.run(30), 30);
      collectMacro(domain, driver.solver(), cleanRho, cleanU);
    });
  }

  // Rejected commands provably never mutated solver state: the fields are
  // bit-identical, not just close.
  for (std::size_t g = 0; g < cleanRho.size(); ++g) {
    ASSERT_EQ(steeredRho[g], cleanRho[g]) << "site " << g;
    ASSERT_EQ(steeredU[g].x, cleanU[g].x) << "site " << g;
    ASSERT_EQ(steeredU[g].y, cleanU[g].y) << "site " << g;
    ASSERT_EQ(steeredU[g].z, cleanU[g].z) << "site " << g;
  }
}

TEST(Sentinel, OffAndOnAreBitIdentical) {
  // The sentinel is a pure observer: enabling it must not perturb the
  // trajectory by a single bit (its reductions run out-of-band).
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  auto runWith = [&](int checkEvery, std::vector<double>& rho,
                     std::vector<Vec3d>& u) {
    auto cfg = plainDriverConfig();
    cfg.sentinel.checkEvery = checkEvery;
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      EXPECT_EQ(driver.run(20), 20);
      EXPECT_EQ(driver.rollbacksDone(), 0);
      collectMacro(domain, driver.solver(), rho, u);
    });
  };
  std::vector<double> offRho(lat.numFluidSites()), onRho(lat.numFluidSites());
  std::vector<Vec3d> offU(lat.numFluidSites()), onU(lat.numFluidSites());
  runWith(0, offRho, offU);
  runWith(5, onRho, onU);
  for (std::size_t g = 0; g < offRho.size(); ++g) {
    ASSERT_EQ(offRho[g], onRho[g]) << "site " << g;
    ASSERT_EQ(offU[g].x, onU[g].x) << "site " << g;
    ASSERT_EQ(offU[g].y, onU[g].y) << "site " << g;
    ASSERT_EQ(offU[g].z, onU[g].z) << "site " << g;
  }
}

TEST(Sentinel, DivergenceTriggersRollbackAndQuarantine) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dir = "/tmp/hemo_test_sentinel_rollback";
  std::filesystem::remove_all(dir);

  auto cfg = plainDriverConfig();
  cfg.lb.bodyForce = {5e-3, 0, 0};  // keeps accelerating a low-tau run
  cfg.statusEvery = 10;
  cfg.checkpointEvery = 10;
  cfg.checkpointDir = dir;
  cfg.checkpointKeep = 8;
  cfg.sentinel.checkEvery = 5;
  cfg.sentinel.maxSpeed = 0.3;
  cfg.sentinel.maxRollbacks = 3;
  // The injected tau (0.502) is exactly what the stage-1 guard exists to
  // refuse — disable it so the stage-2 sentinel has something to catch.
  cfg.guard.enabled = false;

  serve::SessionBroker broker;
  std::uint32_t badId = 0;
  std::optional<steer::Reject> nack;
  std::thread user([clientEnd = broker.connect(), &badId, &nack,
                    checkpointStep = cfg.checkpointEvery]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command sub;
    sub.type = steer::MsgType::kSubscribe;
    sub.stream = static_cast<std::uint8_t>(serve::StreamKind::kStatus);
    sub.cadence = 10;
    client.send(sub);
    // The first tick can fire at step 0, before any checkpoint exists:
    // wait for a status at or past the step-10 checkpoint.
    auto status = client.awaitStatus();
    while (status.has_value() &&
           status->step < static_cast<std::uint64_t>(checkpointStep)) {
      status = client.awaitStatus();
    }
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->consistencyStep, status->step);
    steer::Command c;
    c.type = steer::MsgType::kSetTau;
    c.value = 0.502;  // near-zero viscosity: diverges under the body force
    badId = client.send(c);
    // The sentinel must eventually quarantine it retroactively.
    nack = client.awaitReject();
  });

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    const int executed = driver.run(200);
    // Divergence was caught and rolled back — the run finished all its
    // steps instead of aborting or terminating early.
    EXPECT_EQ(executed, 200);
    EXPECT_FALSE(driver.terminated());
    EXPECT_GE(driver.rollbacksDone(), 1);
    // The quarantine reverted the poisoned parameter...
    EXPECT_DOUBLE_EQ(driver.solver().params().tau, 0.8);
    // ...and the final state is finite everywhere.
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      ASSERT_TRUE(std::isfinite(driver.solver().macro().rho[l]));
      ASSERT_TRUE(std::isfinite(driver.solver().macro().u[l].norm()));
    }
  });
  // Queued frames still drain; a NACK that never came reads as EOF, not a
  // hang.
  broker.closeAll();
  user.join();

  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ(static_cast<int>(nack->type),
            static_cast<int>(steer::MsgType::kRejectedAfterRollback));
  EXPECT_EQ(nack->commandId, badId);
  EXPECT_EQ(static_cast<int>(nack->reason),
            static_cast<int>(steer::RejectReason::kDivergence));
  std::filesystem::remove_all(dir);
}

TEST(Sentinel, ExhaustedRetriesProduceDiagnosticDumpNotAbort) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dump = "/tmp/hemo_test_sentinel_dump.txt";
  std::remove(dump.c_str());

  auto cfg = plainDriverConfig();
  // A violent body force with no checkpoints to roll back to: the sentinel
  // must degrade to the diagnostic dump and stop cleanly, never abort.
  cfg.lb.bodyForce = {0.2, 0, 0};
  cfg.sentinel.checkEvery = 2;
  cfg.sentinel.dumpPath = dump;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    const int executed = driver.run(50);
    EXPECT_LT(executed, 50);  // stopped at the first unrecoverable window
    EXPECT_TRUE(driver.terminated());
    EXPECT_EQ(driver.rollbacksDone(), 0);
    EXPECT_EQ(driver.lastStatus().consistencyOk, 0);
  });

  // The dump names the offending window, the per-rank extrema, and the
  // recent command history — what an operator needs post mortem.
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << dump;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("offending step"), std::string::npos);
  EXPECT_NE(text.find("per-rank extrema"), std::string::npos);
  EXPECT_NE(text.find("rank 1"), std::string::npos);
  EXPECT_NE(text.find("last applied steered commands"), std::string::npos);
  std::remove(dump.c_str());
}

}  // namespace
}  // namespace hemo
