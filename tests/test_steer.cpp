// Steering protocol + client tests: frame round trips, command broadcast
// semantics, typed awaits, and traffic classification. The simulation side
// of every client test is a serving-broker session (serve/broker.hpp):
// rank 0 drains the broker, broadcastCommands propagates to all ranks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "comm/runtime.hpp"
#include "serve/broker.hpp"
#include "steer/client.hpp"
#include "steer/guard.hpp"
#include "steer/protocol.hpp"
#include "util/check.hpp"

namespace hemo::steer {
namespace {

/// One steering poll of the broker path (collective): rank 0 drains the
/// broker's sessions at `step`, every rank returns the broadcast list.
std::vector<Command> pollBroker(comm::Communicator& comm,
                                serve::SessionBroker& broker,
                                std::uint64_t step = 0) {
  std::vector<Command> drained;
  if (comm.rank() == 0) drained = broker.drainCommands(comm, step);
  return broadcastCommands(comm, drained);
}

TEST(Protocol, CommandRoundTripAllFields) {
  Command cmd;
  cmd.type = MsgType::kSetRoi;
  cmd.commandId = 42;
  cmd.camera.position = {1, 2, 3};
  cmd.camera.target = {4, 5, 6};
  cmd.camera.fovYDegrees = 55.5;
  cmd.renderField = 1;
  cmd.visRate = 7;
  cmd.roi = {{1, 2, 3}, {9, 8, 7}};
  cmd.roiLevel = 3;
  cmd.value = 0.85;
  cmd.ioletId = 2;
  cmd.force = {1e-5, 0, -1e-5};

  const auto back = decodeCommand(encodeCommand(cmd));
  EXPECT_EQ(static_cast<int>(back.type), static_cast<int>(cmd.type));
  EXPECT_EQ(back.commandId, 42u);
  EXPECT_EQ(back.camera.position, cmd.camera.position);
  EXPECT_EQ(back.camera.target, cmd.camera.target);
  EXPECT_DOUBLE_EQ(back.camera.fovYDegrees, 55.5);
  EXPECT_EQ(back.renderField, 1);
  EXPECT_EQ(back.visRate, 7);
  EXPECT_EQ(back.roi, cmd.roi);
  EXPECT_EQ(back.roiLevel, 3);
  EXPECT_DOUBLE_EQ(back.value, 0.85);
  EXPECT_EQ(back.ioletId, 2);
  EXPECT_EQ(back.force, cmd.force);
}

TEST(Protocol, StatusRoundTrip) {
  StatusReport s;
  s.step = 12345;
  s.totalSites = 999;
  s.totalMass = 1000.5;
  s.maxSpeed = 0.07;
  s.loadImbalance = 1.23;
  s.stepsPerSecond = 88.0;
  s.etaSeconds = 17.5;
  s.consistencyOk = 0;
  s.paused = 1;
  const auto back = decodeStatus(encodeStatus(s));
  EXPECT_EQ(back.step, 12345u);
  EXPECT_EQ(back.totalSites, 999u);
  EXPECT_DOUBLE_EQ(back.totalMass, 1000.5);
  EXPECT_DOUBLE_EQ(back.maxSpeed, 0.07);
  EXPECT_DOUBLE_EQ(back.loadImbalance, 1.23);
  EXPECT_EQ(back.consistencyOk, 0);
  EXPECT_EQ(back.paused, 1);
}

TEST(Protocol, ImageAndRoiRoundTrip) {
  ImageFrame f;
  f.step = 10;
  f.width = 2;
  f.height = 1;
  f.rgb = {1, 2, 3, 4, 5, 6};
  const auto fb = decodeImage(encodeImage(f));
  EXPECT_EQ(fb.width, 2);
  EXPECT_EQ(fb.rgb, f.rgb);

  RoiData roi;
  roi.step = 11;
  roi.level = 4;
  multires::OctreeNode node;
  node.key = 77;
  node.count = 3;
  node.meanScalar = 1.5f;
  roi.nodes = {node};
  const auto rb = decodeRoi(encodeRoi(roi));
  EXPECT_EQ(rb.level, 4);
  ASSERT_EQ(rb.nodes.size(), 1u);
  EXPECT_EQ(rb.nodes[0].key, 77u);
  EXPECT_FLOAT_EQ(rb.nodes[0].meanScalar, 1.5f);
}

TEST(Protocol, FrameTypeTagIsFirstByte) {
  EXPECT_EQ(static_cast<int>(frameType(encodeAck(5))),
            static_cast<int>(MsgType::kAck));
  Command cmd;
  cmd.type = MsgType::kPause;
  EXPECT_EQ(static_cast<int>(frameType(encodeCommand(cmd))),
            static_cast<int>(MsgType::kPause));
}

TEST(Server, BroadcastsCommandsToAllRanks) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  Command pause;
  pause.type = MsgType::kPause;
  client.send(pause);
  Command tau;
  tau.type = MsgType::kSetTau;
  tau.value = 0.9;
  client.send(tau);

  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    const auto cmds = pollBroker(comm, broker);
    // Every rank sees both commands, in order.
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(static_cast<int>(cmds[0].type),
              static_cast<int>(MsgType::kPause));
    EXPECT_EQ(static_cast<int>(cmds[1].type),
              static_cast<int>(MsgType::kSetTau));
    EXPECT_DOUBLE_EQ(cmds[1].value, 0.9);
    // A second poll with nothing pending returns empty everywhere.
    EXPECT_TRUE(pollBroker(comm, broker).empty());
  });
}

TEST(Server, ResponsesReachTheClient) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  Command c;
  c.type = MsgType::kRequestStatus;
  client.send(c);
  c.type = MsgType::kRequestFrame;
  client.send(c);
  c.type = MsgType::kPause;
  const std::uint32_t pauseId = client.send(c);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto cmds = pollBroker(comm, broker);
    ASSERT_EQ(cmds.size(), 3u);
    if (comm.rank() != 0) return;
    StatusReport s;
    s.step = 5;
    broker.respondStatus(comm, cmds[0].commandId, s);
    ImageFrame f;
    f.step = 5;
    f.width = 1;
    f.height = 1;
    f.rgb = {9, 9, 9};
    broker.respondImage(comm, cmds[1].commandId, /*view=*/1, f);
    broker.respondAck(comm, cmds[2].commandId);
  });
  // Typed awaits filter by type regardless of arrival order: the ack is
  // the last frame queued.
  const auto ack = client.awaitAck();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, pauseId);
  const auto status = client.awaitStatus();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->step, 5u);
  const auto image = client.awaitImage();
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->rgb.size(), 3u);
}

TEST(Server, SteerTrafficIsClassified) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  Command c;
  c.type = MsgType::kRequestStatus;
  client.send(c);
  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) { pollBroker(comm, broker); });
  EXPECT_GT(rt.totalCounters().of(comm::Traffic::kSteer).bytesSent, 0u);
}

TEST(Server, ReceivedSteerBytesAreCountedSymmetrically) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  Command c;
  c.type = MsgType::kPause;
  client.send(c);
  c.type = MsgType::kResume;
  client.send(c);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) { pollBroker(comm, broker); });
  // Rank 0 drained two command frames off the channel: both the message
  // count and the payload bytes must appear on the receive side of kSteer.
  const auto& steer = rt.counters(0).of(comm::Traffic::kSteer);
  EXPECT_EQ(steer.messagesReceived, 2u);
  EXPECT_GT(steer.bytesReceived, 0u);
  // Non-master ranks see only the one broadcast, not the channel frames.
  EXPECT_EQ(rt.counters(1).of(comm::Traffic::kSteer).messagesReceived, 1u);
}

TEST(Client, AckRoundTripFeedsTheRttHistogram) {
  serve::SessionBroker broker;
  const auto channel = comm::makeChannelPair();
  comm::ChannelEnd brokerEnd = channel.second;
  broker.addClient(brokerEnd);
  SteeringClient client(channel.first);
  Command c;
  c.type = MsgType::kPause;
  const std::uint32_t id1 = client.send(c);
  const std::uint32_t id2 = client.send(c);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(client.roundTripHistogram().count(), 0u);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto cmds = pollBroker(comm, broker);
    if (comm.rank() != 0) return;
    // The broker maps its rewritten ids back to id1 and id2.
    for (const auto& cmd : cmds) broker.respondAck(comm, cmd.commandId);
    // A stray ack this client never issued (the channel end is a shared
    // handle): it passes through but adds no RTT sample.
    brokerEnd.send(encodeAck(9999));
  });
  ASSERT_TRUE(client.awaitAck().has_value());
  ASSERT_TRUE(client.awaitAck().has_value());
  ASSERT_TRUE(client.awaitAck().has_value());
  const auto& rtt = client.roundTripHistogram();
  EXPECT_EQ(rtt.count(), 2u);
  EXPECT_GT(rtt.min(), 0.0);
  EXPECT_GE(rtt.p95(), rtt.p50());
}

TEST(Protocol, TelemetryReportRoundTrip) {
  telemetry::StepReport r;
  r.step = 77;
  r.ranks = 4;
  r.sites = 12345;
  r.stepsCovered = 25;
  r.wallSeconds = 1.5;
  r.mlups = 3.25;
  r.collideSeconds = 0.7;
  r.streamSeconds = 0.3;
  r.commSeconds = 0.2;
  r.visSeconds = 0.1;
  r.loadImbalance = 1.08;
  r.commHiddenFraction = 0.9;
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    r.bytesSent[c] = static_cast<std::uint64_t>(c) * 1000;
    r.msgsSent[c] = static_cast<std::uint64_t>(c);
  }
  const auto frame = encodeTelemetry(r);
  EXPECT_EQ(static_cast<int>(frameType(frame)),
            static_cast<int>(MsgType::kTelemetry));
  const auto back = decodeTelemetry(frame);
  EXPECT_EQ(back.step, 77u);
  EXPECT_EQ(back.ranks, 4u);
  EXPECT_EQ(back.sites, 12345u);
  EXPECT_EQ(back.stepsCovered, 25u);
  EXPECT_DOUBLE_EQ(back.wallSeconds, 1.5);
  EXPECT_DOUBLE_EQ(back.mlups, 3.25);
  EXPECT_DOUBLE_EQ(back.collideSeconds, 0.7);
  EXPECT_DOUBLE_EQ(back.streamSeconds, 0.3);
  EXPECT_DOUBLE_EQ(back.commSeconds, 0.2);
  EXPECT_DOUBLE_EQ(back.visSeconds, 0.1);
  EXPECT_DOUBLE_EQ(back.loadImbalance, 1.08);
  EXPECT_DOUBLE_EQ(back.commHiddenFraction, 0.9);
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    EXPECT_EQ(back.bytesSent[c], r.bytesSent[c]);
    EXPECT_EQ(back.msgsSent[c], r.msgsSent[c]);
  }
}

TEST(Server, TelemetryStreamReachesTheClient) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  for (const auto stream :
       {serve::StreamKind::kStatus, serve::StreamKind::kTelemetry}) {
    Command sub;
    sub.type = MsgType::kSubscribe;
    sub.stream = static_cast<std::uint8_t>(stream);
    sub.cadence = 10;
    client.send(sub);
  }
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    // Both subscriptions are due at step 40: one status tick, then one
    // telemetry tick.
    const auto ticks = pollBroker(comm, broker, 40);
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(static_cast<int>(ticks[0].type),
              static_cast<int>(MsgType::kRequestStatus));
    EXPECT_EQ(static_cast<int>(ticks[1].type),
              static_cast<int>(MsgType::kRequestTelemetry));
    if (comm.rank() != 0) return;
    StatusReport s;
    s.step = 40;
    broker.respondStatus(comm, ticks[0].commandId, s);
    telemetry::StepReport r;
    r.step = 40;
    r.ranks = 2;
    r.mlups = 5.5;
    broker.respondTelemetry(comm, ticks[1].commandId, r);
  });
  // Typed await skips past the subscription acks and the earlier status
  // frame.
  const auto report = client.awaitTelemetry();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->step, 40u);
  EXPECT_DOUBLE_EQ(report->mlups, 5.5);
  const auto status = client.awaitStatus();
  ASSERT_TRUE(status.has_value());
}

TEST(Protocol, RejectRoundTripBothTypesAllReasons) {
  const RejectReason reasons[] = {
      RejectReason::kNone,           RejectReason::kTauUnstable,
      RejectReason::kNonFinite,      RejectReason::kValueOutOfRange,
      RejectReason::kIoletOutOfRange, RejectReason::kRoiOutsideLattice,
      RejectReason::kDivergence};
  const MsgType types[] = {MsgType::kReject, MsgType::kRejectedAfterRollback};
  for (const auto type : types) {
    for (const auto reason : reasons) {
      Reject rej;
      rej.type = type;
      rej.commandId = 0xDEADu;
      rej.reason = reason;
      const auto frame = encodeReject(rej);
      EXPECT_EQ(static_cast<int>(frameType(frame)), static_cast<int>(type));
      const auto back = decodeReject(frame);
      EXPECT_EQ(static_cast<int>(back.type), static_cast<int>(type));
      EXPECT_EQ(back.commandId, 0xDEADu);
      EXPECT_EQ(static_cast<int>(back.reason), static_cast<int>(reason));
      EXPECT_NE(rejectReasonName(reason), nullptr);
    }
  }
}

TEST(Protocol, StatusCarriesConsistencyStep) {
  StatusReport s;
  s.step = 200;
  s.consistencyOk = 0;
  s.consistencyStep = 195;  // verdict computed at an earlier sentinel window
  const auto back = decodeStatus(encodeStatus(s));
  EXPECT_EQ(back.consistencyOk, 0);
  EXPECT_EQ(back.consistencyStep, 195u);
}

// Trailing bytes appended to a status frame after the original layout:
// the wait-state block (i32 straggler + u8 cause + f64 seconds) behind
// the consistencyStep u64. Older encoders stop at earlier boundaries.
constexpr std::size_t kStatusWaitBlock =
    sizeof(std::int32_t) + sizeof(std::uint8_t) + sizeof(double);

TEST(Protocol, StatusDecodeIsWireBackCompatible) {
  // Frames from older builds end at earlier field boundaries: before the
  // wait-state block, and before that at consistencyStep. The decoder
  // must accept both generations and default the missing fields.
  StatusReport s;
  s.step = 321;
  s.consistencyStep = 321;
  s.waitStragglerRank = 3;
  s.waitSeconds = 0.5;
  auto frame = encodeStatus(s);

  frame.resize(frame.size() - kStatusWaitBlock);  // pre-wait-state build
  const auto mid = decodeStatus(frame);
  EXPECT_EQ(mid.step, 321u);
  EXPECT_EQ(mid.consistencyStep, 321u);
  EXPECT_EQ(mid.waitStragglerRank, -1);
  EXPECT_EQ(mid.waitSeconds, 0.0);

  frame.resize(frame.size() - sizeof(std::uint64_t));  // pre-consistencyStep
  const auto old = decodeStatus(frame);
  EXPECT_EQ(old.step, 321u);
  EXPECT_EQ(old.consistencyStep, 321u);
  EXPECT_EQ(old.waitStragglerRank, -1);
}

TEST(Protocol, OversizedVectorCountIsATypedError) {
  // Patch an image frame's rgb count (at tag u8 + step u64 + w i32 + h i32)
  // to a value whose byte size would wrap or exhaust memory. The decoder
  // must throw CheckError before allocating anything.
  ImageFrame f;
  f.step = 1;
  f.width = 1;
  f.height = 1;
  f.rgb = {1, 2, 3};
  auto frame = encodeImage(f);
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max() / 2;
  std::memcpy(frame.data() + 1 + 8 + 4 + 4, &huge, sizeof(huge));
  EXPECT_THROW(decodeImage(frame), CheckError);
}

TEST(Protocol, TruncatedFramesYieldNulloptNotCrash) {
  Command cmd;
  cmd.type = MsgType::kSetTau;
  cmd.value = 0.9;
  const auto cmdFrame = encodeCommand(cmd);
  for (std::size_t n = 0; n < cmdFrame.size(); ++n) {
    const std::vector<std::byte> prefix(cmdFrame.begin(),
                                        cmdFrame.begin() + n);
    EXPECT_FALSE(tryDecodeCommand(prefix).has_value()) << "prefix " << n;
  }
  StatusReport s;
  s.step = 9;
  const auto statusFrame = encodeStatus(s);
  // Every prefix must fail except the legacy field boundaries: the frame
  // minus the wait-state block, and minus the consistencyStep u64 too.
  const std::size_t preWait = statusFrame.size() - kStatusWaitBlock;
  const std::size_t preConsistency = preWait - sizeof(std::uint64_t);
  for (std::size_t n = 0; n < statusFrame.size(); ++n) {
    const std::vector<std::byte> prefix(statusFrame.begin(),
                                        statusFrame.begin() + n);
    const bool legacyBoundary = n == preWait || n == preConsistency;
    EXPECT_EQ(tryDecodeStatus(prefix).has_value(), legacyBoundary)
        << "prefix " << n;
  }
}

TEST(Protocol, FuzzedFramesNeverCrashTheDecoders) {
  std::mt19937 rng(20260805u);  // seeded: failures are reproducible
  std::uniform_int_distribution<int> byteDist(0, 255);
  auto decodeAll = [](const std::vector<std::byte>& frame) {
    // Throwing decoders are exercised under try/catch: a typed CheckError
    // is the accepted outcome for garbage; anything else (OOB, bad_alloc,
    // crash) fails the test by escaping or killing the process.
    (void)tryDecodeCommand(frame);
    (void)tryDecodeStatus(frame);
    const auto tryOne = [&](auto&& decode) {
      try {
        (void)decode(frame);
      } catch (const CheckError&) {
      }
    };
    tryOne([](const auto& f) { return decodeReject(f); });
    tryOne([](const auto& f) { return decodeImage(f); });
    tryOne([](const auto& f) { return decodeRoi(f); });
    tryOne([](const auto& f) { return decodeObservable(f); });
    tryOne([](const auto& f) { return decodeTelemetry(f); });
    tryOne([](const auto& f) { return decodeHeartbeatSeq(f); });
  };

  // Mode 1: single-byte mutations of valid frames (keeps structure mostly
  // intact so deep decoder paths are reached).
  Command cmd;
  cmd.type = MsgType::kSetBodyForce;
  cmd.force = {1e-4, 0, 0};
  std::vector<std::vector<std::byte>> seeds;
  seeds.push_back(encodeCommand(cmd));
  seeds.push_back(encodeStatus(StatusReport{}));
  seeds.push_back(encodeReject(Reject{}));
  ImageFrame img;
  img.width = 2;
  img.height = 2;
  img.rgb.assign(12, 7);
  seeds.push_back(encodeImage(img));
  RoiData roi;
  roi.nodes.resize(3);
  seeds.push_back(encodeRoi(roi));
  for (const auto& seed : seeds) {
    for (int trial = 0; trial < 200; ++trial) {
      auto mutated = seed;
      const auto pos = static_cast<std::size_t>(rng() % mutated.size());
      mutated[pos] = static_cast<std::byte>(byteDist(rng));
      decodeAll(mutated);
    }
  }

  // Mode 2: pure random frames, 0..512 bytes.
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::byte> frame(rng() % 513);
    for (auto& b : frame) b = static_cast<std::byte>(byteDist(rng));
    decodeAll(frame);
  }
}

TEST(Guard, MinStableTauMatchesTheHeuristic) {
  EXPECT_DOUBLE_EQ(minStableTau(0.0), 0.5);
  EXPECT_DOUBLE_EQ(minStableTau(0.3), 0.5 + 1.5 * 0.09);
  // The documented workloads (tau 0.8/0.9) clear the default ceiling.
  EXPECT_LT(minStableTau(0.3), 0.8);
}

TEST(Guard, ValidCommandsPass) {
  GuardConfig cfg;
  GuardContext ctx;
  ctx.numIolets = 2;
  ctx.lattice = BoxI{{0, 0, 0}, {32, 32, 32}};
  Command cmd;
  cmd.type = MsgType::kSetTau;
  cmd.value = 0.8;
  EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
            static_cast<int>(RejectReason::kNone));
  cmd.type = MsgType::kSetIoletDensity;
  cmd.ioletId = 1;
  cmd.value = 1.02;
  EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
            static_cast<int>(RejectReason::kNone));
  cmd.type = MsgType::kSetRoi;
  cmd.roi = BoxI{{0, 0, 0}, {64, 64, 64}};  // oversized but overlapping: OK
  EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
            static_cast<int>(RejectReason::kNone));
  cmd.roi = BoxI{};  // empty ROI means "reset"; always allowed
  EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
            static_cast<int>(RejectReason::kNone));
  // Non-mutating commands are never rejected.
  cmd.type = MsgType::kPause;
  cmd.value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
            static_cast<int>(RejectReason::kNone));
}

TEST(Guard, EachViolationMapsToItsReason) {
  GuardConfig cfg;
  GuardContext ctx;
  ctx.numIolets = 2;
  ctx.lattice = BoxI{{0, 0, 0}, {32, 32, 32}};
  const auto expect = [&](const Command& cmd, RejectReason want) {
    EXPECT_EQ(static_cast<int>(validateCommand(cmd, cfg, ctx)),
              static_cast<int>(want))
        << rejectReasonName(want);
  };
  Command cmd;
  cmd.type = MsgType::kSetTau;
  cmd.value = 0.55;  // below minStableTau(0.3) = 0.635
  expect(cmd, RejectReason::kTauUnstable);
  cmd.value = 50.0;
  expect(cmd, RejectReason::kTauUnstable);
  cmd.value = std::numeric_limits<double>::quiet_NaN();
  expect(cmd, RejectReason::kNonFinite);

  cmd = Command{};
  cmd.type = MsgType::kSetBodyForce;
  cmd.force = {0, std::numeric_limits<double>::infinity(), 0};
  expect(cmd, RejectReason::kNonFinite);
  cmd.force = {0.5, 0, 0};  // above maxBodyForce
  expect(cmd, RejectReason::kValueOutOfRange);

  cmd = Command{};
  cmd.type = MsgType::kSetIoletDensity;
  cmd.ioletId = 99;
  cmd.value = 1.0;
  expect(cmd, RejectReason::kIoletOutOfRange);
  cmd.ioletId = -1;
  expect(cmd, RejectReason::kIoletOutOfRange);
  cmd.ioletId = 0;
  cmd.value = -5.0;
  expect(cmd, RejectReason::kValueOutOfRange);

  cmd = Command{};
  cmd.type = MsgType::kSetIoletVelocity;
  cmd.ioletId = 0;
  cmd.force = {0.9, 0, 0};  // above maxIoletSpeed
  expect(cmd, RejectReason::kValueOutOfRange);

  cmd = Command{};
  cmd.type = MsgType::kSetRoi;
  cmd.roi = BoxI{{100, 100, 100}, {120, 120, 120}};  // fully outside
  expect(cmd, RejectReason::kRoiOutsideLattice);

  // Disabling the guard waves everything through.
  cfg.enabled = false;
  cmd.type = MsgType::kSetTau;
  cmd.value = 0.501;
  expect(cmd, RejectReason::kNone);
}

TEST(Server, RejectReachesTheClient) {
  serve::SessionBroker broker;
  SteeringClient client(broker.connect());
  Command cmd;
  cmd.type = MsgType::kRequestStatus;
  client.send(cmd);
  cmd.type = MsgType::kSetTau;
  cmd.value = 0.1;
  const std::uint32_t id = client.send(cmd);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    const auto cmds = pollBroker(comm, broker);
    ASSERT_EQ(cmds.size(), 2u);
    if (comm.rank() != 0) return;
    StatusReport s;
    s.step = 3;
    // Interleaved frame; the await below must skip it.
    broker.respondStatus(comm, cmds[0].commandId, s);
    broker.respondReject(comm, cmds[1].commandId, RejectReason::kTauUnstable);
  });
  const auto rej = client.awaitReject();
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->commandId, id);
  EXPECT_EQ(static_cast<int>(rej->reason),
            static_cast<int>(RejectReason::kTauUnstable));
  const auto status = client.awaitStatus();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->step, 3u);
}

TEST(Client, EofYieldsNullopt) {
  auto [clientEnd, serverEnd] = comm::makeChannelPair();
  SteeringClient client(clientEnd);
  serverEnd.close();
  EXPECT_FALSE(client.awaitStatus().has_value());
}

}  // namespace
}  // namespace hemo::steer
