#include "steer/protocol.hpp"

#include <cstring>

#include "io/serial.hpp"
#include "util/check.hpp"

namespace hemo::steer {

namespace {

void putVec3d(io::Writer& w, const Vec3d& v) {
  w.put<double>(v.x);
  w.put<double>(v.y);
  w.put<double>(v.z);
}

Vec3d getVec3d(io::Reader& r) {
  const double x = r.get<double>();
  const double y = r.get<double>();
  const double z = r.get<double>();
  return {x, y, z};
}

void putBoxI(io::Writer& w, const BoxI& b) {
  w.put<std::int32_t>(b.lo.x);
  w.put<std::int32_t>(b.lo.y);
  w.put<std::int32_t>(b.lo.z);
  w.put<std::int32_t>(b.hi.x);
  w.put<std::int32_t>(b.hi.y);
  w.put<std::int32_t>(b.hi.z);
}

BoxI getBoxI(io::Reader& r) {
  BoxI b;
  b.lo.x = r.get<std::int32_t>();
  b.lo.y = r.get<std::int32_t>();
  b.lo.z = r.get<std::int32_t>();
  b.hi.x = r.get<std::int32_t>();
  b.hi.y = r.get<std::int32_t>();
  b.hi.z = r.get<std::int32_t>();
  return b;
}

}  // namespace

MsgType frameType(const std::vector<std::byte>& frame) {
  HEMO_CHECK(!frame.empty());
  return static_cast<MsgType>(frame[0]);
}

std::vector<std::byte> encodeCommand(const Command& cmd) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(cmd.type));
  w.put<std::uint32_t>(cmd.commandId);
  putVec3d(w, cmd.camera.position);
  putVec3d(w, cmd.camera.target);
  putVec3d(w, cmd.camera.up);
  w.put<double>(cmd.camera.fovYDegrees);
  w.put<std::uint8_t>(cmd.renderField);
  w.put<std::int32_t>(cmd.visRate);
  putBoxI(w, cmd.roi);
  w.put<std::int32_t>(cmd.roiLevel);
  w.put<double>(cmd.value);
  w.put<std::int32_t>(cmd.ioletId);
  putVec3d(w, cmd.force);
  w.put<std::uint8_t>(cmd.observable);
  w.put<std::uint8_t>(cmd.stream);
  w.put<std::int32_t>(cmd.cadence);
  w.put<std::uint8_t>(cmd.codec);
  return w.take();
}

Command decodeCommand(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  Command cmd;
  cmd.type = static_cast<MsgType>(r.get<std::uint8_t>());
  cmd.commandId = r.get<std::uint32_t>();
  cmd.camera.position = getVec3d(r);
  cmd.camera.target = getVec3d(r);
  cmd.camera.up = getVec3d(r);
  cmd.camera.fovYDegrees = r.get<double>();
  cmd.renderField = r.get<std::uint8_t>();
  cmd.visRate = r.get<std::int32_t>();
  cmd.roi = getBoxI(r);
  cmd.roiLevel = r.get<std::int32_t>();
  cmd.value = r.get<double>();
  cmd.ioletId = r.get<std::int32_t>();
  cmd.force = getVec3d(r);
  cmd.observable = r.get<std::uint8_t>();
  cmd.stream = r.get<std::uint8_t>();
  cmd.cadence = r.get<std::int32_t>();
  cmd.codec = r.get<std::uint8_t>();
  HEMO_CHECK(r.atEnd());
  return cmd;
}

std::vector<std::byte> encodeStatus(const StatusReport& s) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kStatus));
  w.put<std::uint64_t>(s.step);
  w.put<std::uint64_t>(s.totalSites);
  w.put<double>(s.totalMass);
  w.put<double>(s.maxSpeed);
  w.put<double>(s.loadImbalance);
  w.put<double>(s.stepsPerSecond);
  w.put<double>(s.etaSeconds);
  w.put<std::uint8_t>(s.consistencyOk);
  w.put<std::uint8_t>(s.paused);
  w.put<std::uint64_t>(s.consistencyStep);
  w.put<std::int32_t>(s.waitStragglerRank);
  w.put<std::uint8_t>(s.waitDominantCause);
  w.put<double>(s.waitSeconds);
  return w.take();
}

StatusReport decodeStatus(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  HEMO_CHECK(static_cast<MsgType>(r.get<std::uint8_t>()) == MsgType::kStatus);
  StatusReport s;
  s.step = r.get<std::uint64_t>();
  s.totalSites = r.get<std::uint64_t>();
  s.totalMass = r.get<double>();
  s.maxSpeed = r.get<double>();
  s.loadImbalance = r.get<double>();
  s.stepsPerSecond = r.get<double>();
  s.etaSeconds = r.get<double>();
  s.consistencyOk = r.get<std::uint8_t>();
  s.paused = r.get<std::uint8_t>();
  // Wire back-compat: pre-consistencyStep frames end here; treat the
  // verdict as fresh (computed at the reported step).
  s.consistencyStep =
      r.remaining() >= sizeof(std::uint64_t) ? r.get<std::uint64_t>() : s.step;
  // Wait-state gauges arrived later still; the block is all-or-nothing so
  // a frame can only ever end on a field boundary.
  constexpr std::size_t kWaitBlock =
      sizeof(std::int32_t) + sizeof(std::uint8_t) + sizeof(double);
  if (r.remaining() >= kWaitBlock) {
    s.waitStragglerRank = r.get<std::int32_t>();
    s.waitDominantCause = r.get<std::uint8_t>();
    s.waitSeconds = r.get<double>();
  }
  HEMO_CHECK(r.atEnd());
  return s;
}

std::optional<Command> tryDecodeCommand(const std::vector<std::byte>& frame) {
  try {
    return decodeCommand(frame);
  } catch (const CheckError&) {
    return std::nullopt;
  }
}

std::optional<StatusReport> tryDecodeStatus(const std::vector<std::byte>& frame) {
  try {
    return decodeStatus(frame);
  } catch (const CheckError&) {
    return std::nullopt;
  }
}

std::vector<std::byte> encodeImage(const ImageFrame& f) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kImageFrame));
  w.put<std::uint64_t>(f.step);
  w.put<std::int32_t>(f.width);
  w.put<std::int32_t>(f.height);
  w.putVec(f.rgb);
  return w.take();
}

ImageFrame decodeImage(const std::vector<std::byte>& bytes) {
  io::Reader r(bytes);
  HEMO_CHECK(static_cast<MsgType>(r.get<std::uint8_t>()) ==
             MsgType::kImageFrame);
  ImageFrame f;
  f.step = r.get<std::uint64_t>();
  f.width = r.get<std::int32_t>();
  f.height = r.get<std::int32_t>();
  f.rgb = r.getVec<std::uint8_t>();
  HEMO_CHECK(r.atEnd());
  return f;
}

std::vector<std::byte> encodeRoi(const RoiData& roi) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kRoiData));
  w.put<std::uint64_t>(roi.step);
  w.put<std::int32_t>(roi.level);
  w.putVec(roi.nodes);
  return w.take();
}

RoiData decodeRoi(const std::vector<std::byte>& bytes) {
  io::Reader r(bytes);
  HEMO_CHECK(static_cast<MsgType>(r.get<std::uint8_t>()) ==
             MsgType::kRoiData);
  RoiData roi;
  roi.step = r.get<std::uint64_t>();
  roi.level = r.get<std::int32_t>();
  roi.nodes = r.getVec<multires::OctreeNode>();
  HEMO_CHECK(r.atEnd());
  return roi;
}

std::vector<std::byte> encodeObservable(const ObservableReport& report) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kObservable));
  w.put<std::uint64_t>(report.step);
  w.put<std::uint8_t>(report.kind);
  w.put<double>(report.value);
  w.put<std::uint64_t>(report.siteCount);
  return w.take();
}

ObservableReport decodeObservable(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  HEMO_CHECK(static_cast<MsgType>(r.get<std::uint8_t>()) ==
             MsgType::kObservable);
  ObservableReport report;
  report.step = r.get<std::uint64_t>();
  report.kind = r.get<std::uint8_t>();
  report.value = r.get<double>();
  report.siteCount = r.get<std::uint64_t>();
  HEMO_CHECK(r.atEnd());
  return report;
}

std::vector<std::byte> encodeTelemetry(const telemetry::StepReport& s) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kTelemetry));
  w.put<std::uint64_t>(s.step);
  w.put<std::uint32_t>(s.ranks);
  w.put<std::uint64_t>(s.sites);
  w.put<std::uint64_t>(s.stepsCovered);
  w.put<double>(s.wallSeconds);
  w.put<double>(s.mlups);
  w.put<double>(s.collideSeconds);
  w.put<double>(s.streamSeconds);
  w.put<double>(s.commSeconds);
  w.put<double>(s.visSeconds);
  w.put<double>(s.loadImbalance);
  w.put<double>(s.commHiddenFraction);
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    w.put<std::uint64_t>(s.bytesSent[c]);
  }
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    w.put<std::uint64_t>(s.msgsSent[c]);
  }
  // Wait-state attribution block (appended after the original layout so
  // old decoders still read their prefix).
  w.put<double>(s.waitLateSenderSeconds);
  w.put<double>(s.waitLateReceiverSeconds);
  w.put<double>(s.waitCollectiveSeconds);
  w.put<double>(s.waitLateReceiverSlackSeconds);
  w.put<double>(s.waitMeasuredSeconds);
  w.put<std::int32_t>(s.waitBlamedRank);
  w.put<double>(s.waitBlamedSeconds);
  w.put<std::int32_t>(s.waitStragglerRank);
  w.put<std::uint8_t>(s.waitDominantCause);
  w.put<double>(s.waitAttributedFraction);
  return w.take();
}

telemetry::StepReport decodeTelemetry(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  HEMO_CHECK(static_cast<MsgType>(r.get<std::uint8_t>()) ==
             MsgType::kTelemetry);
  telemetry::StepReport s;
  s.step = r.get<std::uint64_t>();
  s.ranks = r.get<std::uint32_t>();
  s.sites = r.get<std::uint64_t>();
  s.stepsCovered = r.get<std::uint64_t>();
  s.wallSeconds = r.get<double>();
  s.mlups = r.get<double>();
  s.collideSeconds = r.get<double>();
  s.streamSeconds = r.get<double>();
  s.commSeconds = r.get<double>();
  s.visSeconds = r.get<double>();
  s.loadImbalance = r.get<double>();
  s.commHiddenFraction = r.get<double>();
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    s.bytesSent[c] = r.get<std::uint64_t>();
  }
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    s.msgsSent[c] = r.get<std::uint64_t>();
  }
  // Wait-state block (all-or-nothing; pre-field frames end above and the
  // defaults — zero wait, no straggler — stand in).
  constexpr std::size_t kWaitBlock = 7 * sizeof(double) +
                                     2 * sizeof(std::int32_t) +
                                     sizeof(std::uint8_t);
  if (r.remaining() >= kWaitBlock) {
    s.waitLateSenderSeconds = r.get<double>();
    s.waitLateReceiverSeconds = r.get<double>();
    s.waitCollectiveSeconds = r.get<double>();
    s.waitLateReceiverSlackSeconds = r.get<double>();
    s.waitMeasuredSeconds = r.get<double>();
    s.waitBlamedRank = r.get<std::int32_t>();
    s.waitBlamedSeconds = r.get<double>();
    s.waitStragglerRank = r.get<std::int32_t>();
    s.waitDominantCause = r.get<std::uint8_t>();
    s.waitAttributedFraction = r.get<double>();
  }
  HEMO_CHECK(r.atEnd());
  return s;
}

std::vector<std::byte> encodeAck(std::uint32_t commandId) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kAck));
  w.put<std::uint32_t>(commandId);
  return w.take();
}

namespace {
std::vector<std::byte> encodeSeqFrame(MsgType type, std::uint64_t seq) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(type));
  w.put<std::uint64_t>(seq);
  return w.take();
}
}  // namespace

const char* rejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kTauUnstable: return "tau-unstable";
    case RejectReason::kNonFinite: return "non-finite";
    case RejectReason::kValueOutOfRange: return "value-out-of-range";
    case RejectReason::kIoletOutOfRange: return "iolet-out-of-range";
    case RejectReason::kRoiOutsideLattice: return "roi-outside-lattice";
    case RejectReason::kDivergence: return "divergence";
  }
  return "unknown";
}

std::vector<std::byte> encodeReject(const Reject& reject) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(reject.type));
  w.put<std::uint32_t>(reject.commandId);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(reject.reason));
  return w.take();
}

Reject decodeReject(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  Reject reject;
  reject.type = static_cast<MsgType>(r.get<std::uint8_t>());
  HEMO_CHECK_MSG(reject.type == MsgType::kReject ||
                     reject.type == MsgType::kRejectedAfterRollback,
                 "not a reject frame");
  reject.commandId = r.get<std::uint32_t>();
  reject.reason = static_cast<RejectReason>(r.get<std::uint8_t>());
  HEMO_CHECK(r.atEnd());
  return reject;
}

std::vector<std::byte> encodeHeartbeat(std::uint64_t seq) {
  return encodeSeqFrame(MsgType::kHeartbeat, seq);
}

std::vector<std::byte> encodeHeartbeatAck(std::uint64_t seq) {
  return encodeSeqFrame(MsgType::kHeartbeatAck, seq);
}

std::uint64_t decodeHeartbeatSeq(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  const auto type = static_cast<MsgType>(r.get<std::uint8_t>());
  HEMO_CHECK_MSG(type == MsgType::kHeartbeat || type == MsgType::kHeartbeatAck,
                 "not a heartbeat frame");
  return r.get<std::uint64_t>();
}

std::vector<std::byte> encodeCredit(const Credit& credit) {
  io::Writer w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MsgType::kCredit));
  w.put<std::uint32_t>(credit.credits);
  w.put<std::uint64_t>(credit.ackStep);
  w.put<std::int32_t>(credit.ackLevel);
  return w.take();
}

Credit decodeCredit(const std::vector<std::byte>& frame) {
  io::Reader r(frame);
  HEMO_CHECK_MSG(static_cast<MsgType>(r.get<std::uint8_t>()) ==
                     MsgType::kCredit,
                 "not a credit frame");
  Credit credit;
  credit.credits = r.get<std::uint32_t>();
  credit.ackStep = r.get<std::uint64_t>();
  credit.ackLevel = r.get<std::int32_t>();
  HEMO_CHECK(r.atEnd());
  return credit;
}

// --- collective propagation -------------------------------------------------

std::vector<Command> broadcastCommands(
    comm::Communicator& comm, const std::vector<Command>& rank0Commands) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kSteer);
  // Rank 0 concatenates length-prefixed frames, then broadcasts the blob.
  std::vector<std::byte> packed;
  if (comm.rank() == 0) {
    for (const Command& cmd : rank0Commands) {
      const auto frame = encodeCommand(cmd);
      const auto n = static_cast<std::uint32_t>(frame.size());
      const auto* np = reinterpret_cast<const std::byte*>(&n);
      packed.insert(packed.end(), np, np + sizeof(n));
      packed.insert(packed.end(), frame.begin(), frame.end());
    }
  }
  comm.bcastBytes(packed, 0);

  std::vector<Command> commands;
  std::size_t pos = 0;
  while (pos < packed.size()) {
    std::uint32_t n;
    std::memcpy(&n, packed.data() + pos, sizeof(n));
    pos += sizeof(n);
    HEMO_CHECK(pos + n <= packed.size());
    commands.push_back(decodeCommand(std::vector<std::byte>(
        packed.begin() + static_cast<std::ptrdiff_t>(pos),
        packed.begin() + static_cast<std::ptrdiff_t>(pos + n))));
    pos += n;
  }
  return commands;
}

}  // namespace hemo::steer
