#pragma once
/// \file protocol.hpp
/// \brief Wire protocol between the steering client and the simulation
/// master (paper §IV.C.1/§IV.C.3).
///
/// Commands flow client → master and cover everything the paper lists:
/// visualisation parameters (view point, field, visualisation rate, region
/// of interest) and simulation parameters (relaxation time, body force,
/// iolet pressure), plus pause/resume/terminate. Responses flow master →
/// client: acknowledgements, status reports ("consistency and validity
/// checks, or estimates on the remaining runtime"), rendered image frames
/// and multiresolution ROI node data.

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"
#include "multires/octree.hpp"
#include "telemetry/step_report.hpp"
#include "util/bbox.hpp"
#include "vis/camera.hpp"
#include "vis/volume.hpp"

namespace hemo::steer {

enum class MsgType : std::uint8_t {
  // client -> master
  kSetCamera = 1,
  kSetField,
  kSetVisRate,
  kSetRoi,
  kSetRenderClip,
  kSetTau,
  kSetBodyForce,
  kSetIoletDensity,
  kSetIoletVelocity,
  kPause,
  kResume,
  kRequestStatus,
  kRequestFrame,
  kRequestObservable,
  kTerminate,
  kRequestTelemetry,  ///< one aggregated StepReport, on demand
  // client -> master, serving layer (handled by serve::SessionBroker)
  kSubscribe,    ///< stream (serve::StreamKind) + cadence + params
  kUnsubscribe,  ///< stream
  kSetCodec,     ///< codec mask + quantised-float max error (in `value`)
  kHeartbeatAck, ///< echoes a broker heartbeat's sequence number
  kRelayHello,   ///< marks this session as a relay (edge-relay serving tier)
  kCredit,       ///< downstream grants the upstream N more frames (flow ctl)
  // master -> client
  kAck = 64,
  kStatus,
  kImageFrame,
  kRoiData,
  kObservable,
  kTelemetry,  ///< aggregated telemetry::StepReport of the last window
  kCodedImage,  ///< codec-compressed ImageFrame (serve wire layer)
  kCodedRoi,    ///< codec-compressed RoiData (serve wire layer)
  kHeartbeat,   ///< broker liveness probe; clients must echo the sequence
  kReject,      ///< typed NACK: command failed validation, state untouched
  kRejectedAfterRollback,  ///< retroactive NACK: command quarantined after a
                           ///< sentinel-triggered checkpoint rollback
  kProgressiveImage,  ///< one octree-level delta of a progressive image
                      ///< stream (coarse root first, refinements after)
};

/// Why a steering command was refused (carried in a kReject /
/// kRejectedAfterRollback frame).
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kTauUnstable,       ///< tau below the stability bound or above the ceiling
  kNonFinite,         ///< NaN / inf in a value, force or velocity
  kValueOutOfRange,   ///< finite but outside the configured safe range
  kIoletOutOfRange,   ///< iolet id does not exist in the lattice
  kRoiOutsideLattice, ///< non-empty ROI with no overlap with the domain
  kDivergence,        ///< quarantined after a sentinel rollback
};

const char* rejectReasonName(RejectReason reason);

/// Typed NACK answering a refused command.
struct Reject {
  MsgType type = MsgType::kReject;  ///< kReject or kRejectedAfterRollback
  std::uint32_t commandId = 0;
  RejectReason reason = RejectReason::kNone;
};

/// Hydrodynamic observables computable over a user-defined subset of the
/// simulation volume (§I).
enum class ObservableKind : std::uint8_t {
  kMeanSpeed = 0,
  kMaxSpeed = 1,
  kMassFluxX = 2,  ///< sum of rho*u_x over the subset
  kMass = 3,
  kMeanWss = 4,
};

/// A steering command. One struct covers all command types; only the
/// fields relevant to `type` are meaningful.
struct Command {
  MsgType type = MsgType::kRequestStatus;
  std::uint32_t commandId = 0;   ///< echoed in the Ack
  vis::Camera camera{};
  std::uint8_t renderField = 0;  ///< vis::RenderField
  std::int32_t visRate = 10;
  BoxI roi{};
  std::int32_t roiLevel = 0;
  double value = 0.0;            ///< tau / iolet density / quant max error
  std::int32_t ioletId = 0;
  Vec3d force{};
  std::uint8_t observable = 0;   ///< ObservableKind for kRequestObservable
  // Serving-layer fields (kSubscribe/kUnsubscribe/kSetCodec).
  std::uint8_t stream = 0;       ///< serve::StreamKind
  std::int32_t cadence = 0;      ///< steps between stream frames
  std::uint8_t codec = 0;        ///< serve::CodecConfig feature mask
};

/// Reply to kRequestObservable.
struct ObservableReport {
  std::uint64_t step = 0;
  std::uint8_t kind = 0;
  double value = 0.0;
  std::uint64_t siteCount = 0;  ///< sites inside the requested subset
};

/// Periodic health report of the running simulation.
struct StatusReport {
  std::uint64_t step = 0;
  std::uint64_t totalSites = 0;
  double totalMass = 0.0;
  double maxSpeed = 0.0;        ///< lattice units; Mach check
  double loadImbalance = 1.0;   ///< measured busy-time max/mean
  double stepsPerSecond = 0.0;
  double etaSeconds = 0.0;      ///< estimate to finish the requested steps
  std::uint8_t consistencyOk = 1;  ///< mass drift + stability checks
  std::uint8_t paused = 0;
  /// Step at which `consistencyOk` was actually computed. Status windows
  /// can lag the consistency window, so a verdict without its provenance
  /// step is ambiguous. Decoders of pre-field frames default this to
  /// `step` (wire back-compat).
  std::uint64_t consistencyStep = 0;
  /// Critical-path gauges from the last telemetry window (wait-state
  /// attribution, telemetry/waitstate.hpp). Decoders of pre-field frames
  /// keep the defaults: no straggler, kNone, zero wait.
  std::int32_t waitStragglerRank = -1;
  std::uint8_t waitDominantCause = 0;  ///< telemetry::WaitCause value
  double waitSeconds = 0.0;            ///< classified wait in the window
};

struct ImageFrame {
  std::uint64_t step = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::vector<std::uint8_t> rgb;
};

struct RoiData {
  std::uint64_t step = 0;
  std::int32_t level = 0;
  std::vector<multires::OctreeNode> nodes;
};

// --- framing -----------------------------------------------------------------

std::vector<std::byte> encodeCommand(const Command& cmd);
Command decodeCommand(const std::vector<std::byte>& frame);

std::vector<std::byte> encodeStatus(const StatusReport& status);
StatusReport decodeStatus(const std::vector<std::byte>& frame);

/// Non-throwing decode variants for untrusted input: nullopt instead of
/// CheckError on truncated / oversized / malformed frames.
std::optional<Command> tryDecodeCommand(const std::vector<std::byte>& frame);
std::optional<StatusReport> tryDecodeStatus(const std::vector<std::byte>& frame);

std::vector<std::byte> encodeReject(const Reject& reject);
Reject decodeReject(const std::vector<std::byte>& frame);

std::vector<std::byte> encodeImage(const ImageFrame& frame);
ImageFrame decodeImage(const std::vector<std::byte>& bytes);

std::vector<std::byte> encodeRoi(const RoiData& roi);
RoiData decodeRoi(const std::vector<std::byte>& bytes);

std::vector<std::byte> encodeAck(std::uint32_t commandId);

/// Heartbeat probe (master -> client) / its echo (client -> master). Both
/// carry just the sequence number; decodeHeartbeatSeq reads either.
std::vector<std::byte> encodeHeartbeat(std::uint64_t seq);
std::vector<std::byte> encodeHeartbeatAck(std::uint64_t seq);
std::uint64_t decodeHeartbeatSeq(const std::vector<std::byte>& frame);

/// Credit grant (downstream -> upstream): the receiver is ready for
/// `credits` more frames. `ackStep`/`ackLevel` report the newest
/// progressive level fully consumed, closing the quality-adaptation loop
/// (an upstream that sees stale acks sheds fine levels first).
struct Credit {
  std::uint32_t credits = 0;
  std::uint64_t ackStep = 0;
  std::int32_t ackLevel = -1;  ///< -1: no progressive frame consumed yet
};

std::vector<std::byte> encodeCredit(const Credit& credit);
Credit decodeCredit(const std::vector<std::byte>& frame);

std::vector<std::byte> encodeObservable(const ObservableReport& report);
ObservableReport decodeObservable(const std::vector<std::byte>& frame);

std::vector<std::byte> encodeTelemetry(const telemetry::StepReport& report);
telemetry::StepReport decodeTelemetry(const std::vector<std::byte>& frame);

/// Type tag of a frame (first byte).
MsgType frameType(const std::vector<std::byte>& frame);

// --- collective propagation --------------------------------------------------

/// Collective: rank 0 packs `rank0Commands` (ignored elsewhere) and
/// broadcasts; every rank returns the identical decoded list. The master's
/// step 4 of §IV.C.1 (propagate the drained commands so all ranks apply
/// them in the same step), counted as kSteer traffic.
std::vector<Command> broadcastCommands(comm::Communicator& comm,
                                       const std::vector<Command>& rank0Commands);

}  // namespace hemo::steer
