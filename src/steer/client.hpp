#pragma once
/// \file client.hpp
/// \brief Blocking steering client: typed sends, typed awaits.
///
/// §IV.C.1 step 2-3: "A steering client is connected to the simulation
/// master node. The client sends visualisation parameters ..." The client
/// speaks the steer wire protocol over one channel end; on the simulation
/// side that end is a session of the serving broker (serve/broker.hpp),
/// which routes replies back to the client that asked.

#include <chrono>
#include <map>
#include <optional>
#include <vector>

#include "comm/channel.hpp"
#include "steer/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace hemo::steer {

/// Client-side convenience wrapper: typed sends, typed blocking receives.
class SteeringClient {
 public:
  explicit SteeringClient(comm::ChannelEnd serverEnd)
      : channel_(std::move(serverEnd)) {}

  /// Send a command; returns its command id (auto-assigned).
  std::uint32_t send(Command cmd);

  /// Block until the next frame of the given type arrives (frames of other
  /// types are queued for later typed receives). nullopt on channel EOF.
  std::optional<StatusReport> awaitStatus();
  std::optional<ImageFrame> awaitImage();
  std::optional<RoiData> awaitRoi();
  std::optional<ObservableReport> awaitObservable();
  std::optional<telemetry::StepReport> awaitTelemetry();
  std::optional<std::uint32_t> awaitAck();
  /// Next kReject or kRejectedAfterRollback frame (either type).
  std::optional<Reject> awaitReject();

  /// Command → ack round-trip latency (seconds) of every awaitAck() whose
  /// command id was issued by this client.
  const telemetry::LogHistogram& roundTripHistogram() const {
    return roundTrip_;
  }

  void close() { channel_.close(); }

 private:
  using clock = std::chrono::steady_clock;

  std::optional<std::vector<std::byte>> nextOfType(MsgType type);
  std::optional<std::vector<std::byte>> nextOfAny(
      std::initializer_list<MsgType> types);

  comm::ChannelEnd channel_;
  std::vector<std::vector<std::byte>> stash_;
  std::uint32_t nextCommandId_ = 1;
  std::map<std::uint32_t, clock::time_point> inFlight_;
  telemetry::LogHistogram roundTrip_;
};

}  // namespace hemo::steer
