#include "steer/client.hpp"

#include "io/serial.hpp"
#include "util/check.hpp"

namespace hemo::steer {

std::uint32_t SteeringClient::send(Command cmd) {
  cmd.commandId = nextCommandId_++;
  inFlight_[cmd.commandId] = clock::now();
  HEMO_CHECK_MSG(channel_.send(encodeCommand(cmd)),
                 "steering channel closed");
  return cmd.commandId;
}

std::optional<std::vector<std::byte>> SteeringClient::nextOfAny(
    std::initializer_list<MsgType> types) {
  const auto wanted = [&](const std::vector<std::byte>& frame) {
    const MsgType t = frameType(frame);
    for (const MsgType w : types) {
      if (t == w) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < stash_.size(); ++i) {
    if (wanted(stash_[i])) {
      auto frame = std::move(stash_[i]);
      stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
      return frame;
    }
  }
  for (;;) {
    auto frame = channel_.recv();
    if (!frame) return std::nullopt;  // EOF
    if (wanted(*frame)) return frame;
    stash_.push_back(std::move(*frame));
  }
}

std::optional<std::vector<std::byte>> SteeringClient::nextOfType(
    MsgType type) {
  return nextOfAny({type});
}

std::optional<StatusReport> SteeringClient::awaitStatus() {
  const auto frame = nextOfType(MsgType::kStatus);
  if (!frame) return std::nullopt;
  return decodeStatus(*frame);
}

std::optional<ImageFrame> SteeringClient::awaitImage() {
  const auto frame = nextOfType(MsgType::kImageFrame);
  if (!frame) return std::nullopt;
  return decodeImage(*frame);
}

std::optional<RoiData> SteeringClient::awaitRoi() {
  const auto frame = nextOfType(MsgType::kRoiData);
  if (!frame) return std::nullopt;
  return decodeRoi(*frame);
}

std::optional<ObservableReport> SteeringClient::awaitObservable() {
  const auto frame = nextOfType(MsgType::kObservable);
  if (!frame) return std::nullopt;
  return decodeObservable(*frame);
}

std::optional<telemetry::StepReport> SteeringClient::awaitTelemetry() {
  const auto frame = nextOfType(MsgType::kTelemetry);
  if (!frame) return std::nullopt;
  return decodeTelemetry(*frame);
}

std::optional<std::uint32_t> SteeringClient::awaitAck() {
  const auto frame = nextOfType(MsgType::kAck);
  if (!frame) return std::nullopt;
  io::Reader r(*frame);
  r.get<std::uint8_t>();
  const std::uint32_t commandId = r.get<std::uint32_t>();
  const auto it = inFlight_.find(commandId);
  if (it != inFlight_.end()) {
    roundTrip_.add(
        std::chrono::duration<double>(clock::now() - it->second).count());
    inFlight_.erase(it);
  }
  return commandId;
}

std::optional<Reject> SteeringClient::awaitReject() {
  const auto frame =
      nextOfAny({MsgType::kReject, MsgType::kRejectedAfterRollback});
  if (!frame) return std::nullopt;
  const Reject reject = decodeReject(*frame);
  inFlight_.erase(reject.commandId);
  return reject;
}

}  // namespace hemo::steer
