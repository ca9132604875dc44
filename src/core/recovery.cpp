#include "core/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "lb/domain_map.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hemo::core {

namespace {

/// User tag for the agreement round (9851/9852 are the buddy mirror).
constexpr int kTagAgree = 9861;

void noteFlight(const std::string& what) {
  if (auto* t = telemetry::threadTelemetry()) {
    t->flightRecorder().note(what);
  }
}

void bumpCounter(const char* name, std::uint64_t n = 1) {
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter(name).add(n);
  }
}

}  // namespace

std::vector<int> agreeOnDeadSet(comm::Communicator& comm,
                                comm::DeathBoard& board,
                                const comm::LivenessConfig& cfg) {
  const int me = comm.worldRank();
  if (board.dead(me)) {
    throw util::RankKilledError(
        "rank " + std::to_string(me) +
        " was declared dead by the group; committing suicide");
  }
  // Peers silent for the whole agreement deadline are accused here too —
  // detection must make progress even when the dead rank is one we never
  // blocked on directly. Wider than the steady-state timeout: agreement
  // runs while survivors are still unwinding deep call stacks.
  const std::int64_t deadlineNs =
      std::max<std::int64_t>(3 * cfg.timeoutMs, 1000) * 1'000'000;
  // Each restart consumes a strictly newer epoch, so non-convergence means
  // more deaths than ranks — impossible; the cap only guards a logic bug.
  const int maxAttempts = 64 + 8 * comm.size();
  // Newest epoch each peer (group rank) has announced, kept across
  // attempts: a peer that announced epoch E, collected its acks and
  // returned never announces E again, so an announcement that arrived while
  // this rank was still on an older epoch must count once it catches up.
  std::vector<std::uint32_t> heard(static_cast<std::size_t>(comm.size()), 0);
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    // Consistent snapshot: the epoch counts *completed* declarations, so a
    // dead set of exactly `epoch` ranks is uniquely determined by the
    // epoch value — every rank that acks this epoch has this exact set.
    const std::uint32_t epoch = board.epoch();
    std::vector<int> dead = board.deadSet();
    if (static_cast<std::uint32_t>(dead.size()) != epoch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;  // a declareDead is mid-flight; re-snapshot
    }
    if (board.dead(me)) {
      throw util::RankKilledError(
          "rank " + std::to_string(me) +
          " was declared dead during agreement; committing suicide");
    }
    std::vector<int> peers;  // group ranks of the other survivors
    for (int r = 0; r < comm.size(); ++r) {
      const int w = comm.worldRankOf(r);
      if (w == me || board.dead(w)) continue;
      peers.push_back(r);
    }
    for (const int r : peers) {
      comm.send<std::uint32_t>(r, kTagAgree, epoch);
    }
    const std::int64_t waitStart = comm::DeathBoard::nowNs();
    std::vector<char> acked(peers.size(), 0);
    std::size_t ackedCount = 0;
    bool restart = false;
    while (ackedCount < peers.size() && !restart) {
      bool progress = false;
      for (std::size_t i = 0; i < peers.size() && !restart; ++i) {
        if (acked[i] != 0) continue;
        const int r = peers[i];
        const int w = comm.worldRankOf(r);
        auto& newest = heard[static_cast<std::size_t>(r)];
        std::vector<std::byte> payload;
        while (comm.tryRecvBytes(r, kTagAgree, payload)) {
          std::uint32_t got = 0;
          std::memcpy(&got, payload.data(),
                      std::min(sizeof got, payload.size()));
          newest = std::max(newest, got);
        }
        if (newest == epoch) {
          acked[i] = 1;
          ++ackedCount;
          progress = true;
          continue;
        }
        if (newest > epoch) {
          restart = true;  // the peer already sees a newer death
        } else if (board.epoch() != epoch) {
          restart = true;  // someone declared a new death mid-round
        } else if (board.dead(w)) {
          restart = true;
        } else if (board.exited(w)) {
          board.declareDead(w);
          restart = true;
        } else if (comm::DeathBoard::nowNs() -
                       std::max(board.lastSeenNs(w), waitStart) >
                   deadlineNs) {
          board.declareDead(w);
          restart = true;
        }
      }
      if (!restart && ackedCount < peers.size() && !progress) {
        board.noteAlive(me);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (restart) continue;
    // Everyone acked this epoch: unique dead set, every survivor returns
    // the identical vector. A death *after* this point surfaces as a new
    // PeerDeadError on the shrunken communicator's first bounded wait.
    return dead;
  }
  throw std::runtime_error("agreement failed to converge after " +
                           std::to_string(maxAttempts) + " attempts");
}

ResilientRunner::Result ResilientRunner::run(int ranks, int steps,
                                             const CompletionHook& onComplete,
                                             serve::SessionBroker* broker) {
  Result result;
  buddy_.clear();
  const auto graph = partition::buildSiteGraph(lattice_);

  comm::Runtime rt(ranks);
  rt.setLiveness(recovery_.liveness);
  comm::RunOptions options;
  options.tolerateRankDeath = true;
  options.joinTimeoutSeconds = recovery_.joinTimeoutSeconds;

  std::mutex resultMutex;

  const auto rankMain = [&](comm::Communicator& world) {
    comm::Communicator comm = world;
    auto& board = rt.deathBoard();
    std::vector<int> knownDead;
    std::vector<RecoveryEvent> localEvents;
    WallTimer eventTimer;  // reset at detection; read at resume-ready
    for (;;) {
      try {
        // (Re)build the full stack on the current survivor group: fresh
        // partition of the survivors, domain map, driver.
        const auto part = partitioner_.partition(graph, comm.size());
        lb::DomainMap domain(lattice_, part, comm.rank());
        DriverConfig cfg = config_;
        if (recovery_.buddy) cfg.buddy.store = &buddy_;
        SimulationDriver driver(domain, comm, cfg);
        // Serving stays up while world rank 0 (the broker's home) lives;
        // after its death the run degrades to solver-only.
        if (broker != nullptr && comm.worldRankOf(0) == 0) {
          driver.attachBroker(comm.rank() == 0 ? broker : nullptr);
        }
        if (!localEvents.empty()) {
          RecoveryEvent& ev = localEvents.back();
          WallTimer restoreTimer;
          const auto restored = driver.restoreState(recovery_.allowColdRestart);
          if (!restored.ok()) {
            throw std::runtime_error(
                "recovery: no restorable snapshot (buddy or disk) and cold "
                "restart is disabled");
          }
          ev.usedBuddy = restored.source == StateSource::kBuddy;
          ev.coldRestart = restored.source == StateSource::kCold;
          ev.restoredStep = restored.result.step;
          ev.restoreSeconds = restoreTimer.seconds();
          ev.totalSeconds = eventTimer.seconds();
          if (auto* t = telemetry::threadTelemetry()) {
            t->metrics().gauge("recover.last_mttr_seconds")
                .set(ev.totalSeconds);
            t->metrics().gauge("recover.last_restored_step")
                .set(static_cast<double>(ev.restoredStep));
          }
          noteFlight("recover: resumed from step " +
                     std::to_string(ev.restoredStep) + " on " +
                     std::to_string(comm.size()) + " survivors (" +
                     (ev.coldRestart ? "cold restart"
                                     : ev.usedBuddy ? "buddy" : "disk") +
                     ")");
        }

        const auto done = driver.solver().stepsDone();
        driver.run(steps > static_cast<int>(done)
                       ? steps - static_cast<int>(done)
                       : 0);
        if (onComplete) onComplete(domain, driver, comm);
        std::lock_guard<std::mutex> lock(resultMutex);
        result.completed = true;
        // A rank that finished before a death completed too: count ranks,
        // not the size of the last group.
        ++result.survivors;
        result.finalStep = driver.solver().stepsDone();
        if (comm.rank() == 0) result.events = localEvents;
        return;
      } catch (const comm::PeerDeadError& e) {
        eventTimer.reset();
        bumpCounter("recover.detections");
        noteFlight(std::string("recover: peer death detected: ") + e.what());
        if (static_cast<int>(localEvents.size()) >= recovery_.maxRecoveries) {
          throw std::runtime_error(
              "recovery: exceeded maxRecoveries=" +
              std::to_string(recovery_.maxRecoveries) + ": " + e.what());
        }
        board.declareDead(e.deadWorldRank());
        WallTimer agreeTimer;
        const auto dead = agreeOnDeadSet(comm, board, recovery_.liveness);
        RecoveryEvent ev;
        ev.agreeSeconds = agreeTimer.seconds();
        for (const int w : dead) {
          // A rank that returned normally leaves the group but did not die.
          if (!board.finished(w) &&
              std::find(knownDead.begin(), knownDead.end(), w) ==
                  knownDead.end()) {
            ev.deadWorldRanks.push_back(w);
          }
          // A dead thread-rank's "node memory" is gone with it.
          buddy_.dropHolder(w);
        }
        knownDead = dead;
        comm = comm.shrink(dead);
        ev.survivors = comm.size();
        localEvents.push_back(ev);
        bumpCounter("recover.events");
        noteFlight("recover: agreed on " + std::to_string(dead.size()) +
                   " dead rank(s); shrunk to " + std::to_string(comm.size()) +
                   " survivors");
      }
    }
  };

  try {
    rt.run(rankMain, options);
    if (!result.completed && result.error.empty()) {
      result.error = "no surviving rank completed the run";
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(resultMutex);
    result.completed = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace hemo::core
