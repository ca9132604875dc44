#pragma once
/// \file recovery.hpp
/// \brief Shrink-and-continue rank-failure recovery (ULFM-style).
///
/// The driver stack below this file assumes a fixed healthy communicator;
/// this layer owns everything that changes when a rank dies:
///
///   DETECT   comm-layer liveness (comm/liveness.hpp) surfaces a typed
///            PeerDeadError out of any blocked receive or collective
///            instead of hanging — by exit evidence (the rank's thread is
///            gone), by staleness accusation (silent past the timeout,
///            which also catches kHang'd ranks), or by the recovery epoch
///            (someone else already declared a death).
///   AGREE    agreeOnDeadSet(): survivors exchange epoch-stamped acks
///            until every one of them has acknowledged the identical
///            monotone dead set. A rank that learns it was itself declared
///            dead commits suicide (throws RankKilledError) so the group
///            view stays consistent.
///   SHRINK   Communicator::shrink(): survivors re-rank stably onto a
///            fresh context; stale in-flight traffic is purged by epoch.
///   RESTORE  a fresh partition of the *survivors* is built through the
///            pluggable partitioner and a fresh driver stood up on it; the
///            driver's restore ladder (SimulationDriver::restoreState, the
///            same one the sentinel rollback uses) then fills it: newest
///            complete buddy snapshot (lb/buddy.hpp), else the newest valid
///            disk checkpoint, else — with allowColdRestart — a cold
///            restart from step 0. Both snapshot rungs route sites to
///            their new owners through the one owner-routed transfer
///            (lb/migration.hpp).
///   RESUME   the driver runs the remaining steps. Rank 0 re-attaches the
///            serving broker so client subscriptions survive the event;
///            if rank 0 itself died the run degrades to solver-only.
///
/// The whole timeline lands in the flight recorder and recover.* metrics.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/liveness.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "geometry/sparse_lattice.hpp"
#include "lb/buddy.hpp"
#include "partition/graph.hpp"
#include "serve/broker.hpp"

namespace hemo::core {

/// Knobs for ResilientRunner (driver-level recovery policy).
struct RecoveryConfig {
  /// Liveness detection; enabled by default here (the whole point).
  /// timeoutMs trades detection latency against false-accusation margin.
  comm::LivenessConfig liveness{true, 1500, 5};
  /// Mirror diskless buddy checkpoints at the checkpoint cadence and
  /// prefer them for restore (fastest MTTR; falls back to disk).
  bool buddy = false;
  /// Give up after this many recovery events in one run.
  int maxRecoveries = 4;
  /// Teardown bound handed to comm::RunOptions.
  double joinTimeoutSeconds = 30.0;
  /// When no buddy snapshot or disk checkpoint is restorable, restart the
  /// survivors from step 0 (deterministic solver: the final fields still
  /// match the uninterrupted reference). Off = the run fails instead.
  bool allowColdRestart = true;
};

/// One recovery event's timeline (MTTR decomposition for bench_resilience).
struct RecoveryEvent {
  /// World ranks newly declared dead in this event: crashed or accused
  /// ranks only, never one that had already finished its run.
  std::vector<int> deadWorldRanks;
  /// Group size after the shrink.
  int survivors = 0;
  /// Step the survivors resumed from (0 for a cold restart).
  std::uint64_t restoredStep = 0;
  bool usedBuddy = false;
  bool coldRestart = false;
  double agreeSeconds = 0.0;
  double restoreSeconds = 0.0;
  /// Detection (PeerDeadError) to resume-ready, wall seconds.
  double totalSeconds = 0.0;
};

/// Runs a simulation to completion across rank deaths. Owns the buddy
/// store and the recovery loop; everything else (lattice, partitioner,
/// driver config) is caller-provided, mirroring the plain driver setup.
class ResilientRunner {
 public:
  /// Called on every surviving rank after the final step (collect results
  /// exactly like a plain rt.run body would).
  using CompletionHook = std::function<void(
      const lb::DomainMap&, SimulationDriver&, comm::Communicator&)>;

  ResilientRunner(const geometry::SparseLattice& lattice,
                  const partition::Partitioner& partitioner,
                  DriverConfig config, RecoveryConfig recovery)
      : lattice_(lattice),
        partitioner_(partitioner),
        config_(std::move(config)),
        recovery_(recovery) {}

  struct Result {
    bool completed = false;
    /// Ranks that completed the run (== ranks when nothing died). A rank
    /// that finished before a death counts; it is not reported as dead.
    int survivors = 0;
    std::uint64_t finalStep = 0;
    std::vector<RecoveryEvent> events;
    /// Failure description when !completed.
    std::string error;
  };

  /// Run `steps` steps on `ranks` ranks, surviving rank deaths. `broker`
  /// non-null: rank 0 serves through it for as long as rank 0 lives.
  Result run(int ranks, int steps, const CompletionHook& onComplete = {},
             serve::SessionBroker* broker = nullptr);

  lb::BuddyStore& buddyStore() { return buddy_; }

 private:
  const geometry::SparseLattice& lattice_;
  const partition::Partitioner& partitioner_;
  DriverConfig config_;
  RecoveryConfig recovery_;
  lb::BuddyStore buddy_;
};

/// The AGREE round, exposed for direct testing: converge every survivor of
/// `comm`'s group on the identical sorted dead set (world ranks). Restarts
/// whenever the monotone DeathBoard grows mid-round; accuses peers that
/// fail to ack within the agreement deadline; throws util::RankKilledError
/// if this rank itself has been declared dead (suicide keeps the group
/// view consistent).
std::vector<int> agreeOnDeadSet(comm::Communicator& comm,
                                comm::DeathBoard& board,
                                const comm::LivenessConfig& cfg);

}  // namespace hemo::core
