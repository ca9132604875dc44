#pragma once
/// \file driver.hpp
/// \brief The closed co-design loop of Fig 2: pre-processed simulation +
/// concurrent in situ post-processing + computational steering, running
/// until completion or a terminate command.
///
/// Per step the driver (on every rank, collectively):
///   1. when a session broker is attached, drains its clients' commands on
///      the master and broadcasts them, so every rank applies them
///      identically (vis parameters, sim parameters, pause/resume, ROI
///      requests, frame requests, terminate); unsteered runs skip this;
///   2. advances the LB solver one step (unless paused);
///   3. every `visEvery` steps (or when an image subscription is due) runs
///      the Fig 3 pipeline and fans the image out to the due subscribers;
///   4. every `statusEvery` steps computes the status report (runtime
///      estimate, consistency checks — §I's "status informations") and
///      the telemetry window; clients receive both by subscribing to the
///      status and telemetry streams.

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "comm/profiler.hpp"
#include "core/pipeline.hpp"
#include "core/scheduler.hpp"
#include "core/sentinel.hpp"
#include "lb/checkpoint.hpp"
#include "lb/solver.hpp"
#include "partition/repartition.hpp"
#include "serve/broker.hpp"
#include "steer/guard.hpp"
#include "steer/protocol.hpp"
#include "telemetry/step_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace hemo::lb {
class BuddyStore;  // lb/buddy.hpp — diskless buddy checkpoint store
}

namespace hemo::core {

struct DriverConfig {
  lb::LbParams lb;
  int visEvery = 10;
  int statusEvery = 25;
  /// Volume rendering settings (camera steerable at runtime).
  vis::VolumeRenderOptions render;
  /// Streamline seeds (empty disables the map stage's tracing).
  std::vector<Vec3d> streamSeeds;
  vis::StreamlineParams streamParams;
  bool computeWss = true;
  bool enableLic = false;
  vis::LicOptions lic;
  /// Octree context level gathered by the filter stage.
  int contextLevel = 2;
  /// Octree leaf cell width log2 (coarser leaves = cheaper updates).
  int octreeLeafLog2 = 0;
  /// Total steps the user intends to run (for the ETA estimate).
  int plannedSteps = 0;
  /// If > 0: adapt visEvery automatically so the in situ pipeline consumes
  /// at most this fraction of the runtime (scheduling, §III challenge 4).
  double adaptiveVisBudget = 0.0;
  /// If > 0 (and checkpointDir set): write a striped checkpoint every this
  /// many completed steps. Restart with restoreLatest().
  int checkpointEvery = 0;
  /// Directory receiving ckpt_<step>.hemockpt manifests + stripe files.
  std::string checkpointDir;
  /// Checkpoints retained on disk (older ones are pruned after a write).
  int checkpointKeep = 2;
  /// Writer stripes per checkpoint (clamped to the communicator size).
  int checkpointStripes = 1;
  /// Stage-1 robustness: validation bounds for state-mutating steering
  /// commands (rejected commands never reach the solver).
  steer::GuardConfig guard;
  /// Stage-2 robustness: divergence sentinel + checkpoint rollback policy
  /// (checkEvery = 0 keeps it off).
  SentinelConfig sentinel;
  /// Always-on flight recorder (telemetry/flightrec.hpp): every
  /// computeStepReport() window is retained in a bounded ring and flushed
  /// as a postmortem bundle when the run dies. `dir` empty falls back to
  /// checkpointDir; when both are empty the registry stays unarmed and no
  /// bundle is ever written.
  struct FlightConfig {
    bool enabled = true;
    std::size_t keepWindows = 32;
    std::size_t keepTraceEvents = std::size_t{1} << 14;
    std::string dir;
    /// Also install the process-wide fatal-signal/std::terminate hooks
    /// when arming (they chain to the previous handlers and re-raise).
    bool installCrashHandlers = false;
  };
  FlightConfig flight;
  /// Closing the loop (ROADMAP item 3): telemetry-driven live
  /// repartitioning. Every `repartitionEvery` steps the driver aggregates
  /// the telemetry window; when the measured imbalance (per-rank busy + vis
  /// time, with cross-rank wait blame charged to the rank being waited on)
  /// stays above `imbalanceThreshold` for `triggerWindows` consecutive
  /// checks, the partition is diffusively rebalanced under measured
  /// per-site costs and the moved sites migrate live — distributions,
  /// halos, octree ownership and serve subscriptions all rebuilt in place.
  struct RepartitionConfig {
    /// Steps between imbalance checks; 0 disables live repartitioning.
    int repartitionEvery = 0;
    /// Measured imbalance (max/mean effective load) that arms a trigger.
    double imbalanceThreshold = 1.10;
    /// Consecutive over-threshold windows required before migrating
    /// (hysteresis: one noisy window never triggers a migration).
    int triggerWindows = 2;
    /// Checks skipped after a migration before re-arming (lets the new
    /// partition produce a clean measurement window first).
    int cooldownWindows = 2;
    /// Upper bound on migrations per run() lifetime (safety valve).
    int maxMigrations = 8;
    /// Passed through to partition::rebalance.
    partition::RepartitionOptions options;
  };
  RepartitionConfig repartition;
  /// Diskless buddy checkpointing (lb/buddy.hpp): each mirror interval the
  /// rank's distribution blob is kept in its own slot *and* ring-copied
  /// into rank+1's memory, so after any single rank death the survivors
  /// still hold a complete snapshot and recovery needs no filesystem.
  struct BuddyConfig {
    /// Store shared by all ranks (owned by the caller, e.g.
    /// ResilientRunner); nullptr disables mirroring.
    lb::BuddyStore* store = nullptr;
    /// Steps between mirrors; 0 follows checkpointEvery.
    int mirrorEvery = 0;
  };
  BuddyConfig buddy;
};

/// Result of one live-migration attempt (identical on every rank).
struct MigrationOutcome {
  bool migrated = false;
  /// Distinct sites that changed owner.
  std::uint64_t sitesMoved = 0;
  /// Cost-model imbalance of the partition before/after rebalancing.
  double imbalanceBefore = 1.0;
  double imbalanceAfter = 1.0;
  /// Wall seconds the migration itself took (plan + transfer + rebuild).
  double seconds = 0.0;
};

class SimulationDriver {
 public:
  /// Collective construction. The driver runs unsteered until a broker is
  /// attached (attachBroker).
  SimulationDriver(const lb::DomainMap& domain, comm::Communicator& comm,
                   const DriverConfig& config);

  /// Run up to `steps` further steps; returns the number actually executed
  /// (a terminate command stops early).
  int run(int steps);

  bool terminated() const { return terminated_; }
  int currentVisEvery() const { return config_.visEvery; }
  lb::SolverD3Q19& solver() { return *solver_; }
  const PipelineOutputs& lastOutputs() const { return lastOutputs_; }
  const steer::StatusReport& lastStatus() const { return lastStatus_; }
  InSituPipeline& pipeline() { return pipeline_; }
  RenderStage& renderStage() { return *renderStage_; }
  const DriverConfig& config() const { return config_; }

  /// Attach the steering plane (collective: every rank calls this; only
  /// rank 0 passes the broker, others pass nullptr). A single steering
  /// client is one broker session (`broker.connect()`). Steering commands
  /// are then drained from the broker's client channels, responses route
  /// back to the requesting client(s), and rendered frames fan out through
  /// the broker's shared frame cache to every due image subscriber.
  void attachBroker(serve::SessionBroker* broker);

  /// Run the in situ pipeline immediately (collective).
  void runPipelineNow();

  /// Restore solver state from the newest valid checkpoint in
  /// config.checkpointDir, skipping corrupt or truncated candidates
  /// (collective). Returns the typed outcome; on success the solver's step
  /// counter is rebased to the checkpointed step.
  lb::RestoreResult restoreLatest();

  /// True while a broker is attached and healthy. After a broker failure
  /// the driver degrades to solver-only (no steering) and this flips false
  /// (identical on every rank).
  bool brokerHealthy() const { return brokerMode_; }

  /// Compute a status report (collective).
  steer::StatusReport computeStatus();

  /// Aggregate the telemetry window since the previous report into one
  /// StepReport (collective: every rank gathers its local window, the
  /// result is identical everywhere) and start a new window.
  telemetry::StepReport computeStepReport();

  /// The last aggregate produced by computeStepReport().
  const telemetry::StepReport& lastStepReport() const {
    return lastStepReport_;
  }

  /// Sentinel rollbacks performed so far (bounded by
  /// SentinelConfig::maxRollbacks).
  int rollbacksDone() const { return rollbacksDone_; }

  /// Collective: rebalance the live partition under an explicit per-site
  /// cost field (size = lattice.numFluidSites(), identical on every rank)
  /// and, if any site moves, migrate solver state and rebuild the
  /// vis/octree plumbing in place. The run() trigger policy calls this with
  /// measured costs; tests and benches call it directly with synthetic
  /// fields for determinism.
  MigrationOutcome migrateNow(const std::vector<double>& siteCost);

  /// Number of live migrations executed so far (the "migration epoch").
  /// Checkpoints written before and after an epoch stay mutually
  /// restorable — readCheckpoint routes sites by current ownership.
  std::uint64_t migrationEpoch() const { return migrationEpoch_; }

  /// The domain the solver currently runs on. After a live migration this
  /// is the driver-owned rebuilt domain, not the one passed at
  /// construction.
  const lb::DomainMap& domain() const { return *domain_; }

  /// Per-rank StepReports from the last computeStepReport() window, in
  /// rank order (the allgathered inputs of lastStepReport()).
  const std::vector<telemetry::StepReport>& lastPerRankReports() const {
    return lastPerRankReports_;
  }

 private:
  /// One applied state-mutating steered change, with enough of the prior
  /// state to revert it under quarantine.
  struct AppliedChange {
    steer::Command cmd;
    std::uint64_t step = 0;
    double prevValue = 0.0;  ///< tau / iolet density before the change
    Vec3d prevVec{};         ///< body force / iolet velocity before
  };

  void applyCommand(const steer::Command& cmd);
  void pollSteering();
  /// Snapshot the pre-change state of a mutating command into history_.
  void recordChange(const steer::Command& cmd);
  /// Revert the most recent steered change and NACK it retroactively.
  void quarantineLatestChange();
  /// Collective sentinel check + rollback state machine. Returns false
  /// when the step's results were discarded (rolled back or terminated) —
  /// the run loop must `continue` without checkpointing.
  bool sentinelGuard(std::uint64_t step);
  /// Rebase the telemetry window on the current solver timers, pipeline
  /// stage totals and traffic counters: the next computeStepReport()
  /// reports only what happens from here on.
  void resetTelemetryWindow();
  /// Timestamped breadcrumb into this rank's flight recorder (no-op when
  /// telemetry is compiled out or unattached).
  void noteFlight(const std::string& what);
  /// Rank 0: write the graceful-degradation diagnostic dump.
  void writeDiagnosticDump(const SentinelVerdict& verdict);
  /// Trigger-policy check run every repartitionEvery steps (collective).
  void maybeRepartition();
  /// Per-site cost field derived from the last window's per-rank reports:
  /// each rank's effective load (busy + vis + wait blame charged to it)
  /// spread uniformly over its owned sites. Identical on every rank.
  std::vector<double> measuredSiteCosts() const;

  const lb::DomainMap* domain_;
  comm::Communicator* comm_;
  DriverConfig config_;
  std::unique_ptr<lb::SolverD3Q19> solver_;
  std::unique_ptr<vis::GhostedField> ghosts_;
  std::unique_ptr<multires::FieldOctree> octree_;
  InSituPipeline pipeline_;
  RenderStage* renderStage_ = nullptr;  // owned by pipeline_
  serve::SessionBroker* broker_ = nullptr;  ///< rank 0 only in broker mode
  bool brokerMode_ = false;                 ///< identical on every rank
  steer::ImageFrame lastImageFrame_;        ///< rank 0, broker mode
  std::uint64_t lastViewKey_ = 0;

  StabilitySentinel sentinel_;
  int rollbacksDone_ = 0;
  /// Recent applied mutating commands, newest last (bounded).
  std::deque<AppliedChange> history_;
  static constexpr std::size_t kHistoryDepth = 16;

  PipelineOutputs lastOutputs_;
  steer::StatusReport lastStatus_;
  AdaptiveVisScheduler scheduler_{0.5};
  double lastStepSeconds_ = 0.0;
  double initialMass_ = 0.0;
  bool paused_ = false;
  bool terminated_ = false;
  WallTimer runTimer_;
  std::uint64_t stepsThisRun_ = 0;

  // Live repartitioning state. The driver starts on a caller-owned domain;
  // after the first migration it runs on its own rebuilt partition/domain
  // (liveDomain_/livePartition_ keep them alive for the solver's raw
  // pointers).
  std::unique_ptr<partition::SiteGraph> repartGraph_;
  std::unique_ptr<partition::Partition> livePartition_;
  std::unique_ptr<lb::DomainMap> liveDomain_;
  std::uint64_t migrationEpoch_ = 0;
  int overThresholdWindows_ = 0;
  int repartCooldown_ = 0;
  int migrationsDone_ = 0;

  // Telemetry window state (snapshots at the last computeStepReport()).
  telemetry::StepReport lastStepReport_;
  std::vector<telemetry::StepReport> lastPerRankReports_;
  WallTimer windowTimer_;
  std::uint64_t windowStartStep_ = 0;
  double windowCollide_ = 0.0, windowStream_ = 0.0, windowComm_ = 0.0;
  double windowVis_ = 0.0;
  double windowRecvWait_ = 0.0;
  comm::TrafficCounters windowCounters_;
  /// Latest sentinel extrema, copied into each retained flight window.
  telemetry::SentinelSnapshot lastSentinel_;
  // Pre-resolved per-rank metrics (null when no telemetry is attached).
  telemetry::Counter* stepsCounter_ = nullptr;
  telemetry::LogHistogram* stepSecondsHist_ = nullptr;
};

}  // namespace hemo::core
