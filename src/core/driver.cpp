#include "core/driver.hpp"

#include <algorithm>
#include <fstream>
#include <thread>

#include "lb/buddy.hpp"
#include "lb/migration.hpp"
#include "lb/wss.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"

namespace hemo::core {

SimulationDriver::SimulationDriver(const lb::DomainMap& domain,
                                   comm::Communicator& comm,
                                   const DriverConfig& config)
    : domain_(&domain),
      comm_(&comm),
      config_(config),
      sentinel_(config.sentinel) {
  HEMO_CHECK_MSG(!config.computeWss || config.lb.computeStress,
                 "computeWss requires LbParams::computeStress");
  standUp(domain, {});
  if (config.adaptiveVisBudget > 0.0) {
    scheduler_ = AdaptiveVisScheduler(config.adaptiveVisBudget);
  }
  pipeline_.addStage(std::make_unique<ExtractStage>());
  pipeline_.addStage(std::make_unique<FilterStage>(config.contextLevel));
  pipeline_.addStage(std::make_unique<MapStage>(
      config.streamSeeds, config.streamParams, config.computeWss));
  auto render = std::make_unique<RenderStage>(
      config.render, /*drawLines=*/!config.streamSeeds.empty(),
      config.enableLic, config.lic);
  renderStage_ = render.get();
  pipeline_.addStage(std::move(render));

  initialMass_ = comm.allreduceSum(solver_->localMass());

  if (comm.rank() == 0) {
    HEMO_LOG_INFO() << "lb hot path: kernel=" << config.lb.kernelName()
                    << " simd=" << simd::backendName() << " width="
                    << simd::kWidth;
  }

  // Resolve the per-rank metrics once (map nodes are stable, so the hot
  // loop only touches raw pointers). Null when the thread runs without an
  // attached telemetry context (e.g. plain unit tests).
  if (auto* t = telemetry::threadTelemetry()) {
    stepsCounter_ = &t->metrics().counter("lb.steps");
    stepSecondsHist_ = &t->metrics().histogram("driver.step_seconds");
    t->metrics().gauge("lb.simd_width").set(simd::kWidth);
  }

#ifndef HEMO_TELEMETRY_DISABLED
  // Flight recorder: size this rank's retention ring, then arm the global
  // registry with a bundle directory so the crash paths have somewhere to
  // flush. Arming is collective-safe (every rank passes the same dir).
  if (auto* t = telemetry::threadTelemetry()) {
    telemetry::FlightRecorder::Config fc;
    fc.keepWindows = config.flight.keepWindows;
    fc.keepTraceEvents = config.flight.keepTraceEvents;
    t->flightRecorder().configure(fc);
  }
  if (config.flight.enabled) {
    const std::string dir =
        !config.flight.dir.empty() ? config.flight.dir : config.checkpointDir;
    if (!dir.empty()) {
      auto& registry = telemetry::FlightRegistry::instance();
      registry.arm(dir);
      if (config.flight.installCrashHandlers) registry.installCrashHandlers();
    }
  }
#endif
}

void SimulationDriver::standUp(
    const lb::DomainMap& domain,
    const std::vector<std::vector<double>>& populations) {
  {
    HEMO_TSPAN(kPartition, "driver.standup.solver");
    auto solver = std::make_unique<lb::SolverD3Q19>(
        domain, *comm_, solver_ ? solver_->params() : config_.lb);
    if (solver_) {
      // LbParams already hold steered tau and body force; the iolet
      // overrides live on the solver itself.
      for (std::size_t io = 0; io < domain.lattice().iolets().size(); ++io) {
        solver->setIoletDensity(io, solver_->ioletDensity(io));
        if (solver_->ioletIsVelocityBc(io)) {
          solver->setIoletVelocity(io, solver_->ioletVelocity(io));
        }
      }
      solver->setDistributions(populations);
      solver->setStepsDone(solver_->stepsDone());
    }
    solver_ = std::move(solver);
  }
  domain_ = &domain;
  // Vis plumbing follows ownership: halo ghosts and the multires octree
  // are domain-shaped; pipeline stages and serve subscriptions are
  // domain-stateless and carry over untouched.
  {
    HEMO_TSPAN(kPartition, "driver.standup.ghosts");
    ghosts_ = std::make_unique<vis::GhostedField>(domain, *comm_,
                                                  /*rings=*/2);
  }
  {
    HEMO_TSPAN(kPartition, "driver.standup.octree");
    octree_ = std::make_unique<multires::FieldOctree>(domain,
                                                      config_.octreeLeafLog2);
  }
}

void SimulationDriver::attachBroker(serve::SessionBroker* broker) {
  broker_ = broker;
  brokerMode_ = true;
}

void SimulationDriver::runPipelineNow() {
  PipelineContext ctx;
  ctx.comm = comm_;
  ctx.domain = domain_;
  ctx.macro = &solver_->macro();
  ctx.ghosts = ghosts_.get();
  ctx.octree = octree_.get();
  ctx.step = solver_->stepsDone();
  lastOutputs_ = pipeline_.run(ctx);

  // Push the fresh frame to the steering clients (loop step 6 of
  // §IV.C.1): the render happens once and fans out through the broker's
  // shared frame cache to every image subscriber whose cadence is due.
  if (broker_ != nullptr && lastOutputs_.volumeImage.numPixels() > 0) {
    lastImageFrame_.step = lastOutputs_.step;
    lastImageFrame_.width = lastOutputs_.volumeImage.width();
    lastImageFrame_.height = lastOutputs_.volumeImage.height();
    lastImageFrame_.rgb = lastOutputs_.volumeImage.toRgb8();
    lastViewKey_ = serve::viewKey(renderStage_->options());
    broker_->publishImage(*comm_, lastViewKey_, lastImageFrame_);
  }
}

steer::StatusReport SimulationDriver::computeStatus() {
  steer::StatusReport s;
  s.step = solver_->stepsDone();
  s.totalSites = comm_->allreduceSum<std::uint64_t>(domain_->numOwned());
  s.totalMass = comm_->allreduceSum(solver_->localMass());
  double maxSpeed = 0.0;
  for (const auto& u : solver_->macro().u) {
    maxSpeed = std::max(maxSpeed, u.norm());
  }
  s.maxSpeed = comm_->allreduceMax(maxSpeed);

  // Busy-time imbalance: the quantity repartitioning acts on.
  const double busy = solver_->collideTimer().total() +
                      solver_->streamTimer().total();
  const auto allBusy = comm_->allgather(busy);
  double sum = 0.0, mx = 0.0;
  for (const double b : allBusy) {
    sum += b;
    mx = std::max(mx, b);
  }
  s.loadImbalance = sum > 0.0
                        ? mx * static_cast<double>(allBusy.size()) / sum
                        : 1.0;

  // Throughput + remaining-runtime estimate (master's clock, broadcast for
  // determinism of the report seen by every rank).
  double rate = 0.0;
  if (comm_->rank() == 0 && stepsThisRun_ > 0) {
    const double elapsed = runTimer_.seconds();
    rate = elapsed > 0.0 ? static_cast<double>(stepsThisRun_) / elapsed : 0.0;
  }
  comm_->bcast(rate, 0);
  s.stepsPerSecond = rate;
  const auto remaining =
      config_.plannedSteps > 0
          ? std::max<std::int64_t>(
                0, config_.plannedSteps -
                       static_cast<std::int64_t>(solver_->stepsDone()))
          : 0;
  s.etaSeconds = rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0;

  // Consistency checks: mass conservation and a Mach-number sanity bound.
  const bool massOk =
      initialMass_ <= 0.0 ||
      std::abs(s.totalMass - initialMass_) <= 0.02 * initialMass_;
  const bool machOk = s.maxSpeed < 0.3;
  s.consistencyOk = (massOk && machOk) ? 1 : 0;
  s.consistencyStep = s.step;
  s.paused = paused_ ? 1 : 0;
  // Critical-path gauges from the last telemetry window: who the run is
  // waiting on and why, surfaced to steering clients next to the
  // consistency verdict.
  s.waitStragglerRank = lastStepReport_.waitStragglerRank;
  s.waitDominantCause = lastStepReport_.waitDominantCause;
  s.waitSeconds = lastStepReport_.waitClassifiedSeconds();
  if (s.consistencyOk == 0) {
    if (auto* t = telemetry::threadTelemetry()) {
      t->metrics().counter("lb.consistency_fail").add(1);
    }
  }
  lastStatus_ = s;
  return s;
}

void SimulationDriver::recordChange(const steer::Command& cmd) {
  AppliedChange change;
  change.cmd = cmd;
  change.step = solver_->stepsDone();
  switch (cmd.type) {
    case steer::MsgType::kSetTau:
      change.prevValue = solver_->params().tau;
      break;
    case steer::MsgType::kSetBodyForce:
      change.prevVec = solver_->params().bodyForce;
      break;
    case steer::MsgType::kSetIoletDensity:
      change.prevValue =
          solver_->ioletDensity(static_cast<std::size_t>(cmd.ioletId));
      break;
    case steer::MsgType::kSetIoletVelocity:
      change.prevVec =
          solver_->ioletVelocity(static_cast<std::size_t>(cmd.ioletId));
      break;
    default:
      return;  // not a recorded mutating command
  }
  history_.push_back(std::move(change));
  if (history_.size() > kHistoryDepth) history_.pop_front();
}

void SimulationDriver::quarantineLatestChange() {
  if (history_.empty()) return;
  const AppliedChange change = history_.back();
  history_.pop_back();
  switch (change.cmd.type) {
    case steer::MsgType::kSetTau:
      solver_->setTau(change.prevValue);
      break;
    case steer::MsgType::kSetBodyForce:
      solver_->setBodyForce(change.prevVec);
      break;
    case steer::MsgType::kSetIoletDensity:
      solver_->setIoletDensity(static_cast<std::size_t>(change.cmd.ioletId),
                               change.prevValue);
      break;
    case steer::MsgType::kSetIoletVelocity:
      solver_->setIoletVelocity(static_cast<std::size_t>(change.cmd.ioletId),
                                change.prevVec);
      break;
    default:
      break;
  }
  if (comm_->rank() == 0) {
    HEMO_LOG_WARN() << "sentinel quarantined steered command "
                    << change.cmd.commandId << " (applied at step "
                    << change.step << "); parameter reverted";
  }
  noteFlight("quarantined steered command " +
             std::to_string(change.cmd.commandId) + " applied at step " +
             std::to_string(change.step));
  if (broker_ != nullptr) {
    broker_->respondReject(*comm_, change.cmd.commandId,
                           steer::RejectReason::kDivergence,
                           steer::MsgType::kRejectedAfterRollback);
  }
}

void SimulationDriver::applyCommand(const steer::Command& cmd) {
  using steer::MsgType;
  // Stage-1 gate: validate before anything mutates. The check is a pure
  // function of the broadcast command and static lattice facts, so every
  // rank reaches the identical verdict; a rejected command is NACKed to
  // the issuing client (rank 0) and never touches the solver.
  if (config_.guard.enabled) {
    steer::GuardContext ctx;
    ctx.numIolets = domain_->lattice().iolets().size();
    ctx.lattice = BoxI{{0, 0, 0}, domain_->lattice().dims()};
    const auto reason = steer::validateCommand(cmd, config_.guard, ctx);
    if (reason != steer::RejectReason::kNone) {
      if (auto* t = telemetry::threadTelemetry()) {
        t->metrics().counter("steer.rejected").add(1);
      }
      if (comm_->rank() == 0) {
        HEMO_LOG_WARN() << "rejected steering command " << cmd.commandId
                        << " (type " << static_cast<int>(cmd.type)
                        << "): " << steer::rejectReasonName(reason);
      }
      if (broker_ != nullptr) {
        broker_->respondReject(*comm_, cmd.commandId, reason);
      }
      return;
    }
  }
  recordChange(cmd);
  switch (cmd.type) {
    case MsgType::kSetCamera:
      renderStage_->options().camera = cmd.camera;
      break;
    case MsgType::kSetField:
      renderStage_->options().field =
          static_cast<vis::RenderField>(cmd.renderField);
      break;
    case MsgType::kSetVisRate:
      config_.visEvery = std::max(1, cmd.visRate);
      break;
    case MsgType::kSetRenderClip: {
      // ROI rendering: clip the volume render to the requested lattice
      // box; an empty box clears the clip.
      if (cmd.roi.isEmpty()) {
        renderStage_->options().clipBox.reset();
      } else {
        const auto& lat = domain_->lattice();
        const double h = lat.voxelSize();
        BoxD world;
        world.lo = lat.origin() + cmd.roi.lo.cast<double>() * h;
        world.hi = lat.origin() + cmd.roi.hi.cast<double>() * h;
        renderStage_->options().clipBox = world;
      }
      break;
    }
    case MsgType::kSetTau:
      solver_->setTau(cmd.value);
      break;
    case MsgType::kSetBodyForce:
      solver_->setBodyForce(cmd.force);
      break;
    case MsgType::kSetIoletDensity:
      solver_->setIoletDensity(static_cast<std::size_t>(cmd.ioletId),
                               cmd.value);
      break;
    case MsgType::kSetIoletVelocity:
      solver_->setIoletVelocity(static_cast<std::size_t>(cmd.ioletId),
                                cmd.force);
      break;
    case MsgType::kPause:
      paused_ = true;
      break;
    case MsgType::kResume:
      paused_ = false;
      break;
    case MsgType::kRequestStatus: {
      const auto status = computeStatus();
      if (broker_ != nullptr) {
        broker_->respondStatus(*comm_, cmd.commandId, status);
      }
      break;
    }
    case MsgType::kRequestTelemetry: {
      const auto report = computeStepReport();
      if (broker_ != nullptr) {
        broker_->respondTelemetry(*comm_, cmd.commandId, report);
      }
      break;
    }
    case MsgType::kRequestFrame:
      runPipelineNow();
      if (broker_ != nullptr) {
        broker_->respondImage(*comm_, cmd.commandId, lastViewKey_,
                              lastImageFrame_);
      }
      break;
    case MsgType::kSetRoi: {
      // Extract + gather the requested detail region (§V drill-down).
      PipelineContext ctx;
      ctx.comm = comm_;
      ctx.domain = domain_;
      ctx.macro = &solver_->macro();
      ctx.ghosts = ghosts_.get();
      ctx.octree = octree_.get();
      ctx.step = solver_->stepsDone();
      ExtractStage().run(ctx);
      const int level = std::clamp(cmd.roiLevel, 0, octree_->leafLevel());
      auto nodes = multires::gatherRoi(*comm_, *octree_, level, cmd.roi);
      steer::RoiData roi;
      roi.step = solver_->stepsDone();
      roi.level = level;
      roi.nodes = std::move(nodes);
      if (broker_ != nullptr) broker_->respondRoi(*comm_, cmd.commandId, roi);
      break;
    }
    case MsgType::kRequestObservable: {
      // Hydrodynamic observable over a user-defined subset (§I). The roi
      // box is in lattice coordinates; empty boxes mean the whole domain.
      const bool wholeDomain = cmd.roi.isEmpty();
      const auto& lat = domain_->lattice();
      const auto& macro = solver_->macro();
      double localAcc = 0.0;
      double localMax = 0.0;
      std::uint64_t localCount = 0;
      std::vector<lb::WssSample> wss;
      const auto kind = static_cast<steer::ObservableKind>(cmd.observable);
      if (kind == steer::ObservableKind::kMeanWss) {
        wss = lb::computeWallShearStress(*domain_, macro);
      }
      if (kind == steer::ObservableKind::kMeanWss) {
        for (const auto& w : wss) {
          const Vec3i p = lat.sitePosition(w.siteId);
          if (!wholeDomain && !cmd.roi.contains(p)) continue;
          localAcc += w.wss;
          ++localCount;
        }
      } else {
        for (std::uint32_t l = 0; l < domain_->numOwned(); ++l) {
          const Vec3i p = lat.sitePosition(domain_->globalOf(l));
          if (!wholeDomain && !cmd.roi.contains(p)) continue;
          ++localCount;
          switch (kind) {
            case steer::ObservableKind::kMeanSpeed:
              localAcc += macro.u[l].norm();
              break;
            case steer::ObservableKind::kMaxSpeed:
              localMax = std::max(localMax, macro.u[l].norm());
              break;
            case steer::ObservableKind::kMassFluxX:
              localAcc += macro.rho[l] * macro.u[l].x;
              break;
            case steer::ObservableKind::kMass:
              localAcc += macro.rho[l];
              break;
            default:
              break;
          }
        }
      }
      const auto count = comm_->allreduceSum(localCount);
      double value = 0.0;
      switch (kind) {
        case steer::ObservableKind::kMaxSpeed:
          value = comm_->allreduceMax(localMax);
          break;
        case steer::ObservableKind::kMeanSpeed:
        case steer::ObservableKind::kMeanWss:
          value = count > 0 ? comm_->allreduceSum(localAcc) /
                                  static_cast<double>(count)
                            : 0.0;
          break;
        default:
          value = comm_->allreduceSum(localAcc);
          break;
      }
      steer::ObservableReport report;
      report.step = solver_->stepsDone();
      report.kind = cmd.observable;
      report.value = value;
      report.siteCount = count;
      if (broker_ != nullptr) {
        broker_->respondObservable(*comm_, cmd.commandId, report);
      }
      break;
    }
    case MsgType::kTerminate:
      terminated_ = true;
      break;
    default:
      HEMO_LOG_WARN() << "ignoring unexpected steering frame type "
                      << static_cast<int>(cmd.type);
      break;
  }
  // Routed ack: reaches only the issuing client(s); suppressed for
  // synthesized subscription ticks.
  if (broker_ != nullptr) broker_->respondAck(*comm_, cmd.commandId);
}

void SimulationDriver::pollSteering() {
  // Unsteered (no broker attached, or degraded after a broker failure):
  // the flag is identical on every rank, so no rank enters a collective.
  if (!brokerMode_) return;
  HEMO_TSPAN(kSteer, "serve.poll");
  std::vector<steer::Command> drained;
  std::uint8_t healthy = 1;
  if (comm_->rank() == 0 && broker_ != nullptr) {
    try {
      drained = broker_->drainCommands(*comm_, solver_->stepsDone());
    } catch (const std::exception& e) {
      // Serving-plane failure must not take the solver down: degrade to
      // solver-only and keep stepping (graceful degradation).
      HEMO_LOG_WARN() << "broker failed, degrading to solver-only: "
                      << e.what();
      healthy = 0;
    }
  }
  comm_->bcast(healthy, 0);
  if (healthy == 0) {
    brokerMode_ = false;
    broker_ = nullptr;
    if (auto* t = telemetry::threadTelemetry()) {
      t->metrics().counter("serve.broker_failures").add(1);
    }
    noteFlight("broker failed at step " +
               std::to_string(solver_->stepsDone()) +
               "; degraded to solver-only");
    return;
  }
  for (const auto& cmd : steer::broadcastCommands(*comm_, drained)) {
    applyCommand(cmd);
  }
}

RestoreOutcome SimulationDriver::restoreState(bool allowColdStart) {
  lb::RestoreResult miss{lb::CkptStatus::kOpenFailed, 0,
                         "no buddy store attached and no checkpoints written"};
  if (config_.buddy.store != nullptr) {
    miss = lb::restoreFromBuddy(*config_.buddy.store, *solver_, *comm_);
    if (miss.ok()) return {StateSource::kBuddy, miss};
    noteFlight("restore: buddy snapshot unavailable (" + miss.detail +
               "); falling back");
  }
  if (config_.checkpointEvery > 0 && !config_.checkpointDir.empty()) {
    miss = lb::restoreLatest(config_.checkpointDir, *solver_, *comm_);
    if (miss.ok()) return {StateSource::kDisk, miss};
  }
  if (!allowColdStart) return {StateSource::kNone, miss};
  // Cold start: the solver is deterministic, so replaying from step 0
  // reproduces the fields. Old buddy slots would alias the replayed steps.
  HEMO_CHECK_MSG(solver_->stepsDone() == 0,
                 "a cold start needs a driver that has not stepped");
  if (config_.buddy.store != nullptr) config_.buddy.store->clear();
  return {StateSource::kCold, {}};
}

void SimulationDriver::writeDiagnosticDump(const SentinelVerdict& verdict) {
  if (comm_->rank() != 0) return;
  std::string path = config_.sentinel.dumpPath;
  if (path.empty()) {
    if (config_.checkpointDir.empty()) {
      HEMO_LOG_WARN() << "sentinel dump skipped: no dumpPath/checkpointDir";
      return;
    }
    path = config_.checkpointDir + "/sentinel_dump.txt";
  }
  std::ofstream out(path);
  if (!out) {
    HEMO_LOG_WARN() << "sentinel dump failed to open " << path;
    return;
  }
  out << "HemoLB stability-sentinel diagnostic dump\n";
  out << "offending step: " << verdict.step << "\n";
  out << "verdict: finite=" << (verdict.finite ? 1 : 0)
      << " minRho=" << verdict.minRho << " maxRho=" << verdict.maxRho
      << " maxSpeed=" << verdict.maxSpeed << "\n";
  out << "bounds: minDensity=" << config_.sentinel.minDensity
      << " maxDensity=" << config_.sentinel.maxDensity
      << " maxSpeed=" << config_.sentinel.maxSpeed << "\n";
  out << "rollbacks performed: " << rollbacksDone_ << " of "
      << config_.sentinel.maxRollbacks << "\n";
  out << "per-rank extrema:\n";
  const auto& perRank = sentinel_.lastPerRank();
  for (std::size_t rank = 0; rank < perRank.size(); ++rank) {
    const auto& r = perRank[rank];
    out << "  rank " << rank << ": finite=" << static_cast<int>(r.finite)
        << " minRho=" << r.minRho << " maxRho=" << r.maxRho
        << " maxSpeed=" << r.maxSpeed << "\n";
  }
  out << "last applied steered commands (oldest first):\n";
  for (const AppliedChange& change : history_) {
    out << "  step " << change.step << ": command " << change.cmd.commandId
        << " type " << static_cast<int>(change.cmd.type)
        << " value=" << change.cmd.value << " force=(" << change.cmd.force.x
        << ", " << change.cmd.force.y << ", " << change.cmd.force.z
        << ") ioletId=" << change.cmd.ioletId << "\n";
  }
  HEMO_LOG_WARN() << "sentinel diagnostic dump written to " << path;
}

void SimulationDriver::noteFlight(const std::string& what) {
#ifndef HEMO_TELEMETRY_DISABLED
  if (auto* t = telemetry::threadTelemetry()) {
    t->flightRecorder().note(what);
  }
#else
  (void)what;
#endif
}

bool SimulationDriver::sentinelGuard(std::uint64_t step) {
  const auto verdict = sentinel_.check(*comm_, solver_->macro(), step);
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().gauge("sentinel.headroom").set(sentinel_.headroom(verdict));
  }
  lastSentinel_.valid = 1;
  lastSentinel_.finite = verdict.finite ? 1 : 0;
  lastSentinel_.minRho = verdict.minRho;
  lastSentinel_.maxRho = verdict.maxRho;
  lastSentinel_.maxSpeed = verdict.maxSpeed;
  lastSentinel_.headroom = sentinel_.headroom(verdict);
  lastSentinel_.step = verdict.step;
  if (verdict.ok) return true;
  noteFlight("sentinel divergence at step " + std::to_string(step));

  // Divergence consensus. Record the failure, then: rollback + quarantine
  // while retries remain, otherwise degrade to the diagnostic dump.
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter("sentinel.triggers").add(1);
    t->metrics().counter("lb.consistency_fail").add(1);
  }
  lastStatus_.consistencyOk = 0;
  lastStatus_.consistencyStep = step;
  if (comm_->rank() == 0) {
    HEMO_LOG_WARN() << "sentinel divergence at step " << step
                    << ": finite=" << (verdict.finite ? 1 : 0)
                    << " minRho=" << verdict.minRho
                    << " maxRho=" << verdict.maxRho
                    << " maxSpeed=" << verdict.maxSpeed;
  }

  if (rollbacksDone_ < config_.sentinel.maxRollbacks) {
    const auto restored = restoreState(/*allowColdStart=*/false);
    if (restored.ok()) {
      const char* from =
          restored.source == StateSource::kBuddy ? "buddy" : "checkpointed";
      ++rollbacksDone_;
      if (auto* t = telemetry::threadTelemetry()) {
        t->metrics().counter("sentinel.rollbacks").add(1);
      }
      if (comm_->rank() == 0) {
        HEMO_LOG_WARN() << "sentinel rolled back to " << from << " step "
                        << restored.result.step << " (rollback "
                        << rollbacksDone_ << "/"
                        << config_.sentinel.maxRollbacks << ")";
      }
      noteFlight("sentinel rollback to " + std::string(from) + " step " +
                 std::to_string(restored.result.step));
      // Snapshots hold distributions only — steered parameters survive a
      // restore, so the rollback must also revert the most recent change,
      // the prime suspect for the blow-up.
      quarantineLatestChange();
      return false;
    }
    if (comm_->rank() == 0) {
      HEMO_LOG_WARN() << "sentinel rollback failed: "
                      << restored.result.detail;
    }
  }

  // Bounded retries exhausted (or no checkpoint to restore): graceful
  // degradation, not an abort — dump diagnostics and stop cleanly.
  writeDiagnosticDump(verdict);
  noteFlight("sentinel exhausted at step " + std::to_string(step) +
             " after " + std::to_string(rollbacksDone_) + " rollbacks");
#ifndef HEMO_TELEMETRY_DISABLED
  // The run is about to stop on a diverged state — flush the flight
  // recorder so the postmortem bundle sits next to the text dump.
  if (comm_->rank() == 0) {
    auto& registry = telemetry::FlightRegistry::instance();
    if (registry.armed()) {
      registry.flush("sentinel-exhausted",
                     "divergence at step " + std::to_string(step));
    }
  }
#endif
  terminated_ = true;
  return false;
}

void SimulationDriver::resetTelemetryWindow() {
  windowStartStep_ = solver_->stepsDone();
  windowTimer_.reset();
  windowCollide_ = solver_->collideTimer().total();
  windowStream_ = solver_->streamTimer().total();
  windowComm_ = solver_->commTimer().total();
  windowRecvWait_ = solver_->recvWaitTimer().total();
  windowVis_ = pipeline_.totalSeconds();
  windowCounters_ = comm_->counters();
}

telemetry::StepReport SimulationDriver::computeStepReport() {
  static_assert(comm::kNumTrafficClasses <=
                    telemetry::kReportTrafficClasses,
                "StepReport traffic arrays too small for comm::Traffic");
  telemetry::StepReport local;
  local.step = solver_->stepsDone();
  local.sites = domain_->numOwned();
  local.stepsCovered = solver_->stepsDone() - windowStartStep_;
  local.wallSeconds = windowTimer_.seconds();
  local.collideSeconds = solver_->collideTimer().total() - windowCollide_;
  local.streamSeconds = solver_->streamTimer().total() - windowStream_;
  local.commSeconds = solver_->commTimer().total() - windowComm_;
  local.visSeconds = pipeline_.totalSeconds() - windowVis_;
  local.commHiddenFraction = solver_->commHiddenFraction();
#ifndef HEMO_TELEMETRY_DISABLED
  // Wait-state window: what this rank's blocked time was spent on, and
  // which peer it most blames (classified at every recv from the
  // piggybacked sender post-times; see telemetry/waitstate.hpp).
  local.waitMeasuredSeconds =
      solver_->recvWaitTimer().total() - windowRecvWait_;
  if (auto* t = telemetry::threadTelemetry()) {
    const auto waitWindow = t->waitState().window();
    local.waitLateSenderSeconds = waitWindow.lateSenderSeconds;
    local.waitLateReceiverSeconds = waitWindow.lateReceiverSeconds;
    local.waitCollectiveSeconds = waitWindow.collectiveSeconds;
    local.waitLateReceiverSlackSeconds = waitWindow.lateReceiverSlackSeconds;
    local.waitBlamedRank = waitWindow.topBlamedRank;
    local.waitBlamedSeconds = waitWindow.topBlamedSeconds;
  }
#endif
  const comm::TrafficCounters& now = comm_->counters();
  for (int c = 0; c < comm::kNumTrafficClasses; ++c) {
    const auto& cur = now.perClass[static_cast<std::size_t>(c)];
    const auto& prev = windowCounters_.perClass[static_cast<std::size_t>(c)];
    local.bytesSent[c] = cur.bytesSent - prev.bytesSent;
    local.msgsSent[c] = cur.messagesSent - prev.messagesSent;
  }

  // Start the next window before the collective so the gather traffic is
  // charged to it, not to the window being reported.
  resetTelemetryWindow();

  const auto perRank = comm_->allgather(local);
  lastStepReport_ = telemetry::aggregateStepReports(perRank);
  lastPerRankReports_ = perRank;

  // Publish the rank-visible aggregate to this rank's metrics registry.
  if (auto* t = telemetry::threadTelemetry()) {
    auto& m = t->metrics();
    m.gauge("lb.mlups").set(lastStepReport_.mlups);
    m.gauge("lb.load_imbalance").set(lastStepReport_.loadImbalance);
    m.gauge("lb.comm_hidden_fraction").set(
        lastStepReport_.commHiddenFraction);
    m.gauge("vis.seconds").set(lastStepReport_.visSeconds);
    // Cross-rank critical path: who the window waited on and why.
    m.gauge("lb.wait.late_sender_seconds")
        .set(lastStepReport_.waitLateSenderSeconds);
    m.gauge("lb.wait.late_receiver_seconds")
        .set(lastStepReport_.waitLateReceiverSeconds);
    m.gauge("lb.wait.collective_seconds")
        .set(lastStepReport_.waitCollectiveSeconds);
    m.gauge("lb.wait.straggler_rank")
        .set(lastStepReport_.waitStragglerRank);
    m.gauge("lb.wait.attributed_fraction")
        .set(lastStepReport_.waitAttributedFraction);
    // Trace-ring overflow is observability loss; surface it as a metric
    // (the Chrome exporter also marks it in the trace itself).
    m.gauge("trace.dropped").set(static_cast<double>(t->tracer().dropped()));

    // Retain this window in the flight recorder: metrics snapshot, local +
    // aggregate report, sentinel extrema and serving-plane state — the
    // postmortem bundle is built from these rings.
    telemetry::FlightWindow fw;
    fw.step = lastStepReport_.step;
    fw.tsNs = telemetry::traceNowNs();
    fw.local = local;
    fw.aggregate = lastStepReport_;
    fw.sentinel = lastSentinel_;
    fw.broker.active = brokerMode_ ? 1 : 0;
    if (broker_ != nullptr) {
      fw.broker.clients = broker_->numClients();
      fw.broker.aliveClients = broker_->numAliveClients();
    }
    for (const auto& [name, c] : m.counters()) {
      fw.metrics.emplace_back(name, static_cast<double>(c.value()));
    }
    for (const auto& [name, g] : m.gauges()) {
      fw.metrics.emplace_back(name, g.value());
    }
    t->flightRecorder().captureWindow(std::move(fw));
    t->flightRecorder().retainTrace(t->tracer());
  }
  return lastStepReport_;
}

int SimulationDriver::run(int steps) {
  runTimer_.reset();
  stepsThisRun_ = 0;
  int executed = 0;
  while (executed < steps && !terminated_) {
    pollSteering();
    // Liveness heartbeat once per step: a rank that is healthy but between
    // communications (long render, paused peer) must not be accused.
    comm_->noteAlive();
    if (terminated_) break;
    if (paused_) {
      // Paused: keep servicing steering commands without advancing.
      std::this_thread::yield();
      continue;
    }
#ifndef HEMO_FAULTINJECT_DISABLED
    if (util::FaultInjector::instance().armed()) {
      using util::FaultAction;
      util::FaultRule rule;
      // World rank: injection rules stay addressed to the original rank
      // numbering even after a recovery shrink renumbers the group.
      switch (util::FaultInjector::instance().decide(
          util::FaultSite::kDriverStep, comm_->worldRank(), &rule)) {
        case FaultAction::kKill:
          throw util::RankKilledError("injected rank death on rank " +
                                      std::to_string(comm_->worldRank()));
        case FaultAction::kHang:
          // Goes silent here (no unwind, no sends) until the liveness
          // layer declares this rank dead, then dies like kKill.
          util::FaultInjector::instance().hangUntilReleased(
              comm_->worldRank());
        case FaultAction::kFail:
          throw util::InjectedFaultError("injected step failure on rank " +
                                         std::to_string(comm_->worldRank()));
        case FaultAction::kDelay:
          util::FaultInjector::sleepFor(rule.delayMillis);
          break;
        default:
          break;
      }
    }
#endif
    {
      WallTimer stepTimer;
      HEMO_TSPAN(kStep, "driver.step");
      solver_->step();
      lastStepSeconds_ = stepTimer.seconds();
    }
    if (stepsCounter_ != nullptr) {
      stepsCounter_->add(1);
      stepSecondsHist_->add(lastStepSeconds_);
    }
    ++executed;
    ++stepsThisRun_;
    const auto done = solver_->stepsDone();
    // Stage-2 sentinel: consensus divergence check before anything
    // downstream (render / checkpoint / status) consumes — or persists —
    // a possibly-poisoned state.
    if (sentinel_.enabled() && sentinel_.due(done)) {
      if (!sentinelGuard(done)) continue;
    }
    // Closing the loop: periodic imbalance check feeding measured costs
    // into a live diffusive repartition + site migration.
    if (config_.repartition.repartitionEvery > 0 &&
        done % static_cast<std::uint64_t>(
                   config_.repartition.repartitionEvery) ==
            0) {
      maybeRepartition();
    }
    bool renderDue =
        config_.visEvery > 0 &&
        done % static_cast<std::uint64_t>(config_.visEvery) == 0;
    if (brokerMode_) {
      // Image subscription cadences live on rank 0 (the broker); a 1-byte
      // broadcast keeps the collective render decision identical on every
      // rank.
      std::uint8_t due = renderDue ? 1 : 0;
      if (comm_->rank() == 0 && broker_ != nullptr &&
          broker_->imageDue(done)) {
        due = 1;
      }
      comm_->bcast(due, 0);
      renderDue = due != 0;
    }
    if (renderDue) {
      WallTimer pipeTimer;
      runPipelineNow();
      if (config_.adaptiveVisBudget > 0.0) {
        // Rank 0 owns the clock; the chosen cadence is broadcast so every
        // rank's pipeline keeps firing on the same steps.
        scheduler_.observe(lastStepSeconds_, pipeTimer.seconds());
        int every = scheduler_.recommendedEvery();
        comm_->bcast(every, 0);
        config_.visEvery = every;
      }
    }
    if (config_.checkpointEvery > 0 && !config_.checkpointDir.empty() &&
        done % static_cast<std::uint64_t>(config_.checkpointEvery) == 0) {
      const auto path =
          config_.checkpointDir + "/" + lb::checkpointFileName(done);
      lb::writeCheckpoint(path, *solver_, *comm_,
                          {config_.checkpointStripes});
      if (comm_->rank() == 0 && config_.checkpointKeep > 0) {
        lb::pruneCheckpoints(config_.checkpointDir, config_.checkpointKeep);
      }
    }
    if (config_.buddy.store != nullptr) {
      const int every = config_.buddy.mirrorEvery > 0
                            ? config_.buddy.mirrorEvery
                            : config_.checkpointEvery;
      if (every > 0 && done % static_cast<std::uint64_t>(every) == 0) {
        lb::mirrorBuddy(*solver_, *comm_, *config_.buddy.store);
      }
    }
    if (config_.statusEvery > 0 &&
        done % static_cast<std::uint64_t>(config_.statusEvery) == 0) {
      // Feeds lastStatus_, the consistency counter, the telemetry window
      // and the flight recorder; clients get both reports by subscribing
      // to the status and telemetry streams.
      computeStatus();
      computeStepReport();
      // Flush live serve.* counters every window: frames_dropped grows
      // inside the client outboxes as they evict, so without this it only
      // surfaced when some frame publish happened to run publishMetrics.
      if (comm_->rank() == 0 && broker_ != nullptr) {
        broker_->publishMetrics();
      }
    }
  }
  return executed;
}

std::vector<double> SimulationDriver::measuredSiteCosts() const {
  const auto& lat = domain_->lattice();
  const auto& partOf = domain_->partition().partOfSite;
  const int numRanks = comm_->size();

  // Effective load per rank from the last window's per-rank reports: the
  // rank's own busy + vis seconds, plus the wait time other ranks' blame
  // vectors charge to it (a rank everyone waits on carries more effective
  // load than its own timers admit — PR 7's attribution closing the loop).
  std::vector<double> load(static_cast<std::size_t>(numRanks), 0.0);
  std::vector<double> blame(static_cast<std::size_t>(numRanks), 0.0);
  std::vector<std::uint64_t> sites(static_cast<std::size_t>(numRanks), 0);
  const std::size_t n =
      std::min(lastPerRankReports_.size(), static_cast<std::size_t>(numRanks));
  for (std::size_t r = 0; r < n; ++r) {
    const auto& rep = lastPerRankReports_[r];
    load[r] = rep.busySeconds() + rep.visSeconds;
    sites[r] = rep.sites;
    if (rep.waitBlamedRank >= 0 && rep.waitBlamedRank < numRanks) {
      blame[static_cast<std::size_t>(rep.waitBlamedRank)] +=
          rep.waitBlamedSeconds;
    }
  }
  double totalLoad = 0.0;
  for (int r = 0; r < numRanks; ++r) {
    load[static_cast<std::size_t>(r)] += blame[static_cast<std::size_t>(r)];
    totalLoad += load[static_cast<std::size_t>(r)];
  }

  // Spread each rank's effective load uniformly over its owned sites. With
  // no usable telemetry (fresh window, telemetry compiled out) fall back to
  // uniform cost, which rebalances site counts.
  std::vector<double> perSite(static_cast<std::size_t>(numRanks), 1.0);
  if (totalLoad > 0.0) {
    for (int r = 0; r < numRanks; ++r) {
      const auto s = sites[static_cast<std::size_t>(r)];
      if (s > 0) {
        perSite[static_cast<std::size_t>(r)] =
            std::max(load[static_cast<std::size_t>(r)], 1e-12 * totalLoad) /
            static_cast<double>(s);
      }
    }
  }
  std::vector<double> cost(lat.numFluidSites());
  for (std::uint64_t g = 0; g < lat.numFluidSites(); ++g) {
    cost[static_cast<std::size_t>(g)] = perSite[static_cast<std::size_t>(
        partOf[static_cast<std::size_t>(g)])];
  }
  return cost;
}

void SimulationDriver::maybeRepartition() {
  const auto& rc = config_.repartition;
  // Collective window aggregation: every rank sees the identical report,
  // so the trigger decision below needs no extra votes.
  const auto report = computeStepReport();
  if (repartCooldown_ > 0) {
    --repartCooldown_;
    overThresholdWindows_ = 0;
    return;
  }
  if (report.stepsCovered == 0 ||
      report.loadImbalance <= rc.imbalanceThreshold) {
    overThresholdWindows_ = 0;
    return;
  }
  ++overThresholdWindows_;
  if (overThresholdWindows_ < rc.triggerWindows) return;
  if (migrationsDone_ >= rc.maxMigrations) return;
  // Sentinel gate: never migrate poisoned state. A migration right before
  // a rollback would launder diverged populations into a fresh partition
  // the checkpoint machinery then trusts.
  if (sentinel_.enabled()) {
    const auto verdict =
        sentinel_.check(*comm_, solver_->macro(), solver_->stepsDone());
    if (!verdict.ok) {
      if (auto* t = telemetry::threadTelemetry()) {
        t->metrics().counter("repart.vetoed").add(1);
      }
      noteFlight("repartition vetoed by sentinel at step " +
                 std::to_string(solver_->stepsDone()));
      overThresholdWindows_ = 0;
      return;
    }
  }
  const auto outcome = migrateNow(measuredSiteCosts());
  overThresholdWindows_ = 0;
  if (outcome.migrated) repartCooldown_ = rc.cooldownWindows;
}

MigrationOutcome SimulationDriver::migrateNow(
    const std::vector<double>& siteCost) {
  HEMO_TSPAN(kPartition, "driver.migrate");
  const auto& lat = domain_->lattice();
  HEMO_CHECK(siteCost.size() == lat.numFluidSites());
  MigrationOutcome out;

  // Sub-spans split the stall by step in a trace: plan, transfer, then
  // standUp's solver, ghosts and octree.
  partition::RepartitionResult plan;
  {
    HEMO_TSPAN(kPartition, "driver.migrate.plan");
    if (!repartGraph_) {
      repartGraph_ = std::make_unique<partition::SiteGraph>(
          partition::buildSiteGraph(lat));
    }
    plan = partition::rebalance(*repartGraph_, domain_->partition(), siteCost,
                                config_.repartition.options);
  }
  out.sitesMoved = plan.sitesMoved;
  out.imbalanceBefore = plan.imbalanceBefore;
  out.imbalanceAfter = plan.imbalanceAfter;
  // The plan is a pure function of (graph, partition, siteCost), all
  // identical on every rank; a diverging plan would deadlock the transfer,
  // so verify cheaply before touching any state.
  HEMO_CHECK_MSG(comm_->allreduceMax(plan.sitesMoved) ==
                     comm_->allreduceMin(plan.sitesMoved),
                 "repartition plan diverged across ranks");
  if (auto* t = telemetry::threadTelemetry()) {
    auto& m = t->metrics();
    m.counter("repart.triggers").add(1);
    m.gauge("repart.imbalance_before").set(plan.imbalanceBefore);
    m.gauge("repart.imbalance_after").set(plan.imbalanceAfter);
  }
  if (plan.sitesMoved == 0) {
    if (auto* t = telemetry::threadTelemetry()) {
      t->metrics().counter("repart.skipped").add(1);
    }
    return out;
  }

  WallTimer migrateTimer;
  const std::uint64_t stepsDone = solver_->stepsDone();
  auto newPartition =
      std::make_unique<partition::Partition>(std::move(plan.partition));
  auto newDomain =
      std::make_unique<lb::DomainMap>(lat, *newPartition, comm_->rank());
  std::vector<std::vector<double>> columns;
  lb::MigrationStats stats;
  {
    // Data plane: the owner-routed transfer onto the new ownership
    // (collective, traffic class kRepart).
    HEMO_TSPAN(kPartition, "driver.migrate.transfer");
    stats = lb::migrateDistributions(*solver_, *newDomain, *comm_, columns);
  }
  standUp(*newDomain, columns);
  liveDomain_ = std::move(newDomain);
  livePartition_ = std::move(newPartition);
  ++migrationEpoch_;
  ++migrationsDone_;
  out.migrated = true;
  out.seconds = migrateTimer.seconds();

  // The rebuilt solver's timers restart at zero — rebase the telemetry
  // window baselines or the next StepReport window would go negative.
  resetTelemetryWindow();

  if (auto* t = telemetry::threadTelemetry()) {
    auto& m = t->metrics();
    m.counter("repart.migrations").add(1);
    m.counter("repart.sites_moved").add(stats.sitesMoved);
    m.gauge("repart.migration_seconds").set(out.seconds);
    m.gauge("repart.epoch").set(static_cast<double>(migrationEpoch_));
  }
  noteFlight("live repartition at step " + std::to_string(stepsDone) +
             ": moved " + std::to_string(stats.sitesMoved) +
             " sites, imbalance " + std::to_string(out.imbalanceBefore) +
             " -> " + std::to_string(out.imbalanceAfter));
  if (comm_->rank() == 0) {
    HEMO_LOG_INFO() << "live repartition (epoch " << migrationEpoch_
                    << ") at step " << stepsDone << ": moved "
                    << stats.sitesMoved << " sites ("
                    << stats.bytesMoved / 1024 << " KiB), imbalance "
                    << out.imbalanceBefore << " -> " << out.imbalanceAfter
                    << " in " << out.seconds << " s";
  }
  return out;
}

}  // namespace hemo::core
