// restandup: the ways the stack is stood up on a new partition or from a
// snapshot, on a ~75k-site aneurysm with 4 ranks while vis and serving stay
// idle. Every cycle of the live driver runs 10 steps, then
//  - a striped checkpoint write (lb::writeCheckpoint) and its read back
//    (lb::restoreLatest), routed by the current ownership;
//  - a buddy mirror (lb::mirrorBuddy) and its restore (lb::restoreFromBuddy);
//  - a live migration (migrateNow) under a seeded vis-aware cost field: the
//    current sub-domain of a hot rank costs more, and the hot rank changes
//    every cycle, so every call moves sites.
// The fields must match an uninterrupted reference to 1e-13 at the end.
//
// Rank-death recovery (core::ResilientRunner) is not part of the loop: its
// sessions hang intermittently (see NOTES.md), and a benchmark run must end.

#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "inputs.hpp"
#include "lb/buddy.hpp"
#include "lb/checkpoint.hpp"
#include "standup.hpp"

namespace pb {

using namespace hemo;

namespace {

constexpr int kCycle = 10;  ///< steps between re-stand-ups
constexpr double kTolerance = 1e-13;

core::DriverConfig plainConfig() {
  core::DriverConfig cfg;
  cfg.lb.tau = 0.8;
  cfg.lb.bodyForce = {1e-5, 0, 0};
  cfg.lb.computeStress = false;
  cfg.computeWss = false;
  cfg.visEvery = 0;
  cfg.statusEvery = 0;
  cfg.adaptiveVisBudget = 0.0;
  cfg.repartition.repartitionEvery = 0;
  cfg.flight.enabled = false;
  return cfg;
}

/// Vis-aware cost field: the sites `h.rank` owns now cost 1 + factor.
std::vector<double> costField(const partition::Partition& part,
                              const HotRank& h) {
  std::vector<double> cost(part.partOfSite.size(), 1.0);
  for (std::size_t g = 0; g < cost.size(); ++g) {
    if (part.partOfSite[g] == h.rank) cost[g] += h.factor;
  }
  return cost;
}

template <typename Solver>
void collectU(const lb::DomainMap& domain, const Solver& solver,
              std::vector<Vec3d>& u) {
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    u[static_cast<std::size_t>(domain.globalOf(l))] = solver.macro().u[l];
  }
}

/// Uninterrupted reference: `steps` plain solver steps on `part`.
std::vector<Vec3d> reference(const geometry::SparseLattice& lat,
                             const partition::Partition& part,
                             const lb::LbParams& params, std::uint64_t steps) {
  std::vector<Vec3d> u(lat.numFluidSites());
  comm::Runtime rt(part.numParts);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(static_cast<int>(steps));
    collectU(domain, solver, u);
  });
  return u;
}

double maxDiff(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, (a[i] - b[i]).norm());
  }
  return worst;
}

}  // namespace

Result runRestandup(const Options& opt) {
  const int ranks = 4;
  const int reps = opt.smoke ? 1 : 5;
  Result r;
  const auto script = readRestandupScript(
      scriptPath(opt.inputs, opt.workload, opt.seed, opt.smoke));
  if (script.hot.empty()) throw std::runtime_error("empty restandup script");
  for (const auto& h : script.hot) {
    if (h.rank < 0 || h.rank >= ranks) {
      throw std::runtime_error("hot rank out of range in restandup script");
    }
  }
  const std::string geo = geometryPath(opt.inputs, opt.workload, opt.smoke);
  const std::string ckpt = opt.work + "/ckpt";
  std::filesystem::remove_all(ckpt);
  std::filesystem::create_directories(ckpt);
  const core::DriverConfig cfg = plainConfig();

  lb::BuddyStore store;
  std::optional<core::PreprocessReport> report;
  std::vector<Vec3d> u;
  std::uint64_t stepsDone = 0, timedSteps = 0, sitesMoved = 0, repartBytes = 0;
  std::uint64_t migrations = 0, ckptBytes = 0;
  std::vector<double> cycleMlups;
  ReportSum reports;

  standUpAndRun(
      geo, ranks, reps, cfg, nullptr, {},
      [&](comm::Communicator& comm, const StandUp& s,
          core::SimulationDriver& driver) {
        const auto& lat = *s.lattice;
        if (comm.rank() == 0) {
          u.assign(lat.numFluidSites(), Vec3d{});
          report = s.report;
        }
        comm.barrier();
        int k = 0;
        // One cycle: the steps, then each re-stand-up between barriers so
        // rank 0 times the collective call.
        const auto cycle = [&](bool timed) {
          const double c0 = nowSeconds();
          const auto stage = [&](const char* name, const auto& call) {
            std::optional<Timed> t;
            if (timed && comm.rank() == 0) t.emplace(name);
            call();
            comm.barrier();
          };
          for (int i = 0; i < kCycle; ++i) {
            std::optional<Timed> t;
            if (timed && comm.rank() == 0) t.emplace("lb.step");
            driver.run(1);
          }
          if (timed && opt.trace) {
            std::optional<Timed> t;
            if (comm.rank() == 0) t.emplace("core.step_report");
            const auto rep = driver.computeStepReport();
            if (comm.rank() == 0) reports.add(rep);
          }
          const std::uint64_t step = driver.solver().stepsDone();
          comm.barrier();
          std::uint64_t bytes = 0;
          stage("lb.checkpoint_write", [&] {
            bytes = lb::writeCheckpoint(
                ckpt + "/" + lb::checkpointFileName(step), driver.solver(),
                comm);
            if (comm.rank() == 0) lb::pruneCheckpoints(ckpt, 2);
          });
          lb::RestoreResult disk, buddy;
          stage("lb.restore_disk",
                [&] { disk = lb::restoreLatest(ckpt, driver.solver(), comm); });
          stage("lb.buddy_mirror",
                [&] { lb::mirrorBuddy(driver.solver(), comm, store); });
          stage("lb.restore_buddy", [&] {
            buddy = lb::restoreFromBuddy(store, driver.solver(), comm);
          });
          const auto before =
              comm.counters().of(comm::Traffic::kRepart).bytesSent;
          // Every rank derives the same field from the shared partition.
          const auto cost = costField(
              driver.domain().partition(),
              script.hot[static_cast<std::size_t>(k) % script.hot.size()]);
          core::MigrationOutcome out;
          stage("core.migrate", [&] { out = driver.migrateNow(cost); });
          const auto moved = comm.allreduceSum(
              comm.counters().of(comm::Traffic::kRepart).bytesSent - before);
          ++k;
          if (comm.rank() == 0 && timed) {
            ++migrations;
            timedSteps += kCycle;
            ckptBytes += bytes;
            sitesMoved += out.sitesMoved;
            repartBytes += moved;
            cycleMlups.push_back(static_cast<double>(lat.numFluidSites()) *
                                 kCycle / (nowSeconds() - c0) / 1e6);
            if (!disk.ok() || disk.step != step) {
              r.fail("disk restore at step " + std::to_string(step) + ": " +
                     disk.detail);
            }
            if (!buddy.ok() || buddy.step != step) {
              r.fail("buddy restore at step " + std::to_string(step) + ": " +
                     buddy.detail);
            }
            if (!out.migrated || out.sitesMoved == 0) {
              r.fail("migration at step " + std::to_string(step) +
                     " moved no sites");
            }
          }
        };
        // Warm-up: the first migration builds the repartitioner's site
        // graph lazily; keep that out of the timed loop.
        cycle(false);
        comm.barrier();
        const double t0 = nowSeconds();
        do {
          cycle(true);
        } while (!timeUp(comm, t0, opt.seconds));
        // Velocities are refreshed by a step; compare after the last
        // migration has been stepped through.
        driver.run(kCycle);
        collectU(driver.domain(), driver.solver(), u);
        comm.barrier();
        if (comm.rank() == 0) stepsDone = driver.solver().stepsDone();
      });
  std::filesystem::remove_all(ckpt);
  // The workload's own peak: the reference run below is the check's memory.
  const double rssMb = peakRssMb();

  const auto lattice = geometry::readSgmy(geo);
  {
    const double worst =
        maxDiff(u, reference(lattice, report->partition, cfg.lb, stepsDone));
    if (!(worst <= kTolerance)) {
      r.fail("re-stood-up run differs from the reference by " +
                 std::to_string(worst),
             migrations);
    }
  }

  // Each cycle holds one migration and two restores.
  r.attempted = 3 * migrations;
  auto& rec = Recorder::get();
  const auto setup = rec.series("setup");
  const auto migrate = rec.series("core.migrate");
  r.e2e("setup_s", median(setup), "s", setup.size());
  r.e2e("mlups", median(cycleMlups), "MLUPS", cycleMlups.size());
  r.e2e("peak_rss_mb", rssMb, "MB");
  r.e2e("migrate_ms_p50", 1e3 * median(migrate), "ms", migrate.size());
  // The latency a user sees is the stall of a live re-stand-up: migrateNow
  // timed from outside, barriers on both sides.
  r.e2e("latency_ms_p50", 1e3 * median(migrate), "ms", migrate.size());
  r.e2e("latency_ms_p90", 1e3 * percentile(migrate, 0.9), "ms", migrate.size());
  if (!opt.trace) return r;

  addSetupLayers(r, *report);
  const auto ckptMs = rec.series("lb.checkpoint_write");
  const auto mirror = rec.series("lb.buddy_mirror");
  const auto restoreDisk = rec.series("lb.restore_disk");
  const auto restoreBuddy = rec.series("lb.restore_buddy");
  const auto step = rec.series("lb.step");
  const auto reportMs = rec.series("core.step_report");
  r.layer("lb.steps", static_cast<double>(timedSteps), "count");
  r.layer("lb.step_ms_p50", 1e3 * median(step), "ms", step.size());
  r.layer("lb.step_ms_p90", 1e3 * percentile(step, 0.9), "ms", step.size());
  r.layer("core.step_report_ms_p50", 1e3 * median(reportMs), "ms",
          reportMs.size());
  reports.emit(r);
  addMachineLayers(r, opt, lattice, cfg.lb, ranks, median(step));
  r.layer("lb.checkpoint_write_ms_p50", 1e3 * median(ckptMs), "ms",
          ckptMs.size());
  r.layer("lb.checkpoint_mb",
          ckptMs.empty() ? 0.0 : static_cast<double>(ckptBytes) / 1e6 / ckptMs.size(),
          "MB");
  r.layer("lb.buddy_mirror_ms_p50", 1e3 * median(mirror), "ms", mirror.size());
  r.layer("lb.restore_disk_ms_p50", 1e3 * median(restoreDisk), "ms",
          restoreDisk.size());
  r.layer("lb.restore_buddy_ms_p50", 1e3 * median(restoreBuddy), "ms",
          restoreBuddy.size());
  r.layer("core.migrate.count", static_cast<double>(migrations), "count");
  r.layer("core.migrate.sites_moved",
          migrations ? static_cast<double>(sitesMoved) / migrations : 0.0,
          "count");
  r.layer("comm.repart_bytes",
          migrations ? static_cast<double>(repartBytes) / migrations : 0.0, "B");
  completePerLayer(r);
  return r;
}

}  // namespace pb
