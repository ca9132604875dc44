// hemo_rankdeath_soak: seeded random rank-death soak for the
// shrink-and-continue recovery path (core/recovery.hpp).
//
// Each iteration draws a victim rank and a kill step from a seeded PRNG,
// injects the kill (util::FaultInjector), runs the simulation through
// ResilientRunner on N thread-ranks, and compares the surviving ranks'
// final velocity field against an uninterrupted serial reference to
// 1e-13 — the LB update is per-site, so recovery must be bit-clean, not
// merely plausible. Disk and buddy restore ladders alternate per
// iteration (odd iterations run diskless).
//
// Exit code 0 iff every iteration completed on the survivors and matched
// the reference. On failure the flight recorder's postmortem bundles are
// left in --out for upload; CI runs this in the Release job and attaches
// that directory as an artifact when the step fails. An iteration still
// running after kIterationDeadline has hung: a watchdog prints the
// reproducer (seed, iteration, victim, kill step), flushes a postmortem
// bundle of every rank's flight ring into --out and exits with code 3.
//
// Usage: hemo_rankdeath_soak [--seed S] [--iterations K] [--ranks N]
//                            [--steps T] [--checkpoint-every C] [--out DIR]

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/recovery.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/domain_map.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "telemetry/flightrec.hpp"
#include "util/faultinject.hpp"

namespace {

using namespace hemo;

struct Options {
  unsigned seed = 1234;
  int iterations = 4;
  int ranks = 6;
  int steps = 24;
  int checkpointEvery = 5;
  std::string out = "rankdeath-soak";
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto eatInt = [&](const char* flag, int& slot) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        slot = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = static_cast<unsigned>(std::atoi(argv[++i]));
      continue;
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
      continue;
    }
    if (eatInt("--iterations", opt.iterations) ||
        eatInt("--ranks", opt.ranks) || eatInt("--steps", opt.steps) ||
        eatInt("--checkpoint-every", opt.checkpointEvery)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    std::exit(2);
  }
  return opt;
}

/// Wall-clock budget of one iteration. A healthy one at the CI shape takes
/// well under a second, and a staleness accusation adds a few liveness
/// timeouts; one still running after this long has hung.
constexpr auto kIterationDeadline = std::chrono::seconds(60);

/// Guards one iteration: unless destroyed before kIterationDeadline, it
/// prints `reproducer`, flushes the flight registry's postmortem bundle
/// into `outDir` and ends the process with exit code 3.
class IterationWatchdog {
 public:
  IterationWatchdog(std::string reproducer, std::string outDir)
      : thread_([this, reproducer = std::move(reproducer),
                 outDir = std::move(outDir)] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (cv_.wait_for(lock, kIterationDeadline,
                           [this] { return done_; })) {
            return;
          }
          std::printf("  HANG after %lld s: %s\n",
                      static_cast<long long>(kIterationDeadline.count()),
                      reproducer.c_str());
          auto& registry = telemetry::FlightRegistry::instance();
          registry.arm(outDir);
          const auto bundle = registry.flush("soak-hang", reproducer);
          std::printf("  postmortem bundle: %s\n",
                      bundle.empty() ? "(none written)" : bundle.c_str());
          std::fflush(stdout);
          std::_Exit(3);
        }) {}

  IterationWatchdog(const IterationWatchdog&) = delete;
  IterationWatchdog& operator=(const IterationWatchdog&) = delete;

  ~IterationWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

geometry::SparseLattice soakLattice() {
  geometry::VoxelizeOptions vopt;
  vopt.voxelSize = 0.3;
  return geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), vopt);
}

lb::LbParams soakParams() {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  return p;
}

/// Gather one rank's velocity field into the shared global array.
void collectU(const lb::DomainMap& domain, const lb::SolverD3Q19& solver,
              std::vector<Vec3d>& u) {
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    u[static_cast<std::size_t>(domain.globalOf(l))] = solver.macro().u[l];
  }
}

std::vector<Vec3d> serialReference(const geometry::SparseLattice& lat,
                                   int steps) {
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 1);
  std::vector<Vec3d> u(lat.numFluidSites());
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, soakParams());
    solver.run(steps);
    collectU(domain, solver, u);
  });
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  if (opt.ranks < 3 || opt.steps < 4) {
    std::fprintf(stderr, "need --ranks >= 3 and --steps >= 4\n");
    return 2;
  }
  std::filesystem::create_directories(opt.out);

  const auto lattice = soakLattice();
  const auto reference = serialReference(lattice, opt.steps);
  std::printf("rank-death soak: seed=%u iterations=%d ranks=%d steps=%d "
              "ckpt-every=%d sites=%llu\n",
              opt.seed, opt.iterations, opt.ranks, opt.steps,
              opt.checkpointEvery,
              static_cast<unsigned long long>(lattice.numFluidSites()));

  std::mt19937 rng(opt.seed);
  partition::MultilevelKWayPartitioner kway;
  int failures = 0;

  for (int it = 0; it < opt.iterations; ++it) {
    // Any rank may die at any step; odd iterations run diskless so both
    // rungs of the restore ladder see random kill points.
    const int victim =
        std::uniform_int_distribution<int>(0, opt.ranks - 1)(rng);
    const int killStep =
        std::uniform_int_distribution<int>(2, opt.steps - 1)(rng);
    const bool buddy = it % 2 == 1;

    const std::string ckptDir = opt.out + "/ckpt_it" + std::to_string(it);
    core::DriverConfig cfg;
    cfg.lb = soakParams();
    cfg.computeWss = false;
    cfg.visEvery = 0;
    cfg.statusEvery = 0;
    cfg.checkpointEvery = opt.checkpointEvery;
    if (!buddy) cfg.checkpointDir = ckptDir;
    cfg.flight.enabled = true;
    cfg.flight.dir = opt.out;

    core::RecoveryConfig rcfg;
    rcfg.liveness = {true, 2000, 5};
    rcfg.buddy = buddy;

    util::FaultScope scope(static_cast<int>(opt.seed) + it);
    util::FaultRule rule;
    rule.site = util::FaultSite::kDriverStep;
    rule.action = util::FaultAction::kKill;
    rule.rank = victim;
    rule.afterHits = static_cast<std::uint64_t>(killStep - 1);
    rule.maxFires = 1;
    scope.rule(rule);

    std::vector<Vec3d> u(lattice.numFluidSites());
    core::ResilientRunner runner(lattice, kway, cfg, rcfg);
    core::ResilientRunner::Result result;
    {
      const IterationWatchdog watchdog(
          "hemo_rankdeath_soak --seed " + std::to_string(opt.seed) +
              " --iterations " + std::to_string(it + 1) + " --ranks " +
              std::to_string(opt.ranks) + " --steps " +
              std::to_string(opt.steps) + " --checkpoint-every " +
              std::to_string(opt.checkpointEvery) + ": iteration " +
              std::to_string(it) + ", kill rank " + std::to_string(victim) +
              " at step " + std::to_string(killStep),
          opt.out);
      result = runner.run(
          opt.ranks, opt.steps,
          [&u](const lb::DomainMap& domain, core::SimulationDriver& driver,
               comm::Communicator&) { collectU(domain, driver.solver(), u); });
    }

    bool ok = result.completed && !result.events.empty();
    double worst = 0.0;
    if (ok) {
      for (std::size_t g = 0; g < reference.size(); ++g) {
        worst = std::max(worst, (u[g] - reference[g]).norm());
      }
      ok = worst <= 1e-13;
    }
    const auto& mode = buddy ? "buddy" : "disk";
    if (ok) {
      std::printf("  it %d: kill rank %d at step %d (%s) -> recovered on %d "
                  "ranks, restored from step %llu, max |du| = %.2e\n",
                  it, victim, killStep, mode, result.survivors,
                  static_cast<unsigned long long>(
                      result.events[0].restoredStep),
                  worst);
    } else {
      std::printf("  it %d: kill rank %d at step %d (%s) -> FAILED "
                  "(completed=%d events=%zu max |du| = %.2e) %s\n",
                  it, victim, killStep, mode, result.completed ? 1 : 0,
                  result.events.size(), worst, result.error.c_str());
      ++failures;
    }
    std::filesystem::remove_all(ckptDir);
  }

  if (failures > 0) {
    std::printf("rank-death soak: %d/%d iteration(s) FAILED; postmortem "
                "bundles (if any) are in %s\n",
                failures, opt.iterations, opt.out.c_str());
    return 1;
  }
  std::printf("rank-death soak: all %d iterations recovered bit-clean\n",
              opt.iterations);
  return 0;
}
