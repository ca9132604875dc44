// batch_large: a ~600k-site aneurysm on 4 ranks, solver only. Vis, serving
// and checkpoints are off; a StepReport window closes every 25 steps and
// nothing else happens. lb and comm do all the work and the kway
// partition dominates set-up, so a kernel, halo or partitioner change shows
// here and a vis or serve change must not. Its latency is the wall time of
// one time step.

#include <cmath>

#include "bench.hpp"
#include "inputs.hpp"
#include "standup.hpp"

namespace pb {

using namespace hemo;

Result runBatchLarge(const Options& opt) {
  const int ranks = 4;
  const int reps = opt.smoke ? 1 : 3;
  const int window = 25;
  Result r;

  core::DriverConfig cfg;
  cfg.lb.tau = 0.8;
  cfg.lb.bodyForce = {1e-5, 0, 0};
  cfg.lb.computeStress = false;
  cfg.computeWss = false;
  cfg.visEvery = 0;
  cfg.statusEvery = 0;
  cfg.adaptiveVisBudget = 0.0;
  cfg.repartition.repartitionEvery = 0;

  std::uint64_t steps = 0, sites = 0;
  double wall = 0.0;
  ReportSum reports;
  std::vector<double> windowMlups;
  const std::string geo = geometryPath(opt.inputs, opt.workload, opt.smoke);
  std::optional<core::PreprocessReport> report;

  standUpAndRun(
      geo, ranks, reps, cfg, nullptr, {},
      [&](comm::Communicator& comm, const StandUp& s,
          core::SimulationDriver& driver) {
        // Warm-up outside the timed loop: first touch, NT-store policy,
        // halo buffers.
        driver.run(window);
        driver.computeStepReport();
        const double mass0 = checkedMass(comm, driver.solver());
        comm.barrier();
        const double t0 = nowSeconds();
        do {
          const double w0 = nowSeconds();
          // Rank 0 times every step: the halo exchange couples the ranks,
          // so its step wall time is the group's.
          for (int i = 0; i < window; ++i) {
            std::optional<Timed> t;
            if (comm.rank() == 0) t.emplace("lb.step");
            driver.run(1);
          }
          telemetry::StepReport rep;
          {
            std::optional<Timed> t;
            if (comm.rank() == 0) t.emplace("core.step_report");
            rep = driver.computeStepReport();
          }
          // Output check of the window: every field finite and the mass
          // conserved. The pressure caps are open boundaries that exchange
          // a little mass while the flow develops (a few 1e-6 of the total
          // here), so conservation is checked to 1e-4 relative: a broken
          // kernel or halo loses or creates far more.
          const double mass = checkedMass(comm, driver.solver());
          if (comm.rank() == 0) {
            windowMlups.push_back(static_cast<double>(
                                      s.lattice->numFluidSites() * window) /
                                  (nowSeconds() - w0) / 1e6);
            steps += static_cast<std::uint64_t>(window);
            reports.add(rep);
            if (!std::isfinite(mass) ||
                std::abs(mass - mass0) > 1e-4 * std::abs(mass0)) {
              r.fail("step " + std::to_string(rep.step) + ": mass " +
                         std::to_string(mass) + " vs " + std::to_string(mass0),
                     static_cast<std::uint64_t>(window));
            }
          }
        } while (!timeUp(comm, t0, opt.seconds));
        if (comm.rank() == 0) {
          wall = nowSeconds() - t0;
          sites = s.lattice->numFluidSites();
          report = s.report;
        }
      });

  r.attempted = steps;
  const auto setup = Recorder::get().series("setup");
  const double mlups =
      wall > 0.0 ? static_cast<double>(sites * steps) / wall / 1e6 : 0.0;
  r.e2e("setup_s", median(setup), "s", setup.size());
  // MLUPS is the median over windows of the same work (25 steps, a
  // StepReport and the output check); the whole-loop rate is kept beside
  // it in the table.
  r.e2e("mlups", median(windowMlups), "MLUPS", windowMlups.size());
  r.e2e("mlups_loop", mlups, "MLUPS", 1);
  r.e2e("peak_rss_mb", peakRssMb(), "MB");
  // The latency a batch user sees is the wall time of one time step.
  const auto step = Recorder::get().series("lb.step");
  r.e2e("latency_ms_p50", 1e3 * median(step), "ms", step.size());
  r.e2e("latency_ms_p90", 1e3 * percentile(step, 0.9), "ms", step.size());
  if (!opt.trace) return r;

  addSetupLayers(r, *report);
  const auto reportMs = Recorder::get().series("core.step_report");
  r.layer("lb.steps", static_cast<double>(steps), "count");
  r.layer("lb.step_ms_p50", 1e3 * median(step), "ms", step.size());
  r.layer("lb.step_ms_p90", 1e3 * percentile(step, 0.9), "ms", step.size());
  r.layer("core.step_report_ms_p50", 1e3 * median(reportMs), "ms",
          reportMs.size());
  reports.emit(r);
  {
    // The 1-rank baseline and the copy probe need the lattice again; read
    // it outside any timed region.
    const auto lattice = geometry::readSgmy(geo);
    addMachineLayers(r, opt, lattice, cfg.lb, ranks, median(step));
  }
  completePerLayer(r);
  return r;
}

}  // namespace pb
