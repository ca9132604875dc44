#pragma once
/// \file standup.hpp
/// \brief What the three workloads share: the measured set-up path (readSgmy
/// of the generated file, preprocess, DomainMap, driver construction and
/// broker attach, repeated so setup_s is a median; the last repetition keeps
/// its stack and runs the workload body on it), the collective stop and
/// output checks, and the per-layer helpers of traced runs.

#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/preprocess.hpp"
#include "geometry/sgmy.hpp"
#include "lb/domain_map.hpp"
#include "serve/broker.hpp"

namespace pb {

struct StandUp {
  std::optional<hemo::geometry::SparseLattice> lattice;
  hemo::core::PreprocessReport report;
};

using Body = std::function<void(hemo::comm::Communicator&, const StandUp&,
                                hemo::core::SimulationDriver&)>;
using Configure = std::function<void(hemo::comm::Communicator&,
                                     hemo::core::SimulationDriver&)>;

/// Stand the stack up `reps` times on `ranks` thread-ranks; every repetition
/// adds one "setup" sample (rank 0: file read to first step ready, after a
/// barrier). `configure` runs on every rank right after construction and
/// counts as set-up (iolet densities, broker attach). `broker` is attached on
/// the last repetition only; earlier ones attach a client-less broker when
/// `broker` is non-null. `body` runs on the last repetition.
inline void standUpAndRun(const std::string& geo, int ranks, int reps,
                          const hemo::core::DriverConfig& cfg,
                          hemo::serve::SessionBroker* broker,
                          const Configure& configure, const Body& body) {
  using namespace hemo;
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep + 1 == reps;
    const double t0 = nowSeconds();
    StandUp s;
    {
      Timed t("geometry.read");
      s.lattice.emplace(geometry::readSgmy(geo));
    }
    {
      Timed t("partition.preprocess");
      core::PreprocessConfig pre;
      pre.partitioner = "kway";
      s.report = core::preprocess(*s.lattice, ranks, pre);
    }
    serve::SessionBroker idle;
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      std::optional<Timed> construct;
      if (comm.rank() == 0) construct.emplace("core.construct");
      lb::DomainMap domain(*s.lattice, s.report.partition, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      if (broker != nullptr) {
        driver.attachBroker(comm.rank() != 0 ? nullptr
                            : last          ? broker
                                            : &idle);
      }
      if (configure) configure(comm, driver);
      comm.barrier();
      if (comm.rank() == 0) {
        construct->stop();
        Recorder::get().add("setup", nowSeconds() - t0);
      }
      if (last) body(comm, s, driver);
    });
  }
}

/// Collective: rank 0 decides whether the timed loop is over and every rank
/// learns it (time-based loops must stop on the same iteration everywhere).
inline bool timeUp(hemo::comm::Communicator& comm, double t0, double seconds) {
  std::uint8_t stop = 0;
  if (comm.rank() == 0 && nowSeconds() - t0 >= seconds) stop = 1;
  comm.bcast(stop, 0);
  return stop != 0;
}

/// Collective: mass and finiteness of the solver state. Returns the global
/// mass, or NaN when any rank holds a non-finite density or velocity.
template <typename Solver>
double checkedMass(hemo::comm::Communicator& comm, const Solver& solver) {
  const auto& m = solver.macro();
  int finite = 1;
  for (std::size_t i = 0; i < m.rho.size() && finite; ++i) {
    finite = std::isfinite(m.rho[i]) && std::isfinite(m.u[i].x) &&
             std::isfinite(m.u[i].y) && std::isfinite(m.u[i].z);
  }
  const double mass = comm.allreduceSum(solver.localMass());
  return comm.allreduceMin(finite) == 1 ? mass : std::nan("");
}

/// Bytes moved per site update by the minimum-traffic LB step: read f,
/// write fNext, write rho and u.
inline constexpr double kBytesPerSite = 2.0 * 19 * 8 + 4 * 8;

/// Traced runs: single-rank MLUPS of the same problem (the baseline of
/// comm.parallel_eff), measured for about `seconds`.
double oneRankMlups(const hemo::geometry::SparseLattice& lattice,
                    const hemo::lb::LbParams& params, double seconds);

/// Traced runs: per-layer metrics every workload reports the same way —
/// the stream-copy probe, roofline fraction, 1-rank baseline.
void addMachineLayers(Result& r, const Options& opt,
                      const hemo::geometry::SparseLattice& lattice,
                      const hemo::lb::LbParams& params, int ranks,
                      double plainStepSeconds);

/// Fill every catalogue metric a workload did not set with its measured
/// idle value (zero work), so traced runs always print the full set.
void completePerLayer(Result& r);

/// Traced runs: aggregate StepReports summed over windows, for the lb and
/// comm per-layer metrics (seconds summed over ranks and windows).
struct ReportSum {
  hemo::telemetry::StepReport sum;
  double hiddenSum = 0.0;  ///< commHiddenFraction summed over windows
  int windows = 0;
  void add(const hemo::telemetry::StepReport& r);
  void emit(Result& r) const;
};

/// Per-layer metrics derived from the recorded set-up samples.
void addSetupLayers(Result& r, const hemo::core::PreprocessReport& report);

}  // namespace pb
