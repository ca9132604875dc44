#include <unistd.h>

#include <algorithm>

#include "bench.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "standup.hpp"

namespace pb {

using namespace hemo;

double oneRankMlups(const geometry::SparseLattice& lattice,
                    const lb::LbParams& params, double seconds) {
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lattice.numFluidSites(), 0);
  double mlups = 0.0;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(3);  // warm-up, first touch
    std::vector<double> perStep;
    const double t0 = nowSeconds();
    while (nowSeconds() - t0 < seconds || perStep.size() < 3) {
      Timed t("lb.step_1rank");
      solver.step();
      perStep.push_back(t.stop());
    }
    mlups = static_cast<double>(lattice.numFluidSites()) / median(perStep) /
            1e6;
  });
  return mlups;
}

void addMachineLayers(Result& r, const Options& opt,
                      const geometry::SparseLattice& lattice,
                      const lb::LbParams& params, int ranks,
                      double plainStepSeconds) {
  const double sites = static_cast<double>(lattice.numFluidSites());
  const double mlupsPlain =
      plainStepSeconds > 0.0 ? sites / plainStepSeconds / 1e6 : 0.0;
  const double mlups1 =
      oneRankMlups(lattice, params, opt.smoke ? 0.2 : std::min(3.0, opt.seconds / 3));
  r.layer("lb.mlups_1rank", mlups1, "MLUPS");
  r.layer("comm.parallel_eff",
          mlups1 > 0.0 ? mlupsPlain / (ranks * mlups1) : 0.0, "ratio");
  // STREAM copy over arrays of at least 4x the last-level cache each, on
  // as many threads as the workload runs ranks.
  long l3 = 0;
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  if (l3 <= 0) l3 = 32L << 20;
  const std::size_t bytes =
      opt.smoke ? (std::size_t{16} << 20) : static_cast<std::size_t>(4 * l3);
  double gbs = 0.0;
  {
    Timed t("util.stream_copy_probe");
    gbs = streamCopyGbs(bytes, ranks, opt.smoke ? 2 : 5);
  }
  r.layer("util.stream_copy_gbs", gbs, "GB/s");
  r.layer("lb.roofline_frac",
          gbs > 0.0 ? kBytesPerSite * mlupsPlain * 1e6 / (gbs * 1e9) : 0.0,
          "ratio");
}

void addSetupLayers(Result& r, const core::PreprocessReport& report) {
  const auto& rec = Recorder::get();
  const auto read = rec.series("geometry.read");
  const auto pre = rec.series("partition.preprocess");
  const auto construct = rec.series("core.construct");
  r.layer("geometry.read_s", median(read), "s", read.size());
  r.layer("partition.preprocess_s", median(pre), "s", pre.size());
  r.layer("core.construct_s", median(construct), "s", construct.size());
  r.layer("partition.edge_cut", static_cast<double>(report.metrics.edgeCut),
          "count");
  r.layer("partition.imbalance", report.metrics.imbalance, "ratio");
}

void ReportSum::add(const telemetry::StepReport& r) {
  sum.stepsCovered += r.stepsCovered;
  sum.collideSeconds += r.collideSeconds;
  sum.streamSeconds += r.streamSeconds;
  sum.waitMeasuredSeconds += r.waitMeasuredSeconds;
  sum.waitLateSenderSeconds += r.waitLateSenderSeconds;
  sum.waitLateReceiverSeconds += r.waitLateReceiverSeconds;
  sum.waitCollectiveSeconds += r.waitCollectiveSeconds;
  for (int c = 0; c < telemetry::kReportTrafficClasses; ++c) {
    sum.bytesSent[c] += r.bytesSent[c];
    sum.msgsSent[c] += r.msgsSent[c];
  }
  hiddenSum += r.commHiddenFraction;
  ++windows;
}

void ReportSum::emit(Result& r) const {
  const double steps = static_cast<double>(sum.stepsCovered);
  const int halo = static_cast<int>(comm::Traffic::kHalo);
  const double classified = sum.waitClassifiedSeconds();
  r.layer("lb.collide_s", sum.collideSeconds, "s", windows);
  r.layer("lb.stream_s", sum.streamSeconds, "s", windows);
  r.layer("comm.halo_bytes_per_step",
          steps > 0 ? static_cast<double>(sum.bytesSent[halo]) / steps : 0.0,
          "B", windows);
  r.layer("comm.halo_msgs_per_step",
          steps > 0 ? static_cast<double>(sum.msgsSent[halo]) / steps : 0.0,
          "count", windows);
  r.layer("comm.wait_s", sum.waitMeasuredSeconds, "s", windows);
  r.layer("comm.wait_late_sender_frac",
          classified > 0.0 ? sum.waitLateSenderSeconds / classified : 0.0,
          "ratio", windows);
  r.layer("comm.hidden_frac", windows > 0 ? hiddenSum / windows : 0.0, "ratio",
          windows);
}

void completePerLayer(Result& r) {
  for (const auto& [name, unit] : perLayerCatalog()) {
    if (r.perLayer.find(name) == r.perLayer.end()) r.layer(name, 0.0, unit, 0);
  }
}

}  // namespace pb
