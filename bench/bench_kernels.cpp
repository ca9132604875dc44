// Kernel microbenchmarks (google-benchmark): the per-operation costs that
// anchor the co-design performance model — LB step throughput (MLUPS),
// collision-operator and velocity-set variants, octree update, partitioner
// cost and voxelisation. These are the "busy seconds" inputs the postal
// model combines with the measured traffic.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>

#include "common.hpp"
#include "multires/octree.hpp"
#include "vis/volume.hpp"

namespace {

using namespace hemobench;

struct SerialSetup {
  geometry::SparseLattice lattice;
  partition::Partition part;

  explicit SerialSetup(double voxel) : lattice(makeTube(voxel, 6.0)) {
    part.numParts = 1;
    part.partOfSite.assign(lattice.numFluidSites(), 0);
  }
  explicit SerialSetup(geometry::SparseLattice lat) : lattice(std::move(lat)) {
    part.numParts = 1;
    part.partOfSite.assign(lattice.numFluidSites(), 0);
  }
};

template <typename Lattice>
void stepBench(benchmark::State& state, lb::LbParams params) {
  static SerialSetup setup(0.08);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::Solver<Lattice> solver(domain, comm, params);
    for (auto _ : state) {
      solver.step();
      benchmark::DoNotOptimize(solver.macro().rho.data());
    }
    state.counters["MLUPS"] = benchmark::Counter(
        static_cast<double>(setup.lattice.numFluidSites()) *
            static_cast<double>(state.iterations()) / 1e6,
        benchmark::Counter::kIsRate);
    state.counters["sites"] =
        static_cast<double>(setup.lattice.numFluidSites());
    state.counters["frontier"] =
        static_cast<double>(solver.reordering().numFrontier);
    state.counters["bulk"] = static_cast<double>(solver.reordering().numBulk());
  });
}

// Production (SIMD) vs reference three-phase kernel on the same geometry:
// compare the MLUPS counters to read the production kernel's speedup.
void BM_StepD3Q19Bgk(benchmark::State& state) {
  stepBench<lb::D3Q19>(state, flowParams());
}
BENCHMARK(BM_StepD3Q19Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19BgkReference(benchmark::State& state) {
  auto p = flowParams();
  p.kernel = lb::LbParams::Kernel::kReference;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19BgkReference)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19Trt(benchmark::State& state) {
  auto p = flowParams();
  p.collision = lb::LbParams::Collision::kTrt;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19Trt)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19TrtReference(benchmark::State& state) {
  auto p = flowParams();
  p.collision = lb::LbParams::Collision::kTrt;
  p.kernel = lb::LbParams::Kernel::kReference;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19TrtReference)->Unit(benchmark::kMillisecond);

void BM_StepD3Q15Bgk(benchmark::State& state) {
  stepBench<lb::D3Q15>(state, flowParams());
}
BENCHMARK(BM_StepD3Q15Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q27Bgk(benchmark::State& state) {
  stepBench<lb::D3Q27>(state, flowParams());
}
BENCHMARK(BM_StepD3Q27Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19WithStress(benchmark::State& state) {
  stepBench<lb::D3Q19>(state, flowParams(true));
}
BENCHMARK(BM_StepD3Q19WithStress)->Unit(benchmark::kMillisecond);

void BM_OctreeUpdate(benchmark::State& state) {
  static SerialSetup setup(0.15);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    (void)comm;
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    multires::FieldOctree tree(domain, static_cast<int>(state.range(0)));
    std::vector<double> scalar(domain.numOwned(), 1.0);
    std::vector<Vec3d> u(domain.numOwned(), Vec3d{0.01, 0, 0});
    for (auto _ : state) {
      tree.update(scalar, u);
      benchmark::DoNotOptimize(tree.level(0).data());
    }
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(domain.numOwned()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  });
}
BENCHMARK(BM_OctreeUpdate)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_PartitionKway(benchmark::State& state) {
  static SerialSetup setup(0.15);
  const auto graph = partition::buildSiteGraph(setup.lattice);
  partition::MultilevelKWayPartitioner kway;
  for (auto _ : state) {
    auto p = kway.partition(graph, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.partOfSite.data());
  }
}
BENCHMARK(BM_PartitionKway)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PartitionHilbert(benchmark::State& state) {
  static SerialSetup setup(0.15);
  const auto graph = partition::buildSiteGraph(setup.lattice);
  partition::HilbertPartitioner hilbert;
  for (auto _ : state) {
    auto p = hilbert.partition(graph, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.partOfSite.data());
  }
}
BENCHMARK(BM_PartitionHilbert)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Voxelize(benchmark::State& state) {
  const auto scene = geometry::makeAneurysmVessel(5.0, 1.0, 1.2);
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  for (auto _ : state) {
    auto lat = geometry::voxelize(scene, opt);
    benchmark::DoNotOptimize(lat.numFluidSites());
  }
}
BENCHMARK(BM_Voxelize)->Unit(benchmark::kMillisecond);

void BM_RenderLocal(benchmark::State& state) {
  static SerialSetup setup(0.15);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::SolverD3Q19 solver(domain, comm, flowParams());
    solver.run(20);
    vis::VolumeRenderOptions vro;
    vro.width = static_cast<int>(state.range(0));
    vro.height = vro.width;
    vro.camera.position = {3.0, 0.5, 7.0};
    vro.camera.target = {3.0, 0, 0};
    for (auto _ : state) {
      auto img = vis::renderLocal(domain, solver.macro(), vro);
      benchmark::DoNotOptimize(img.pixels().data());
    }
    state.counters["rays/s"] = benchmark::Counter(
        static_cast<double>(vro.width) * vro.height *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  });
}
BENCHMARK(BM_RenderLocal)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

/// One kernel variant's measured throughput plus, for the production
/// kernel, the sweep split of its best pass: wall ns per site of the even
/// and odd steps (frontier + bulk passes), and per parity the frontier
/// pass per frontier site and the bulk pass per bulk site.
struct KernelTiming {
  double mlups = 0.0;
  double sweepNs[2] = {0.0, 0.0};     ///< [even, odd] ns per site
  double frontierNs[2] = {0.0, 0.0};  ///< ns per frontier site
  double bulkNs[2] = {0.0, 0.0};      ///< ns per bulk site
};

/// Steps of each parity ([even, odd]) among `steps` steps starting at the
/// solver's current parity.
std::array<double, 2> stepsPerParity(bool oddFirst, int steps) {
  const int odd = oddFirst ? (steps + 1) / 2 : steps / 2;
  return {static_cast<double>(steps - odd), static_cast<double>(odd)};
}

/// Sweep split of `solver`'s timers over `perParity` steps of each parity.
template <typename Solver>
void readSweepSplit(const Solver& solver,
                    const std::array<double, 2>& perParity, KernelTiming& t) {
  const double sites = static_cast<double>(solver.domain().numOwned());
  const double nf = static_cast<double>(solver.reordering().numFrontier);
  const double nb = static_cast<double>(solver.reordering().numBulk());
  for (int p = 0; p < 2; ++p) {
    const double n = perParity[static_cast<std::size_t>(p)];
    if (n <= 0.0) continue;
    const double front = solver.frontierTimer(p).total() / n * 1e9;
    const double bulk = solver.bulkTimer(p).total() / n * 1e9;
    t.sweepNs[p] = sites > 0 ? (front + bulk) / sites : 0.0;
    t.frontierNs[p] = nf > 0 ? front / nf : 0.0;
    t.bulkNs[p] = nb > 0 ? bulk / nb : 0.0;
  }
}

// Direct MLUPS measurement of one kernel variant (independent of the
// google-benchmark timing machinery) for the machine-readable summary.
// `warmupSteps` run untimed first so the distribution slab is paged in,
// the reorder tables are cache-warm and the core is out of any low-power
// state before the clock starts — without it the first variant measured
// paid the cold-start cost and the rows were not comparable.
KernelTiming directMlups(const SerialSetup& setup, const lb::LbParams& params,
                         int steps, int warmupSteps) {
  KernelTiming best;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(warmupSteps);
    // Best of three timed passes: the rows report kernel capability, and
    // a single pass is at the mercy of transient co-tenant interference
    // on shared machines (memory-bandwidth steals skew the slower passes
    // far more than the CPU-time clock can correct for).
    for (int pass = 0; pass < 3; ++pass) {
      const auto perParity = stepsPerParity(solver.oddParity(), steps);
      solver.resetTimers();
      const double t0 = threadCpuSeconds();
      solver.run(steps);
      const double busy = threadCpuSeconds() - t0;
      const double passMlups =
          busy > 0.0 ? static_cast<double>(setup.lattice.numFluidSites()) *
                           static_cast<double>(steps) / busy / 1e6
                     : 0.0;
      if (passMlups > best.mlups) {
        best = KernelTiming{};
        best.mlups = passMlups;
        readSweepSplit(solver, perParity, best);
      }
    }
  });
  return best;
}

/// Multi-rank sweep split of the production kernel on `ranks` thread-ranks
/// (kway partition): the slowest rank's even/odd frontier and bulk ns per
/// site, and its halo pack time per step.
struct HaloSplit {
  KernelTiming timing;
  double packUsPerStep = 0.0;
  double frontierShare = 0.0;  ///< frontier sites / owned sites
};

HaloSplit haloSplit(const geometry::SparseLattice& lattice,
                    const lb::LbParams& params, int ranks, int steps) {
  const auto part = kwayPartition(lattice, ranks);
  HaloSplit out;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(10);
    const auto perParity = stepsPerParity(solver.oddParity(), steps);
    solver.resetTimers();
    solver.run(steps);
    KernelTiming t;
    readSweepSplit(solver, perParity, t);
    const double sweep = t.sweepNs[0] + t.sweepNs[1];
    // The slowest rank's numbers (its sweep gates every step).
    const auto all = comm.allgather(sweep);
    const int slowest = static_cast<int>(
        std::max_element(all.begin(), all.end()) - all.begin());
    if (comm.rank() == slowest) {
      out.timing = t;
      out.packUsPerStep = solver.packTimer().total() / steps * 1e6;
      out.frontierShare =
          static_cast<double>(solver.reordering().numFrontier) /
          static_cast<double>(std::max<std::size_t>(domain.numOwned(), 1));
    }
  });
  return out;
}

// STREAM-style roofline: time a pure copy between two buffers the size of
// the distribution slab (read + write of every population, the minimum
// memory traffic of one LB step). The measured bandwidth bounds what any
// layout/kernel can reach, so the report can state achieved-vs-attainable
// instead of a bare MLUPS.
double streamCopyGBps(std::size_t nDoubles, int reps) {
  simd::AVector<double> a(nDoubles, 1.0);
  simd::AVector<double> b(nDoubles, 0.0);
  simd::copyDoubles(b.data(), a.data(), nDoubles, true);  // warm up
  simd::storeFence();
  const double t0 = threadCpuSeconds();
  for (int r = 0; r < reps; ++r) {
    simd::copyDoubles(b.data(), a.data(), nDoubles, true);
    simd::storeFence();
    benchmark::DoNotOptimize(b.data());
  }
  const double busy = threadCpuSeconds() - t0;
  // Read + write: 2 bytes moved per byte of slab.
  return busy > 0.0 ? 2.0 * static_cast<double>(nDoubles) * 8.0 *
                          static_cast<double>(reps) / busy / 1e9
                    : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Machine-readable summary in the shared bench JSON schema.
  using namespace hemobench;
  SerialSetup setup(0.08);
  const int steps = 30;
  BenchReport report("kernels");
  report.setParam("geometry", "tube(voxel=0.08, length=6)");
  report.setParam("sites",
                  static_cast<std::int64_t>(setup.lattice.numFluidSites()));
  report.setParam("steps", static_cast<std::int64_t>(steps));

  report.setParam("simdBackend", simd::backendName());
  report.setParam("simdWidth", static_cast<std::int64_t>(simd::kWidth));

  auto reference = [](lb::LbParams p) {
    p.kernel = lb::LbParams::Kernel::kReference;
    return p;
  };
  auto trt = [](lb::LbParams p) {
    p.collision = lb::LbParams::Collision::kTrt;
    return p;
  };
  const struct {
    const char* label;
    lb::LbParams params;
  } configs[] = {
      {"d3q19-bgk", flowParams()},
      {"d3q19-trt", trt(flowParams())},
      {"d3q19-bgk-stress", flowParams(true)},
  };

  // Roofline: copy bandwidth over the same footprint as the distribution
  // slab, and the MLUPS that bandwidth could sustain at the step's
  // computed traffic. AA streaming reads and writes every population once
  // in place — the written lines were just read, so no write-allocate
  // traffic — 2 x 19 x 8 = 304 B/site of distributions, plus the rho/u
  // store. These byte counts are computed from the access pattern, not
  // measured.
  const std::size_t slabDoubles =
      setup.lattice.numFluidSites() * static_cast<std::size_t>(lb::D3Q19::kQ);
  const double gbps = streamCopyGBps(slabDoubles, 50);
  const double distBytesPerSite = 2.0 * lb::D3Q19::kQ * 8.0;
  const double bytesPerSite = distBytesPerSite + 4.0 * 8.0;
  const double attainable = gbps * 1e9 / bytesPerSite / 1e6;
  {
    auto& row = report.addRow("stream-copy-roofline");
    row.set("copyGBps", gbps);
    row.set("distBytesPerSiteComputed", distBytesPerSite);
    row.set("bytesPerSiteComputed", bytesPerSite);
    row.set("mlupsAttainable", attainable);
    std::printf(
        "%-22s %8.2f GB/s (attainable %.2f MLUPS at %.0f B/site computed: "
        "%.0f distributions + %.0f rho/u)\n",
        "stream-copy-roofline", gbps, attainable, bytesPerSite,
        distBytesPerSite, bytesPerSite - distBytesPerSite);
  }

  // One row per kernel and configuration: the production row carries its
  // speedup over the reference oracle on the same geometry.
  const auto addPair = [&](const std::string& label, const SerialSetup& geo,
                           const lb::LbParams& params, int warmupSteps) {
    const KernelTiming prodT = directMlups(geo, params, steps, warmupSteps);
    const double refMlups =
        directMlups(geo, reference(params), steps, warmupSteps).mlups;
    const auto sites = static_cast<std::uint64_t>(geo.lattice.numFluidSites());
    for (const bool prod : {true, false}) {
      const lb::LbParams p = prod ? params : reference(params);
      const double mlups = prod ? prodT.mlups : refMlups;
      const std::string name = label + "-" + p.kernelName();
      auto& row = report.addRow(name);
      row.set("mlups", mlups);
      row.set("kernel", p.kernelName());
      row.set("simdWidth",
              static_cast<std::uint64_t>(prod ? simd::kWidth : 1));
      row.set("sites", sites);
      row.set("bytesPerSiteComputed", bytesPerSite);
      row.set("distBytesPerSiteComputed", distBytesPerSite);
      if (attainable > 0.0) row.set("fractionOfRoofline", mlups / attainable);
      if (prod && refMlups > 0.0) row.set("vsReference", mlups / refMlups);
      std::printf("%-28s %8.2f MLUPS (%.0f%% of roofline at %.0f B/site "
                  "computed",
                  name.c_str(), mlups,
                  attainable > 0.0 ? 100.0 * mlups / attainable : 0.0,
                  bytesPerSite);
      if (prod && refMlups > 0.0) {
        std::printf(", %.2fx reference", mlups / refMlups);
      }
      std::printf(")\n");
      if (!prod) continue;
      row.set("evenSweepNsPerSite", prodT.sweepNs[0]);
      row.set("oddSweepNsPerSite", prodT.sweepNs[1]);
      row.set("evenFrontierNsPerSite", prodT.frontierNs[0]);
      row.set("evenBulkNsPerSite", prodT.bulkNs[0]);
      row.set("oddFrontierNsPerSite", prodT.frontierNs[1]);
      row.set("oddBulkNsPerSite", prodT.bulkNs[1]);
      std::printf("%-28s even %.1f ns/site (frontier %.1f, bulk %.1f), "
                  "odd %.1f ns/site (frontier %.1f, bulk %.1f)\n",
                  "", prodT.sweepNs[0], prodT.frontierNs[0], prodT.bulkNs[0],
                  prodT.sweepNs[1], prodT.frontierNs[1], prodT.bulkNs[1]);
    }
  };
  for (const auto& c : configs) addPair(c.label, setup, c.params, 10);

  // The same pair on a diameter-2 vessel: the thin tube above is ~22%
  // frontier sites, which over-weights boundary handling relative to the
  // production domains the layout targets — the wider vessel (~12%
  // frontier) is the bulk-dominated regime where the strip kernel's
  // advantage is representative.
  {
    geometry::VoxelizeOptions opt;
    opt.voxelSize = 0.08;
    SerialSetup thick(
        geometry::voxelize(geometry::makeStraightTube(6.0, 2.0), opt));
    addPair("d3q19-bgk-d2", thick, flowParams(), 5);

    // The same vessel on 4 thread-ranks: the frontier now includes the
    // rank boundaries, and the halo pack runs between the two passes.
    const int ranks = 4;
    const HaloSplit h = haloSplit(thick.lattice, flowParams(), ranks, steps);
    auto& row = report.addRow("d3q19-bgk-d2-4ranks-split");
    row.set("ranks", static_cast<std::uint64_t>(ranks));
    row.set("frontierShare", h.frontierShare);
    row.set("evenSweepNsPerSite", h.timing.sweepNs[0]);
    row.set("oddSweepNsPerSite", h.timing.sweepNs[1]);
    row.set("evenFrontierNsPerSite", h.timing.frontierNs[0]);
    row.set("evenBulkNsPerSite", h.timing.bulkNs[0]);
    row.set("oddFrontierNsPerSite", h.timing.frontierNs[1]);
    row.set("oddBulkNsPerSite", h.timing.bulkNs[1]);
    row.set("haloPackUsPerStep", h.packUsPerStep);
    std::printf("%-28s slowest rank (%.0f%% frontier): even %.1f ns/site "
                "(frontier %.1f, bulk %.1f), odd %.1f ns/site (frontier "
                "%.1f, bulk %.1f), halo pack %.1f us/step\n",
                "d3q19-bgk-d2-4ranks-split", 100.0 * h.frontierShare,
                h.timing.sweepNs[0], h.timing.frontierNs[0],
                h.timing.bulkNs[0], h.timing.sweepNs[1],
                h.timing.frontierNs[1], h.timing.bulkNs[1], h.packUsPerStep);
  }
  report.write();
  return 0;
}
