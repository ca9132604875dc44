// perfbench: end-to-end benchmark of the in situ loop.
//
//   perfbench gen --workload W --seed N --inputs DIR [--smoke]
//       write the workload's geometry (.sgmy, shared by all seeds) and its
//       seeded scripts into DIR.
//   perfbench run --workload W --seed N --seconds T --trace 0|1
//                 --inputs DIR --work DIR [--smoke]
//       run the workload on the generated inputs. The last stdout line is
//       the JSON result; the exit code is non-zero when an output check
//       failed. Traced runs also write DIR/trace_<W>.json (Chrome trace);
//       --untraced-mlups X (the MLUPS of an untraced run of the same seed)
//       turns on telemetry.trace_overhead_frac.
//
// perfbench/run.py builds this program and drives both steps.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload W --seed N [--seconds T] "
               "[--trace 0|1] --inputs DIR [--work DIR] [--smoke]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  pb::Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(next().c_str());
    else if (a == "--trace") opt.trace = next() != "0";
    else if (a == "--inputs") opt.inputs = next();
    else if (a == "--work") opt.work = next();
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--untraced-mlups") opt.untracedMlups = std::atof(next().c_str());
    else usage();
  }
  if (opt.workload != "batch_large" && opt.workload != "insitu_steered" &&
      opt.workload != "restandup") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.inputs.empty() || opt.seconds <= 0.0) usage();
  hemo::setLogLevel(hemo::LogLevel::kError);
  try {
    if (mode == "gen") {
      pb::generateInputs(opt);
      return 0;
    }
    if (mode != "run" || opt.work.empty()) usage();
    std::filesystem::create_directories(opt.work);
    pb::Recorder::get().enableSpans(opt.trace);
    pb::Result result;
    if (opt.workload == "batch_large") result = pb::runBatchLarge(opt);
    else if (opt.workload == "insitu_steered") result = pb::runInsituSteered(opt);
    else result = pb::runRestandup(opt);
    if (opt.trace) {
      // Tracing overhead: this run's MLUPS against an untraced run of the
      // same seed and length (run.py makes that run first).
      if (opt.untracedMlups > 0.0) {
        result.layer("telemetry.trace_overhead_frac",
                     1.0 - result.endToEnd.at("mlups").value / opt.untracedMlups,
                     "ratio");
      }
      const std::string path = opt.work + "/trace_" + opt.workload + ".json";
      if (!pb::Recorder::get().writeChromeTrace(path)) {
        result.fail("cannot write " + path, 0);
      }
      std::printf("# self time per span (s), %s:\n", path.c_str());
      const auto total = pb::Recorder::get().totalSeconds();
      for (const auto& [name, self] : pb::Recorder::get().selfSeconds()) {
        std::printf("#   %-32s self %10.4f  total %10.4f\n", name.c_str(),
                    self, total.at(name));
      }
    }
    pb::printResult(opt, result);
    return result.failed == 0 && result.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
