#pragma once
/// \file bench.hpp
/// \brief Shared plumbing of the end-to-end benchmark: options, the span
/// recorder of traced runs, sample statistics and the result line.
///
/// Spans are recorded only by this benchmark's own files, around calls into
/// the library's public API. They live in memory and are written as one
/// Chrome-trace JSON document when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;         ///< tiny sizes: checks the code, not speed
  std::string inputs;         ///< directory holding the generated inputs
  std::string work;           ///< working directory (checkpoints, traces)
  double untracedMlups = 0.0; ///< traced runs: MLUPS of the untraced run
};

inline double nowSeconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// --- samples and spans -------------------------------------------------------

/// Named sample series (durations in seconds, or plain values) plus the span
/// log of traced runs. Thread-safe: rank threads and the load generator
/// record concurrently.
class Recorder {
 public:
  static Recorder& get();

  void enableSpans(bool on) { spans_ = on; }
  bool spansEnabled() const { return spans_; }

  void add(const std::string& series, double value);
  std::vector<double> series(const std::string& name) const;
  /// Span [t0, t1] (seconds on the steady clock) on the calling thread.
  void span(const char* name, double t0, double t1);
  /// Self time per span name: duration minus the part covered by nested
  /// spans of the same thread.
  std::map<std::string, double> selfSeconds() const;
  /// Total time per span name.
  std::map<std::string, double> totalSeconds() const;
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct SpanRec {
    std::string name;
    int tid;
    double t0, t1;
  };
  bool spans_ = false;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> series_;
  std::vector<SpanRec> log_;
};

/// RAII timer around one public call: adds the duration to `series` and, in
/// traced runs, records a span of the same name.
class Timed {
 public:
  explicit Timed(const char* name) : name_(name), t0_(nowSeconds()) {}
  ~Timed() { stop(); }
  double stop() {
    if (done_) return dt_;
    done_ = true;
    const double t1 = nowSeconds();
    dt_ = t1 - t0_;
    auto& r = Recorder::get();
    r.add(name_, dt_);
    if (r.spansEnabled()) r.span(name_, t0_, t1);
    return dt_;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  const char* name_;
  double t0_;
  double dt_ = 0.0;
  bool done_ = false;
};

// --- statistics ----------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty series.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set size of this process, MB.
double peakRssMb();

/// Multi-threaded STREAM-style copy bandwidth over two arrays of `bytes`
/// each, GB/s (read + write counted), median of `reps` passes.
double streamCopyGbs(std::size_t bytes, int threads, int reps);

// --- result line ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one workload run reports. `failures` lists one line per failed
/// check; the run exits non-zero when it is not empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;

  void fail(const std::string& what, std::uint64_t ops = 1);
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    endToEnd[name] = {value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 1) {
    perLayer[name] = {value, unit, samples};
  }
};

/// The end-to-end metrics every workload reports in its result line (the
/// workload-specific ones, such as frame_ms_p50, go to the table only).
const std::vector<std::pair<const char*, const char*>>& endToEndCatalog();

/// Every per-layer metric name with its unit; workloads that leave a layer
/// idle report it as measured (zero work).
const std::vector<std::pair<const char*, const char*>>& perLayerCatalog();

/// Print the human table (comment lines) and then the JSON result line,
/// last on stdout. Exits non-zero when a catalogue metric is missing.
void printResult(const Options& opt, const Result& result);

// --- workloads ------------------------------------------------------------------

void generateInputs(const Options& opt);
Result runBatchLarge(const Options& opt);
Result runInsituSteered(const Options& opt);
Result runRestandup(const Options& opt);

}  // namespace pb
