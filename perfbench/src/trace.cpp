#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "util/simd.hpp"

namespace pb {

namespace {

int threadIndex() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

}  // namespace

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

void Recorder::add(const std::string& series, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[series].push_back(value);
}

std::vector<double> Recorder::series(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

void Recorder::span(const char* name, double t0, double t1) {
  const int tid = threadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back({name, tid, t0, t1});
}

std::map<std::string, double> Recorder::totalSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& s : log_) out[s.name] += s.t1 - s.t0;
  return out;
}

std::map<std::string, double> Recorder::selfSeconds() const {
  std::vector<SpanRec> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = log_;
  }
  // Per thread, sort by start (outer spans first on ties) and walk with a
  // stack of open spans: each span's duration is charged to itself and
  // subtracted from its innermost enclosing span.
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.t1 > b.t1;
  });
  std::map<std::string, double> self;
  std::vector<const SpanRec*> open;
  int tid = -1;
  for (const auto& s : spans) {
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty() && open.back()->t1 <= s.t0) open.pop_back();
    self[s.name] += s.t1 - s.t0;
    if (!open.empty()) self[open.back()->name] -= s.t1 - s.t0;
    open.push_back(&s);
  }
  return self;
}

bool Recorder::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  double origin = 0.0;
  if (!log_.empty()) {
    origin = log_.front().t0;
    for (const auto& s : log_) origin = std::min(origin, s.t0);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const auto& s : log_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  first ? "" : ",", s.name.c_str(), s.tid,
                  (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6);
    out << buf;
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double streamCopyGbs(std::size_t bytes, int threads, int reps) {
  const std::size_t n = bytes / sizeof(double);
  hemo::simd::AVector<double> a(n, 1.0);
  hemo::simd::AVector<double> b(n, 0.0);
  const auto pass = [&](bool timed) {
    std::vector<std::thread> pool;
    const double t0 = nowSeconds();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * static_cast<std::size_t>(t) /
                               static_cast<std::size_t>(threads);
        const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                               static_cast<std::size_t>(threads);
        // Slices start on 8-double boundaries so the NT stores stay
        // aligned.
        const std::size_t alo = lo & ~std::size_t{7};
        const std::size_t ahi = t + 1 == threads ? n : (hi & ~std::size_t{7});
        hemo::simd::copyDoubles(b.data() + alo, a.data() + alo, ahi - alo,
                                true);
        hemo::simd::storeFence();
      });
    }
    for (auto& th : pool) th.join();
    return timed ? nowSeconds() - t0 : 0.0;
  };
  pass(false);  // first touch + warm-up
  std::vector<double> gbs;
  for (int r = 0; r < reps; ++r) {
    const double dt = pass(true);
    gbs.push_back(2.0 * static_cast<double>(n) * 8.0 / dt / 1e9);
  }
  if (b[n / 2] != 1.0) return 0.0;  // the copy must have happened
  return median(gbs);
}

void Result::fail(const std::string& what, std::uint64_t ops) {
  failed += ops;
  if (failures.size() < 32) failures.push_back(what);
}

const std::vector<std::pair<const char*, const char*>>& endToEndCatalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"setup_s", "s"},           {"mlups", "MLUPS"},
      {"peak_rss_mb", "MB"},      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
  };
  return catalog;
}

const std::vector<std::pair<const char*, const char*>>& perLayerCatalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"geometry.read_s", "s"},
      {"partition.preprocess_s", "s"},
      {"partition.edge_cut", "count"},
      {"partition.imbalance", "ratio"},
      {"core.construct_s", "s"},
      {"core.step_report_ms_p50", "ms"},
      {"lb.steps", "count"},
      {"lb.step_ms_p50", "ms"},
      {"lb.step_ms_p90", "ms"},
      {"lb.collide_s", "s"},
      {"lb.stream_s", "s"},
      {"lb.roofline_frac", "ratio"},
      {"lb.mlups_1rank", "MLUPS"},
      {"util.stream_copy_gbs", "GB/s"},
      {"comm.halo_bytes_per_step", "B"},
      {"comm.halo_msgs_per_step", "count"},
      {"comm.wait_s", "s"},
      {"comm.wait_late_sender_frac", "ratio"},
      {"comm.hidden_frac", "ratio"},
      {"comm.parallel_eff", "ratio"},
      {"vis.extract_s", "s"},
      {"vis.filter_s", "s"},
      {"vis.map_s", "s"},
      {"vis.render_s", "s"},
      {"vis.render_step_ms_p50", "ms"},
      {"vis.renders", "count"},
      {"steer.ack_ms_p50", "ms"},
      {"steer.ack_ms_p90", "ms"},
      {"steer.commands", "count"},
      {"steer.rejects", "count"},
      {"steer.frames_checked", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.wire_bytes", "B"},
      {"serve.raw_bytes", "B"},
      {"serve.frames_sent", "count"},
      {"serve.frames_dropped", "count"},
      {"serve.levels_shed", "count"},
      {"relay.pump_ms_p50", "ms"},
      {"relay.frames_forwarded", "count"},
      {"relay.cache_replays", "count"},
      {"lb.checkpoint_write_ms_p50", "ms"},
      {"lb.checkpoint_mb", "MB"},
      {"lb.buddy_mirror_ms_p50", "ms"},
      {"core.migrate.count", "count"},
      {"core.migrate.sites_moved", "count"},
      {"comm.repart_bytes", "B"},
      {"lb.restore_buddy_ms_p50", "ms"},
      {"lb.restore_disk_ms_p50", "ms"},
      {"telemetry.trace_overhead_frac", "ratio"},
  };
  return catalog;
}

void printResult(const Options& opt, const Result& result) {
  const auto& metrics = opt.trace ? result.perLayer : result.endToEnd;
  // Human table first (name, value, unit, sample count), then the one
  // JSON line a caller parses, last on stdout.
  std::printf("# %s (seed %llu, %s run)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const auto& [name, m] : metrics) {
    std::printf("#   %-32s %14.6g %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const auto setup = Recorder::get().series("setup");
  std::printf("#   setup samples (s):");
  for (const double v : setup) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("#   operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const auto& f : result.failures) {
    std::printf("#   FAILED: %s\n", f.c_str());
  }
  const auto& catalog = opt.trace ? perLayerCatalog() : endToEndCatalog();
  for (const auto& [name, unit] : catalog) {
    if (metrics.find(name) == metrics.end()) {
      std::printf("#   FAILED: metric %s was not measured\n", name);
      std::fflush(stdout);
      std::exit(1);
    }
  }
  const bool correct = result.failed == 0 && result.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const Metric& m = metrics.at(name);
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name, v, unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pb
