#pragma once
/// \file common.hpp
/// \brief Shared helpers for the paper-reproduction benchmarks: standard
/// workload geometries, a developed-flow setup, busy-time collection and
/// table printing. Every bench prints the measured table for its paper
/// anchor (see DESIGN.md §4) and exits; absolute numbers are machine
/// dependent, shapes are the reproduction target.

#include <unistd.h>

#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/perf_model.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace hemobench {

using namespace hemo;

inline geometry::SparseLattice makeAneurysm(double voxel = 0.2) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.2), opt);
}

inline geometry::SparseLattice makeTube(double voxel = 0.2,
                                        double length = 6.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

inline geometry::SparseLattice makeBifurc(double voxel = 0.2) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(
      geometry::makeBifurcation(4.0, 1.0, 4.0, 0.75, 0.5), opt);
}

inline partition::Partition kwayPartition(
    const geometry::SparseLattice& lattice, int parts) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner kway;
  return kway.partition(graph, parts);
}

/// Default solver parameters producing a developed low-Mach flow.
inline lb::LbParams flowParams(bool stress = false) {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  p.computeStress = stress;
  return p;
}

/// Per-rank cost sample of one measured phase.
struct PhaseSample {
  double busySeconds = 0.0;
  std::uint64_t bytes = 0;      ///< sent, all classes, during the phase
  std::uint64_t messages = 0;   ///< sent, all classes, during the phase
  std::uint64_t recvBytes = 0;  ///< received during the phase
};

/// Aggregate of a phase across ranks.
struct PhaseSummary {
  int ranks = 0;
  double maxBusy = 0.0;
  double sumBusy = 0.0;
  double imbalance = 1.0;  ///< busy-time max/mean
  std::uint64_t totalBytes = 0;
  std::uint64_t totalMessages = 0;
  std::uint64_t maxRankBytes = 0;
  std::uint64_t maxRankMessages = 0;
  std::uint64_t maxRankRecvBytes = 0;

  core::RankCost maxRankCost() const {
    return {maxBusy, maxRankMessages, maxRankBytes};
  }

  /// Modeled parallel seconds under the postal model.
  double modeledSeconds(const core::CostModel& model = {}) const {
    return core::modeledParallelSeconds(
        {core::RankCost{maxBusy, maxRankMessages, maxRankBytes}}, model);
  }
};

/// Collective: merge every rank's PhaseSample. Identical result everywhere.
inline PhaseSummary summarizePhase(comm::Communicator& comm,
                                   const PhaseSample& mine) {
  PhaseSummary s;
  s.ranks = comm.size();
  const auto busies = comm.allgather(mine.busySeconds);
  for (const double b : busies) {
    s.maxBusy = std::max(s.maxBusy, b);
    s.sumBusy += b;
  }
  s.imbalance = s.sumBusy > 0.0
                    ? s.maxBusy * static_cast<double>(s.ranks) / s.sumBusy
                    : 1.0;
  s.totalBytes = comm.allreduceSum(mine.bytes);
  s.totalMessages = comm.allreduceSum(mine.messages);
  s.maxRankBytes = comm.allreduceMax(mine.bytes);
  s.maxRankMessages = comm.allreduceMax(mine.messages);
  s.maxRankRecvBytes = comm.allreduceMax(mine.recvBytes);
  return s;
}

/// Measure `phase` on this rank: busy CPU seconds + traffic delta.
inline PhaseSample measurePhase(comm::Communicator& comm,
                                const std::function<void()>& phase) {
  const auto before = comm.counters().total();
  const double cpu0 = threadCpuSeconds();
  phase();
  const double cpu1 = threadCpuSeconds();
  const auto after = comm.counters().total();
  return {cpu1 - cpu0, after.bytesSent - before.bytesSent,
          after.messagesSent - before.messagesSent,
          after.bytesReceived - before.bytesReceived};
}

inline void printHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// --- machine-readable bench output ------------------------------------------

/// Shared JSON emitter: every bench serialises the same envelope
/// (machine name, git revision, run parameters, scalar metrics, labelled
/// result rows) to BENCH_<name>.json, so runs on different machines or
/// commits diff cleanly. All values are stored as rendered JSON literals;
/// the set*/add* helpers do the quoting.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void setParam(const std::string& key, const std::string& v) {
    params_.emplace_back(key, quote(v));
  }
  void setParam(const std::string& key, double v) {
    params_.emplace_back(key, num(v));
  }
  void setParam(const std::string& key, std::int64_t v) {
    params_.emplace_back(key, std::to_string(v));
  }

  void setMetric(const std::string& key, double v) {
    metrics_.emplace_back(key, num(v));
  }
  void setMetric(const std::string& key, std::uint64_t v) {
    metrics_.emplace_back(key, std::to_string(v));
  }

  /// One labelled result row (a table line: a scale point, a technique...).
  class Row {
   public:
    explicit Row(std::string label) : label_(std::move(label)) {}
    void set(const std::string& key, double v) {
      fields_.emplace_back(key, num(v));
    }
    void set(const std::string& key, std::uint64_t v) {
      fields_.emplace_back(key, std::to_string(v));
    }
    void set(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, quote(v));
    }

   private:
    friend class BenchReport;
    std::string label_;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& addRow(const std::string& label) {
    rows_.emplace_back(label);
    return rows_.back();
  }

  /// Write BENCH_<name>.json into the working directory; false on failure.
  bool write() const { return writeTo("BENCH_" + name_ + ".json"); }

  bool writeTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = toJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    const bool closed = std::fclose(f) == 0;
    if (ok && closed) std::printf("wrote %s\n", path.c_str());
    return ok && closed;
  }

  std::string toJson() const {
    std::string out = "{\n  \"bench\": " + quote(name_) +
                      ",\n  \"machine\": " + quote(machineName()) +
                      ",\n  \"gitRev\": " + quote(gitRevision()) +
                      ",\n  \"params\": " + object(params_) +
                      ",\n  \"metrics\": " + object(metrics_) +
                      ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      auto fields = rows_[i].fields_;
      fields.insert(fields.begin(), {"label", quote(rows_[i].label_)});
      out += (i == 0 ? "\n    " : ",\n    ") + object(fields);
    }
    out += "\n  ]\n}\n";
    return out;
  }

  static std::string machineName() {
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) != 0) return "unknown";
    return host[0] != '\0' ? host : "unknown";
  }

  /// Source revision baked in when the bench build was configured
  /// (bench/CMakeLists.txt), so reports name it wherever the binary runs.
  static std::string gitRevision() { return HEMO_GIT_REV; }

 private:
  static std::string num(double v) {
    if (v != v || v - v != 0.0) return "0";  // NaN / inf are not JSON
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    out.push_back('"');
    return out;
  }

  static std::string object(
      const std::vector<std::pair<std::string, std::string>>& kv) {
    std::string out = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      out += (i == 0 ? "" : ", ") + quote(kv[i].first) + ": " + kv[i].second;
    }
    out += "}";
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::deque<Row> rows_;  // stable references across addRow() calls
};

}  // namespace hemobench
