// Telemetry subsystem tests: histogram quantiles against an exact oracle,
// trace-ring semantics (overflow, concurrent drain), Chrome-trace export
// well-formedness (valid JSON, balanced B/E per tid), per-step report
// aggregation across ranks, and the instrumentation-overhead guard for the
// LB hot loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/perf_model.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/step_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace hemo::telemetry {
namespace {

// --- minimal JSON parser (validation + DOM) --------------------------------------
// Strict enough to catch the export bugs that matter: unbalanced braces,
// missing commas, unescaped strings, bare NaN/inf.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skipWs();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON error at ") +
                             std::to_string(pos_) + ": " + what);
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return {};
      default:
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(i)])) == 0) {
              fail("bad \\u escape");
            }
          }
          pos_ += 4;
          out.push_back('?');  // code point itself is irrelevant here
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad fraction");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad exponent");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  void literal(const char* lit) {
    for (; *lit != '\0'; ++lit) {
      if (pos_ >= s_.size() || s_[pos_] != *lit) fail("bad literal");
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

geometry::SparseLattice tube(double voxel, double length = 4.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

partition::Partition kway(const geometry::SparseLattice& lattice, int parts) {
  const auto graph = partition::buildSiteGraph(lattice);
  partition::MultilevelKWayPartitioner k;
  return k.partition(graph, parts);
}

lb::LbParams flowParams() {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  return p;
}

// --- histogram -------------------------------------------------------------------

TEST(LogHistogram, QuantilesMatchSortedOracle) {
  // Deterministic LCG over four decades of magnitude.
  std::uint64_t state = 12345;
  auto next = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ULL << 53);
  };
  LogHistogram h;
  std::vector<double> oracle;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-6 * std::pow(10.0, 4.0 * next());
    h.add(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  const double bound = h.relativeErrorBound();
  EXPECT_NEAR(bound, 0.0219, 0.001);  // sub = 16 buckets per octave
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const auto idx = static_cast<std::size_t>(std::min<double>(
        std::ceil(q * static_cast<double>(oracle.size())) - 1.0,
        static_cast<double>(oracle.size() - 1)));
    const double exact = oracle[std::max<std::size_t>(idx, 0)];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * (bound + 1e-9)) << "q=" << q;
  }
}

TEST(LogHistogram, ExactStatsAndBoundsAndReset) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.add(2.0);
  h.add(8.0);
  h.add(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_NEAR(h.mean(), 14.0 / 3.0, 1e-12);
  // Quantiles are clamped to the observed range whatever the bucket centre.
  EXPECT_GE(h.quantile(0.0), 2.0);
  EXPECT_LE(h.quantile(1.0), 8.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  h.add(1.0);
  EXPECT_EQ(h.count(), 1u);
}

// --- metrics registry ------------------------------------------------------------

TEST(MetricsRegistry, StableReferencesAndJson) {
  MetricsRegistry reg;
  Counter& steps = reg.counter("lb.steps");
  Gauge& mlups = reg.gauge("lb.mlups");
  LogHistogram& rtt = reg.histogram("steer.rtt_seconds");
  for (int i = 0; i < 100; ++i) reg.counter(std::to_string(i));  // churn
  steps.add(7);
  mlups.set(12.5);
  rtt.add(1e-3);
  EXPECT_EQ(reg.counter("lb.steps").value(), 7u);  // same node
  EXPECT_DOUBLE_EQ(reg.gauge("lb.mlups").value(), 12.5);

  const std::string json = reg.toJson();
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse()) << json;
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* lbSteps = counters->find("lb.steps");
  ASSERT_NE(lbSteps, nullptr);
  EXPECT_DOUBLE_EQ(lbSteps->number, 7.0);
  const auto* hist = doc.find("histograms");
  ASSERT_NE(hist, nullptr);
  const auto* h = hist->find("steer.rtt_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 1.0);

  reg.reset();
  EXPECT_EQ(steps.value(), 0u);  // cached reference still valid
  EXPECT_DOUBLE_EQ(mlups.value(), 0.0);
  EXPECT_EQ(rtt.count(), 0u);
}

// --- trace ring ------------------------------------------------------------------

TEST(TraceRing, OverflowDropsNewestAndCounts) {
  TraceRing ring(4);  // already a power of two
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    ring.push({i, "e", Category::kOther, SpanPhase::kBegin});
  }
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].tsNs, i);
  // Drained slots are reusable.
  EXPECT_TRUE(ring.push({9, "e", Category::kOther, SpanPhase::kEnd}));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].tsNs, 9);
}

TEST(TraceRing, ConcurrentProducerAndDrainer) {
  // One producer thread, one drainer thread, small ring: exercises the SPSC
  // protocol under contention (the TSan suite runs this binary too).
  TraceRing ring(64);
  constexpr std::uint64_t kPushes = 200000;
  std::vector<TraceEvent> drained;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPushes; ++i) {
      ring.push({static_cast<std::int64_t>(i), "p", Category::kCollide,
                 SpanPhase::kBegin});
    }
  });
  std::thread drainer([&] {
    while (drained.size() + ring.dropped() < kPushes) {
      ring.drain(drained);
    }
  });
  producer.join();
  drainer.join();
  ring.drain(drained);
  EXPECT_EQ(drained.size() + ring.dropped(), kPushes);
  // Delivered events arrive in push order.
  std::int64_t prev = -1;
  for (const auto& e : drained) {
    EXPECT_GT(e.tsNs, prev);
    prev = e.tsNs;
  }
}

// --- thread attachment + spans ---------------------------------------------------

TEST(Telemetry, SpansAreInertWithoutAttachmentAndRecordWithIt) {
  EXPECT_EQ(threadTelemetry(), nullptr);
  { HEMO_TSPAN(kVis, "unattached"); }  // must be a safe no-op

  RankTelemetry t(3);
  std::vector<TraceEvent> events;
  {
    ThreadTelemetryScope scope(&t);
    ASSERT_EQ(threadTelemetry(), &t);
    { HEMO_TSPAN(kCollide, "attached"); }
    t.tracer().setEnabled(false);
    { HEMO_TSPAN(kCollide, "disabled"); }
    t.tracer().setEnabled(true);
  }
  EXPECT_EQ(threadTelemetry(), nullptr);
  t.tracer().drain(events);
#ifndef HEMO_TELEMETRY_DISABLED
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "attached");
  EXPECT_EQ(static_cast<int>(events[0].phase),
            static_cast<int>(SpanPhase::kBegin));
  EXPECT_EQ(static_cast<int>(events[1].phase),
            static_cast<int>(SpanPhase::kEnd));
  EXPECT_GE(events[1].tsNs, events[0].tsNs);
#else
  EXPECT_TRUE(events.empty());
#endif
}

// --- chrome trace export ---------------------------------------------------------

/// Walk traceEvents checking the nesting discipline chrome://tracing
/// requires: per tid, "E" never without an open "B" and no "B" left open.
void expectBalanced(const JsonValue& doc) {
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(static_cast<int>(events->type),
            static_cast<int>(JsonValue::Type::kArray));
  std::map<int, int> depth;
  for (const auto& e : events->array) {
    const auto* ph = e.find("ph");
    const auto* tid = e.find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    const int t = static_cast<int>(tid->number);
    if (ph->string == "B") {
      ++depth[t];
    } else if (ph->string == "E") {
      --depth[t];
      EXPECT_GE(depth[t], 0) << "orphan E on tid " << t;
    }
  }
  for (const auto& [t, d] : depth) EXPECT_EQ(d, 0) << "unclosed B on tid " << t;
}

TEST(ChromeTrace, ExportIsValidJsonAndBalanced) {
  RankTrace r0;
  r0.rank = 0;
  r0.events = {
      {100, "step", Category::kStep, SpanPhase::kBegin},
      {110, "collide \"q\"\n", Category::kCollide, SpanPhase::kBegin},
      {150, "collide \"q\"\n", Category::kCollide, SpanPhase::kEnd},
      {190, "step", Category::kStep, SpanPhase::kEnd},
  };
  RankTrace r1;
  r1.rank = 1;
  r1.events = {
      // Orphan end (its begin was lost to ring overflow) + unclosed begin:
      // the exporter must repair both.
      {90, "lost", Category::kHaloSend, SpanPhase::kEnd},
      {120, "halo.send", Category::kHaloSend, SpanPhase::kBegin},
      {130, "vis.volume", Category::kVis, SpanPhase::kBegin},
  };
  r1.dropped = 3;

  const std::string json = chromeTraceJson({r0, r1});
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse()) << json;
  expectBalanced(doc);

  // Per-rank thread_name metadata and both tids present.
  const auto* events = doc.find("traceEvents");
  int metadata = 0;
  std::set<int> tids;
  for (const auto& e : events->array) {
    if (e.find("ph")->string == "M") ++metadata;
    tids.insert(static_cast<int>(e.find("tid")->number));
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(tids, (std::set<int>{0, 1}));
}

TEST(ChromeTrace, SolverRunProducesPerRankSpans) {
  const auto lattice = tube(0.18);
  const auto part = kway(lattice, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, flowParams());
    solver.run(5);
  });

  const auto traces = rt.drainTraces();
  ASSERT_EQ(traces.size(), 4u);
#ifndef HEMO_TELEMETRY_DISABLED
  for (const auto& t : traces) {
    bool collide = false, halo = false;
    for (const auto& e : t.events) {
      collide = collide || e.category == Category::kCollide;
      halo = halo || e.category == Category::kHaloSend;
    }
    EXPECT_TRUE(collide) << "rank " << t.rank;
    EXPECT_TRUE(halo) << "rank " << t.rank;
  }

  const std::string json = chromeTraceJson(traces);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse());
  expectBalanced(doc);
  std::set<int> tids;
  for (const auto& e : doc.find("traceEvents")->array) {
    tids.insert(static_cast<int>(e.find("tid")->number));
  }
  EXPECT_EQ(tids, (std::set<int>{0, 1, 2, 3}));

  // File export round-trips through the same renderer.
  const std::string path = ::testing::TempDir() + "hemo_trace_test.json";
  EXPECT_TRUE(writeChromeTrace(path, traces));
  std::remove(path.c_str());
#endif
}

// --- step report -----------------------------------------------------------------

TEST(StepReport, AggregationMath) {
  std::vector<StepReport> perRank(4);
  for (std::size_t r = 0; r < perRank.size(); ++r) {
    auto& rep = perRank[r];
    rep.step = 100;
    rep.sites = 1000;
    rep.stepsCovered = 50;
    rep.wallSeconds = 1.0 + 0.1 * static_cast<double>(r);
    rep.collideSeconds = 0.5;
    rep.streamSeconds = r == 3 ? 0.9 : 0.5;  // rank 3 is the straggler
    rep.commHiddenFraction = 0.5;
    rep.bytesSent[1] = 100;  // halo
    rep.msgsSent[1] = 10;
  }
  const auto agg = aggregateStepReports(perRank);
  EXPECT_EQ(agg.ranks, 4u);
  EXPECT_EQ(agg.sites, 4000u);
  EXPECT_EQ(agg.stepsCovered, 50u);
  EXPECT_DOUBLE_EQ(agg.wallSeconds, 1.3);
  EXPECT_EQ(agg.bytesSent[1], 400u);
  EXPECT_EQ(agg.msgsSent[1], 40u);
  // Imbalance: busy max 1.4, busy mean (3*1.0 + 1.4)/4 = 1.1.
  EXPECT_NEAR(agg.loadImbalance, 1.4 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(agg.commHiddenFraction, 0.5);
  EXPECT_NEAR(agg.mlups, 4000.0 * 50.0 / 1.3 / 1e6, 1e-12);
  EXPECT_EQ(aggregateStepReports({}).ranks, 1u);  // empty → default report
}

TEST(StepReport, AllgatherAggregationIsIdenticalEverywhere) {
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    StepReport local;
    local.step = 10;
    local.sites = 100 + static_cast<std::uint64_t>(comm.rank());
    local.stepsCovered = 10;
    local.collideSeconds = 1.0;
    local.streamSeconds = 0.5;
    local.wallSeconds = 2.0;
    local.bytesSent[1] = static_cast<std::uint64_t>(comm.rank()) * 10;
    const auto agg = aggregateStepReports(comm.allgather(local));
    EXPECT_EQ(agg.ranks, 4u);
    EXPECT_EQ(agg.sites, 406u);
    EXPECT_EQ(agg.bytesSent[1], 60u);
    EXPECT_NEAR(agg.loadImbalance, 1.0, 1e-12);
  });
}

TEST(StepReport, DriverWindowsFeedThePerfModel) {
  const auto lattice = tube(0.2);
  const auto part = kway(lattice, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    core::DriverConfig dcfg;
    dcfg.lb = flowParams();
    dcfg.computeWss = false;  // keep the driver lean: no stress tensors
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    core::SimulationDriver driver(domain, comm, dcfg);
    driver.run(20);
    const auto report = driver.computeStepReport();
    EXPECT_EQ(report.ranks, 2u);
    EXPECT_EQ(report.sites, lattice.numFluidSites());
    EXPECT_EQ(report.stepsCovered, 20u);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_GT(report.mlups, 0.0);
    EXPECT_GE(report.loadImbalance, 1.0);
    // Halo traffic of the window landed in the report.
    EXPECT_GT(report.bytesSent[static_cast<int>(comm::Traffic::kHalo)], 0u);
    EXPECT_EQ(driver.lastStepReport().stepsCovered, 20u);
    // The report feeds the postal model directly.
    const auto cost = core::rankCostFromReport(report);
    EXPECT_GT(cost.busySeconds, 0.0);
    EXPECT_GT(cost.bytes, 0u);

    // A second window starts empty: its stepsCovered counts only new steps.
    driver.run(5);
    const auto second = driver.computeStepReport();
    EXPECT_EQ(second.stepsCovered, 5u);
  });
}

// --- timer misuse guard ----------------------------------------------------------

TEST(PhaseTimerGuard, MisuseThrowsAndRunningReports) {
  PhaseTimer t;
  EXPECT_FALSE(t.running());
  EXPECT_THROW(t.stop(), CheckError);
  t.start();
  EXPECT_TRUE(t.running());
  EXPECT_THROW(t.start(), CheckError);
  t.stop();
  EXPECT_FALSE(t.running());
  EXPECT_GE(t.total(), 0.0);
  t.start();
  t.reset();  // reset clears the running flag
  EXPECT_FALSE(t.running());

  WallPhaseTimer w;
  EXPECT_THROW(w.stop(), CheckError);
  w.start();
  EXPECT_THROW(w.start(), CheckError);
  w.stop();
  EXPECT_FALSE(w.running());
}

// --- overhead guard --------------------------------------------------------------

#ifndef HEMO_TELEMETRY_DISABLED
double kernelMlups(const geometry::SparseLattice& lattice,
                   const partition::Partition& part, bool traceOn, int steps) {
  double busy = 0.0;
  comm::Runtime rt(1);
  rt.telemetry(0).tracer().setEnabled(traceOn);
  // The wait-state recorder hooks the same hot recv path as the tracer;
  // the overhead budget must cover both or it measures the wrong thing.
  rt.telemetry(0).waitState().setEnabled(traceOn);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, 0);
    lb::SolverD3Q19 solver(domain, comm, flowParams());
    solver.run(3);  // warm up
    const double t0 = threadCpuSeconds();
    solver.run(steps);
    busy = threadCpuSeconds() - t0;
  });
  return busy > 0.0 ? static_cast<double>(lattice.numFluidSites()) *
                          static_cast<double>(steps) / busy / 1e6
                    : 0.0;
}

double medianOf3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

TEST(Telemetry, HotLoopOverheadStaysWithinBudget) {
  // The ISSUE budget: instrumented MLUPS within 2% of the uninstrumented
  // build. The in-binary proxy compares instrumented (tracer + wait-state
  // recorder) against disabled runs (the compiled-out baseline plus one
  // relaxed load per hook). Max-of-N is biased by a single lucky
  // uninstrumented trial, so each attempt compares interleaved
  // median-of-3 throughputs; retries ride out scheduler noise on shared
  // machines.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "timing budget not meaningful under sanitizer slowdown";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "timing budget not meaningful under sanitizer slowdown";
#endif
#endif
  const auto lattice = tube(0.12, 4.0);
  const auto part = kway(lattice, 1);
  const int steps = 30;
  constexpr double kRelativeBudget = 0.02;  // instrumented within 2% of off
  double bestRatio = 0.0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    double on[3] = {}, off[3] = {};
    for (int trial = 0; trial < 3; ++trial) {
      off[trial] = kernelMlups(lattice, part, false, steps);
      on[trial] = kernelMlups(lattice, part, true, steps);
    }
    const double offMedian = medianOf3(off[0], off[1], off[2]);
    const double onMedian = medianOf3(on[0], on[1], on[2]);
    ASSERT_GT(offMedian, 0.0);
    bestRatio = std::max(bestRatio, onMedian / offMedian);
    if (bestRatio >= 1.0 - kRelativeBudget) break;
  }
  EXPECT_GE(bestRatio, 1.0 - kRelativeBudget)
      << "instrumentation overhead above the 2% MLUPS budget";
}
#endif

}  // namespace
}  // namespace hemo::telemetry
