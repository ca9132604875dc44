// insitu_steered: the paper's Fig 2 loop on a ~75k-site, L3-resident
// aneurysm. Three rank threads run the driver in broker mode: 400x300
// volume render with 24 streamlines and WSS whenever an image subscription
// is due (cadence 10), status and telemetry every 25 steps. One
// load-generator thread plays every client: a closed-loop steering session
// (send a scripted command, wait for its ack or reject, wait for the next
// frame, send the next), passive subscribers on raw, RLE and progressive
// codecs, and the relay the progressive ones hang off. vis, multires,
// serve, steer and relay carry the run; lb carries little.

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "relay/relay.hpp"
#include "serve/client.hpp"
#include "standup.hpp"
#include "vis/streamlines.hpp"

namespace pb {

using namespace hemo;

namespace {

constexpr int kImageCadence = 10;
constexpr int kStatusCadence = 25;
constexpr int kWindow = 50;  ///< steps of one MLUPS window (lcm of the two)
constexpr double kRoundTripTimeout = 10.0;

bool isImage(steer::MsgType t) {
  return t == steer::MsgType::kImageFrame || t == steer::MsgType::kCodedImage;
}

/// Everything the load-generator thread owns. Connections are made before
/// the ranks start serving (the broker's admission rule); afterwards only
/// the load generator touches these objects.
class LoadGenerator {
 public:
  LoadGenerator(serve::SessionBroker& broker, const InsituScript& script,
                std::size_t outbox)
      : script_(script),
        steer_(broker.connect()),
        relay_(broker.connect(), relayConfig(outbox)) {
    serve::CodecConfig progressive;
    progressive.progressive = true;
    progressive.rleImage = true;
    relay_.start(progressive);
    steer_.subscribe(serve::StreamKind::kImage, kImageCadence);
    for (const int codec : script.subscriberCodecs) {
      Passive p{serve::ServeClient(codec == 2 ? relay_.connect()
                                              : broker.connect()),
                codec};
      if (codec == 1) {
        serve::CodecConfig rle;
        rle.rleImage = true;
        p.client.setCodec(rle);
      }
      p.client.subscribe(serve::StreamKind::kImage, kImageCadence);
      p.client.subscribe(serve::StreamKind::kStatus, kStatusCadence);
      p.client.subscribe(serve::StreamKind::kTelemetry, kStatusCadence);
      passive_.push_back(std::move(p));
    }
  }

  ~LoadGenerator() { stop(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start() {
    thread_ = std::thread([this] {
      try {
        loop();
      } catch (const std::exception& e) {
        fail(std::string("load generator: ") + e.what());
      }
    });
  }
  /// Begin / end the closed steering loop (the timed window).
  void startSteering() { steering_.store(true); }
  void stopSteering() { steering_.store(false); }
  /// True once every stream delivered at least one frame (warm-up done).
  bool warm() const { return warm_.load(); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Results (read after stop()).
  std::vector<double> ackMs, frameMs;
  std::uint64_t commands = 0, rejects = 0, roundTrips = 0, framesChecked = 0;
  std::vector<std::string> failures;
  relay::RelayStats relayStats;

 private:
  struct Passive {
    serve::ServeClient client;
    int codec;
    std::uint64_t images = 0;
  };

  static relay::RelayConfig relayConfig(std::size_t outbox) {
    relay::RelayConfig c;
    c.outboxCapacity = outbox;
    c.creditWindow = static_cast<std::uint32_t>(outbox);
    return c;
  }

  void fail(const std::string& what) {
    if (failures.size() < 1000) failures.push_back(what);
  }

  /// Compare a decoded frame with the raw frame of the same step (kept
  /// from the steering session's raw stream); park it until that arrives.
  void check(std::uint64_t step, std::vector<std::uint8_t> rgb, int codec) {
    const auto it = raw_.find(step);
    if (it == raw_.end()) {
      pending_.emplace(step, std::make_pair(codec, std::move(rgb)));
      return;
    }
    ++framesChecked;
    if (it->second != rgb) {
      fail("codec " + std::to_string(codec) + " frame at step " +
           std::to_string(step) + " differs from the raw frame");
    }
  }

  void onRaw(const steer::ImageFrame& frame) {
    raw_[frame.step] = frame.rgb;
    auto range = pending_.equal_range(frame.step);
    for (auto it = range.first; it != range.second; ++it) {
      ++framesChecked;
      if (it->second.second != frame.rgb) {
        fail("codec " + std::to_string(it->second.first) + " frame at step " +
             std::to_string(frame.step) + " differs from the raw frame");
      }
    }
    pending_.erase(range.first, range.second);
    // Bounded retention: frames more than 40 renders old are settled.
    const std::uint64_t horizon = 40 * kImageCadence;
    while (!raw_.empty() && raw_.begin()->first + horizon < frame.step) {
      raw_.erase(raw_.begin());
    }
    while (!pending_.empty() && pending_.begin()->first + horizon < frame.step) {
      fail("frame at step " + std::to_string(pending_.begin()->first) +
           " never matched a raw frame");
      pending_.erase(pending_.begin());
    }
  }

  int pollPassive() {
    int events = 0;
    for (auto& p : passive_) {
      while (auto ev = p.client.pollEvent()) {
        ++events;
        if (isImage(ev->type)) {
          ++p.images;
          check(ev->image.step, std::move(ev->image.rgb), p.codec);
        } else if (ev->type == steer::MsgType::kProgressiveImage) {
          const auto& assembler = p.client.progressive();
          if (ev->progressiveReady && assembler.complete()) {
            ++p.images;
            check(assembler.step(), std::move(ev->image.rgb), p.codec);
          }
        }
      }
    }
    return events;
  }

  int pollSteering() {
    int events = 0;
    const double now = nowSeconds();
    if (state_ == State::kIdle && steering_.load() &&
        next_ < script_.steps.size()) {
      const auto& st = script_.steps[next_];
      sentAt_ = now;
      pendingId_ = steer_.send(st.cmd);
      ++commands;
      state_ = State::kAwaitResponse;
    }
    while (auto ev = steer_.pollEvent()) {
      ++events;
      const auto& expect = script_.steps[next_ < script_.steps.size()
                                             ? next_
                                             : script_.steps.size() - 1]
                               .expect;
      if (isImage(ev->type)) {
        onRaw(ev->image);
        if (state_ == State::kAwaitFrame) {
          frameMs.push_back(1e3 * (nowSeconds() - sentAt_));
          ++roundTrips;
          ++next_;
          state_ = State::kIdle;
        }
      } else if (state_ == State::kAwaitResponse &&
                 ev->type == steer::MsgType::kAck && ev->ackId == pendingId_) {
        ackMs.push_back(1e3 * (nowSeconds() - sentAt_));
        if (expect != steer::RejectReason::kNone) {
          fail("command " + std::to_string(next_) + " acked, expected " +
               steer::rejectReasonName(expect));
        }
        state_ = State::kAwaitFrame;
      } else if (state_ == State::kAwaitResponse &&
                 ev->type == steer::MsgType::kReject &&
                 ev->rejectId == pendingId_) {
        ackMs.push_back(1e3 * (nowSeconds() - sentAt_));
        ++rejects;
        if (ev->rejectReason != expect) {
          fail("command " + std::to_string(next_) + " rejected as " +
               steer::rejectReasonName(ev->rejectReason) + ", expected " +
               steer::rejectReasonName(expect));
        }
        state_ = State::kAwaitFrame;
      } else if (ev->type == steer::MsgType::kReject ||
                 ev->type == steer::MsgType::kRejectedAfterRollback) {
        fail("unexpected reject of command id " +
             std::to_string(ev->rejectId));
      }
    }
    if (state_ != State::kIdle && nowSeconds() - sentAt_ > kRoundTripTimeout) {
      fail("steering round trip " + std::to_string(next_) + " timed out");
      ++next_;
      state_ = State::kIdle;
    }
    return events;
  }

  void loop() {
    while (!stop_.load()) {
      int work = 0;
      {
        // Pumps that found nothing to forward are not samples.
        const double t0 = nowSeconds();
        const int forwarded = relay_.pump();
        if (forwarded > 0) {
          const double t1 = nowSeconds();
          Recorder::get().add("relay.pump", t1 - t0);
          if (Recorder::get().spansEnabled()) {
            Recorder::get().span("relay.pump", t0, t1);
          }
        }
        work += forwarded;
      }
      work += pollPassive();
      work += pollSteering();
      if (!warm_.load()) {
        bool all = !raw_.empty();
        for (const auto& p : passive_) all = all && p.images > 0;
        warm_.store(all);
      }
      // Never spin: a load generator that busy-polls steals a core from
      // the ranks and spreads MLUPS run to run.
      if (work == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Drain the tail the ranks produced before they stopped.
    relay_.pump();
    pollPassive();
    pollSteering();
    relayStats = relay_.stats();
    relay_.shutdown(/*drain=*/true);
    for (auto& p : passive_) {
      if (p.client.corruptFramesSkipped() > 0) {
        fail(std::to_string(p.client.corruptFramesSkipped()) +
             " frames failed to decode (codec " + std::to_string(p.codec) +
             ")");
      }
    }
    if (steer_.corruptFramesSkipped() > 0) {
      fail("steering session: frames failed to decode");
    }
  }

  enum class State { kIdle, kAwaitResponse, kAwaitFrame };

  const InsituScript& script_;
  serve::ServeClient steer_;
  relay::RelayNode relay_;
  std::vector<Passive> passive_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> raw_;
  std::multimap<std::uint64_t, std::pair<int, std::vector<std::uint8_t>>>
      pending_;
  State state_ = State::kIdle;
  std::size_t next_ = 0;
  std::uint32_t pendingId_ = 0;
  double sentAt_ = 0.0;
  std::atomic<bool> stop_{false}, steering_{false}, warm_{false};
  std::thread thread_;
};

}  // namespace

Result runInsituSteered(const Options& opt) {
  const int ranks = 3;
  const int reps = opt.smoke ? 1 : 5;
  const std::size_t outbox = 4096;  // no outbox may drop a frame
  Result r;
  const auto script =
      readInsituScript(scriptPath(opt.inputs, opt.workload, opt.seed, opt.smoke));
  const std::string geo = geometryPath(opt.inputs, opt.workload, opt.smoke);

  core::DriverConfig cfg;
  cfg.lb.tau = 0.8;
  cfg.lb.computeStress = true;
  cfg.computeWss = true;
  cfg.visEvery = 0;  // renders follow the image subscriptions
  cfg.statusEvery = kStatusCadence;
  cfg.adaptiveVisBudget = 0.0;
  cfg.repartition.repartitionEvery = 0;
  cfg.render.width = 400;
  cfg.render.height = 300;
  cfg.render.camera.position = {3.0, 1.2, 8.5};
  cfg.render.camera.target = {3.0, 0.8, 0.0};
  cfg.render.transfer = vis::TransferFunction::bloodFlow(0.f, 0.02f);
  cfg.streamSeeds = vis::discSeeds({0.3, 0, 0}, {1, 0, 0}, 0.8, 24);

  serve::BrokerConfig bcfg;
  bcfg.outboxCapacity = outbox;
  serve::SessionBroker broker(bcfg);
  LoadGenerator gen(broker, script, outbox);

  std::uint64_t steps = 0, sites = 0, renders = 0;
  double wall = 0.0;
  std::vector<double> windowMlups;
  ReportSum reports;
  double stage[4] = {0, 0, 0, 0};
  std::optional<core::PreprocessReport> report;

  const auto configure = [](comm::Communicator&, core::SimulationDriver& d) {
    d.solver().setIoletDensity(0, 1.004);
    d.solver().setIoletDensity(1, 0.996);
  };
  standUpAndRun(
      geo, ranks, reps, cfg, &broker, configure,
      [&](comm::Communicator& comm, const StandUp& s,
          core::SimulationDriver& driver) {
        if (comm.rank() == 0) gen.start();
        // Warm-up: run until every subscriber has seen a frame, and at
        // least a few renders, before the clock starts.
        int warmSteps = 0;
        for (;;) {
          driver.run(kImageCadence);
          warmSteps += kImageCadence;
          std::uint8_t ready =
              comm.rank() == 0 && gen.warm() && warmSteps >= 5 * kImageCadence;
          comm.bcast(ready, 0);
          if (ready) break;
        }
        double stage0[4];
        for (int i = 0; i < 4; ++i) stage0[i] = driver.pipeline().stageSeconds(i);
        const auto renders0 = driver.renderStage().rendersDone();
        const auto step0 = driver.solver().stepsDone();
        comm.barrier();
        if (comm.rank() == 0) gen.startSteering();
        // Windows of 50 steps hold the same work: 5 renders, 2 status and
        // telemetry rounds. MLUPS is the median over windows.
        const double t0 = nowSeconds();
        do {
          const double w0 = nowSeconds();
          if (opt.trace) {
            for (int i = 0; i < kWindow; ++i) {
              const auto next = driver.solver().stepsDone() + 1;
              const char* name = next % kImageCadence == 0 ? "vis.render_step"
                                 : next % kStatusCadence == 0 ? "core.status_step"
                                                              : "lb.step";
              {
                std::optional<Timed> t;
                if (comm.rank() == 0) t.emplace(name);
                driver.run(1);
              }
              // Status rounds close a StepReport window of their own.
              if (comm.rank() == 0 && next % kStatusCadence == 0) {
                reports.add(driver.lastStepReport());
              }
            }
            std::optional<Timed> t;
            if (comm.rank() == 0) t.emplace("core.step_report");
            const auto rep = driver.computeStepReport();
            if (comm.rank() == 0) reports.add(rep);
          } else {
            driver.run(kWindow);
          }
          if (comm.rank() == 0) {
            windowMlups.push_back(
                static_cast<double>(s.lattice->numFluidSites() * kWindow) /
                (nowSeconds() - w0) / 1e6);
          }
        } while (!timeUp(comm, t0, opt.seconds));
        if (comm.rank() == 0) {
          wall = nowSeconds() - t0;
          gen.stopSteering();
          steps = driver.solver().stepsDone() - step0;
          sites = s.lattice->numFluidSites();
          renders = driver.renderStage().rendersDone() - renders0;
          for (int i = 0; i < 4; ++i) {
            stage[i] = driver.pipeline().stageSeconds(i) - stage0[i];
          }
          report = s.report;
        }
        // Let the last frames reach the clients before the ranks stop.
        driver.run(kImageCadence);
      });
  gen.stop();
  broker.closeAll();

  for (const auto& f : gen.failures) r.fail(f);
  r.attempted = steps + gen.commands + gen.framesChecked;
  if (gen.roundTrips == 0) r.fail("no steering round trip completed");
  if (gen.framesChecked == 0) r.fail("no coded frame was checked");
  const auto& bs = broker.stats();
  if (broker.totalFramesDropped() > 0) {
    r.fail(std::to_string(broker.totalFramesDropped()) +
           " frames dropped by broker outboxes");
  }

  const auto setup = Recorder::get().series("setup");
  r.e2e("setup_s", median(setup), "s", setup.size());
  r.e2e("mlups", median(windowMlups), "MLUPS", windowMlups.size());
  r.e2e("mlups_loop",
        wall > 0.0 ? static_cast<double>(sites * steps) / wall / 1e6 : 0.0,
        "MLUPS", 1);
  r.e2e("peak_rss_mb", peakRssMb(), "MB");
  r.e2e("frame_ms_p50", median(gen.frameMs), "ms", gen.frameMs.size());
  r.e2e("frame_ms_p90", percentile(gen.frameMs, 0.9), "ms",
        gen.frameMs.size());
  // The latency a steering user sees: command sent to the first frame that
  // reflects it.
  r.e2e("latency_ms_p50", median(gen.frameMs), "ms", gen.frameMs.size());
  r.e2e("latency_ms_p90", percentile(gen.frameMs, 0.9), "ms",
        gen.frameMs.size());
  if (!opt.trace) return r;

  addSetupLayers(r, *report);
  auto& rec = Recorder::get();
  const auto plain = rec.series("lb.step");
  const auto renderSteps = rec.series("vis.render_step");
  const auto reportMs = rec.series("core.step_report");
  r.layer("lb.steps", static_cast<double>(steps), "count");
  r.layer("lb.step_ms_p50", 1e3 * median(plain), "ms", plain.size());
  r.layer("lb.step_ms_p90", 1e3 * percentile(plain, 0.9), "ms", plain.size());
  r.layer("vis.render_step_ms_p50", 1e3 * median(renderSteps), "ms",
          renderSteps.size());
  r.layer("vis.renders", static_cast<double>(renders), "count");
  r.layer("vis.extract_s", stage[0], "s");
  r.layer("vis.filter_s", stage[1], "s");
  r.layer("vis.map_s", stage[2], "s");
  r.layer("vis.render_s", stage[3], "s");
  r.layer("steer.ack_ms_p50", median(gen.ackMs), "ms", gen.ackMs.size());
  r.layer("steer.ack_ms_p90", percentile(gen.ackMs, 0.9), "ms",
          gen.ackMs.size());
  r.layer("steer.commands", static_cast<double>(gen.commands), "count");
  r.layer("steer.rejects", static_cast<double>(gen.rejects), "count");
  r.layer("steer.frames_checked", static_cast<double>(gen.framesChecked),
          "count");
  const auto lookups = bs.cacheHits + bs.cacheMisses;
  r.layer("serve.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(bs.cacheHits) / lookups : 0.0,
          "ratio");
  r.layer("serve.cache_lookups", static_cast<double>(lookups), "count");
  r.layer("serve.wire_bytes", static_cast<double>(bs.wireBytes), "B");
  r.layer("serve.raw_bytes", static_cast<double>(bs.rawBytes), "B");
  r.layer("serve.frames_sent", static_cast<double>(bs.framesSent), "count");
  r.layer("serve.frames_dropped",
          static_cast<double>(broker.totalFramesDropped()), "count");
  r.layer("serve.levels_shed",
          static_cast<double>(bs.levelsShed + gen.relayStats.levelsShed),
          "count");
  const auto pump = rec.series("relay.pump");
  r.layer("relay.pump_ms_p50", 1e3 * median(pump), "ms", pump.size());
  r.layer("relay.frames_forwarded",
          static_cast<double>(gen.relayStats.framesForwarded), "count");
  r.layer("relay.cache_replays",
          static_cast<double>(gen.relayStats.cacheReplays), "count");
  r.layer("core.step_report_ms_p50", 1e3 * median(reportMs), "ms",
          reportMs.size());
  reports.emit(r);
  {
    const auto lattice = geometry::readSgmy(geo);
    addMachineLayers(r, opt, lattice, cfg.lb, ranks, median(plain));
  }
  completePerLayer(r);
  return r;
}

}  // namespace pb
