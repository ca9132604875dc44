// Relay-tier tests: progressive wire round trips, subscribe-once upstream
// dedup, coarse-to-fine forwarding with bit-exact reassembly, the shed
// policy (refinements shed under backpressure, the coarse root never),
// credit-metered flow control, upstream-loss re-subscription through the
// reconnect machinery, drain-and-exit, and a threaded two-level relay
// chain against a live solver (the TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "relay/relay.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "serve/progressive.hpp"
#include "telemetry/telemetry.hpp"

namespace hemo::relay {
namespace {

steer::ImageFrame testFrame(std::uint64_t step, int w = 33, int h = 21) {
  steer::ImageFrame frame;
  frame.step = step;
  frame.width = w;
  frame.height = h;
  frame.rgb.resize(static_cast<std::size_t>(w) * h * 3);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::size_t i = (static_cast<std::size_t>(y) * w + x) * 3;
      frame.rgb[i + 0] = static_cast<std::uint8_t>((x * 7 + y) & 0xff);
      frame.rgb[i + 1] = static_cast<std::uint8_t>((x ^ (y * 3)) & 0xff);
      frame.rgb[i + 2] = static_cast<std::uint8_t>(step & 0xff);
    }
  }
  return frame;
}

serve::CodecConfig progressiveCodec() {
  serve::CodecConfig codec;
  codec.progressive = true;
  codec.rleImage = true;
  return codec;
}

// --- progressive wire format -----------------------------------------------

TEST(ProgressiveWire, BurstRoundTripsBitExactThroughAssembler) {
  const auto frame = testFrame(6);
  std::uint64_t raw = 0;
  const auto burst =
      serve::encodeProgressiveImage(frame, progressiveCodec(), 8, &raw);
  ASSERT_GE(burst.size(), 2u);
  EXPECT_GT(raw, 0u);
  serve::ProgressiveAssembler assembler;
  for (std::size_t l = 0; l < burst.size(); ++l) {
    const auto pf = serve::decodeProgressiveFrame(burst[l]);
    EXPECT_EQ(pf.level, static_cast<std::int32_t>(l));
    EXPECT_EQ(pf.numLevels, static_cast<std::int32_t>(burst.size()));
    EXPECT_TRUE(assembler.accept(pf));
    // Usable image from the very first (root) frame.
    EXPECT_TRUE(assembler.hasImage());
  }
  EXPECT_TRUE(assembler.complete());
  const auto out = assembler.current();
  EXPECT_EQ(out.step, frame.step);
  EXPECT_EQ(out.rgb, frame.rgb);  // bit-exact after the full burst
}

TEST(ProgressiveWire, RootIsSmallAndGapBreaksChain) {
  const auto frame = testFrame(3, 96, 64);
  const auto burst =
      serve::encodeProgressiveImage(frame, progressiveCodec(), 8);
  ASSERT_GE(burst.size(), 4u);
  // The root is a fraction of the full frame: that is the TTFF win.
  EXPECT_LT(burst.front().size(), frame.rgb.size() / 10);
  serve::ProgressiveAssembler assembler;
  EXPECT_TRUE(assembler.accept(serve::decodeProgressiveFrame(burst[0])));
  // Level 2 without level 1: the residual chain is broken — skipped.
  EXPECT_FALSE(assembler.accept(serve::decodeProgressiveFrame(burst[2])));
  EXPECT_EQ(assembler.framesSkipped(), 1u);
  EXPECT_EQ(assembler.levelsApplied(), 1);
  // The coarse image is still usable (bounded error, right size).
  const auto coarse = assembler.current();
  EXPECT_EQ(coarse.width, frame.width);
  EXPECT_EQ(coarse.rgb.size(), frame.rgb.size());
}

TEST(ProgressiveWire, TryDecodeRejectsMalformedFrames) {
  const auto burst = serve::encodeProgressiveImage(testFrame(1), {});
  auto bytes = burst.front();
  EXPECT_TRUE(serve::tryDecodeProgressiveFrame(bytes).has_value());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(serve::tryDecodeProgressiveFrame(bytes).has_value());
  EXPECT_FALSE(serve::tryDecodeProgressiveFrame({}).has_value());
}

// --- broker-side progressive publish ----------------------------------------

TEST(BrokerProgressive, StalledClientKeepsRootLosesRefinements) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::BrokerConfig bcfg;
    bcfg.outboxCapacity = 4;
    serve::SessionBroker broker(bcfg);
    serve::ServeClient viewer(broker.connect());
    viewer.setCodec(progressiveCodec());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    broker.drainCommands(comm, 0);
    // Never drained: the outbox fills; refinements must be shed while the
    // root keeps landing (latest-wins at worst).
    for (std::uint64_t step = 1; step <= 8; ++step) {
      broker.publishImage(comm, 42, testFrame(step, 96, 64));
    }
    EXPECT_GT(broker.stats().levelsShed, 0u);
    EXPECT_EQ(broker.levelsShed(0), broker.stats().levelsShed);
    // Drain now: the newest root must be present and usable.
    bool sawUsable = false;
    std::uint64_t lastStep = 0;
    while (auto event = viewer.pollEvent()) {
      if (event->progressiveReady) {
        sawUsable = true;
        lastStep = event->image.step;
      }
    }
    EXPECT_TRUE(sawUsable);
    EXPECT_EQ(lastStep, 8u);
    broker.closeAll();
  });
}

TEST(BrokerProgressive, CreditGrantMetersRefinements) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;  // default outbox is roomy
    serve::ServeClient viewer(broker.connect());
    viewer.setCodec(progressiveCodec());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    const auto burst =
        serve::encodeProgressiveImage(testFrame(1, 96, 64), progressiveCodec());
    const auto levelsPerBurst = static_cast<std::uint32_t>(burst.size()) - 1;
    ASSERT_GE(levelsPerBurst, 2u);
    // Grant exactly one burst's worth of refinements.
    viewer.sendCredit(levelsPerBurst);
    broker.drainCommands(comm, 0);
    broker.publishImage(comm, 42, testFrame(1, 96, 64));  // spends all credits
    broker.publishImage(comm, 42, testFrame(2, 96, 64));  // refinements shed
    EXPECT_EQ(broker.stats().levelsShed, levelsPerBurst);
    int usable = 0;
    std::uint64_t lastStep = 0;
    while (auto event = viewer.pollEvent()) {
      if (event->progressiveReady) {
        ++usable;
        lastStep = event->image.step;
      }
    }
    // Step 1 arrives complete; step 2 arrives as root only.
    EXPECT_EQ(usable, static_cast<int>(levelsPerBurst) + 2);
    EXPECT_EQ(lastStep, 2u);
    EXPECT_FALSE(viewer.progressive().complete());
    // A fresh grant restores full quality.
    viewer.sendCredit(levelsPerBurst);
    broker.drainCommands(comm, 1);
    broker.publishImage(comm, 42, testFrame(3, 96, 64));
    while (auto event = viewer.pollEvent()) {
    }
    EXPECT_TRUE(viewer.progressive().complete());
    EXPECT_EQ(broker.stats().levelsShed, levelsPerBurst);  // no new sheds
    broker.closeAll();
  });
}

// --- relay node --------------------------------------------------------------

TEST(Relay, SubscribeOnceUpstreamRegardlessOfFanout) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayNode node(broker.connect());
    node.start(progressiveCodec());
    std::vector<serve::ServeClient> viewers;
    for (int i = 0; i < 16; ++i) {
      viewers.emplace_back(node.connect());
      viewers.back().subscribe(serve::StreamKind::kImage, 4);
    }
    node.pump();
    broker.drainCommands(comm, 0);
    // 16 downstream image subscriptions, ONE upstream.
    EXPECT_EQ(node.upstreamSubscriptionCount(), 1);
    EXPECT_EQ(node.stats().upstreamSubscribes, 1u);
    EXPECT_EQ(broker.numClients(), 1);
    EXPECT_EQ(broker.numRelaySessions(), 1);
    // A faster downstream cadence re-issues the subscription (still one
    // held); a slower one is already covered and sends nothing.
    serve::ServeClient fast(node.connect());
    fast.subscribe(serve::StreamKind::kImage, 2);
    serve::ServeClient slow(node.connect());
    slow.subscribe(serve::StreamKind::kImage, 100);
    node.pump();
    broker.drainCommands(comm, 0);
    EXPECT_EQ(node.upstreamSubscriptionCount(), 1);
    EXPECT_EQ(node.stats().upstreamSubscribes, 2u);
    EXPECT_EQ(broker.numClients(), 1);
    broker.closeAll();
  });
}

TEST(Relay, ForwardsCoarseToFineBitExact) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayNode node(broker.connect());
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 0);
    node.pump();  // consume acks
    const auto frame = testFrame(4, 96, 64);
    broker.publishImage(comm, 7, frame);
    node.pump();
    int usable = 0;
    std::vector<std::uint8_t> last;
    while (auto event = viewer.pollEvent()) {
      if (event->progressiveReady) {
        ++usable;
        last = event->image.rgb;
      }
    }
    // One usable image per level (coarse first), final one bit-exact.
    EXPECT_GE(usable, 2);
    EXPECT_EQ(last, frame.rgb);
    EXPECT_TRUE(viewer.progressive().complete());
    EXPECT_GT(node.stats().framesForwarded, 0u);
    EXPECT_GE(node.stats().ttffSeconds, 0.0);
    broker.closeAll();
  });
}

TEST(Relay, LateJoinerGetsCachedBurstImmediately) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayNode node(broker.connect());
    node.start(progressiveCodec());
    serve::ServeClient early(node.connect());
    early.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 0);
    const auto frame = testFrame(4, 96, 64);
    broker.publishImage(comm, 7, frame);
    node.pump();
    // Joins after the publish: no new upstream frame needed — the shared
    // cache replays the current burst on subscribe.
    serve::ServeClient late(node.connect());
    late.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    while (auto event = late.pollEvent()) {
    }
    EXPECT_TRUE(late.progressive().hasImage());
    EXPECT_TRUE(late.progressive().complete());
    EXPECT_EQ(late.progressive().current().rgb, frame.rgb);
    EXPECT_GT(node.stats().cacheReplays, 0u);
    // The cache is one burst deep: bounded by frame size, not history.
    EXPECT_GT(node.cacheBytes(), 0u);
    broker.closeAll();
  });
}

TEST(Relay, ShedsRefinementsForStalledDownstreamNeverRoot) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayConfig rcfg;
    rcfg.outboxCapacity = 3;  // tiny: stalls shed quickly
    RelayNode node(broker.connect(), rcfg);
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 0);
    for (std::uint64_t step = 1; step <= 6; ++step) {
      broker.publishImage(comm, 7, testFrame(step, 96, 64));
      node.pump();  // viewer never drains
    }
    EXPECT_GT(node.stats().levelsShed, 0u);
    bool sawUsable = false;
    std::uint64_t lastStep = 0;
    while (auto event = viewer.pollEvent()) {
      if (event->progressiveReady) {
        sawUsable = true;
        lastStep = event->image.step;
      }
    }
    // The newest root survived the latest-wins outbox: never shed.
    EXPECT_TRUE(sawUsable);
    EXPECT_EQ(lastStep, 6u);
    broker.closeAll();
  });
}

TEST(Relay, DownstreamCreditGrantMetersForwarding) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayNode node(broker.connect());
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    const auto burst = serve::encodeProgressiveImage(testFrame(1, 96, 64),
                                                     progressiveCodec());
    const auto refinements = static_cast<std::uint32_t>(burst.size()) - 1;
    viewer.sendCredit(refinements);  // one burst's worth
    node.pump();
    broker.drainCommands(comm, 0);
    broker.publishImage(comm, 7, testFrame(1, 96, 64));
    node.pump();
    broker.publishImage(comm, 7, testFrame(2, 96, 64));
    node.pump();
    EXPECT_EQ(node.stats().levelsShed, static_cast<std::uint64_t>(refinements));
    while (auto event = viewer.pollEvent()) {
    }
    // Step 2 arrived root-only (credits spent on step 1's burst).
    EXPECT_EQ(viewer.progressive().step(), 2u);
    EXPECT_FALSE(viewer.progressive().complete());
    broker.closeAll();
  });
}

TEST(Relay, UpstreamLossResubscribesAndResumes) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::BrokerConfig bcfg;
    bcfg.heartbeatEvery = 1;
    bcfg.missedHeartbeatLimit = 1;
    serve::SessionBroker broker(bcfg);
    RelayNode node(broker.connect());
    node.enableUpstreamReconnect([&broker] { return broker.requestConnect(true); },
                                 serve::ReconnectConfig{4, 0, 0, 0x5eed});
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 1);
    EXPECT_EQ(broker.numRelaySessions(), 1);
    // The relay goes quiet; two heartbeat windows later the broker evicts
    // the wedged session.
    broker.drainCommands(comm, 2);
    broker.drainCommands(comm, 3);
    EXPECT_EQ(broker.numAliveClients(), 0);
    EXPECT_EQ(broker.stats().evictions, 1u);
    // Next pump hits EOF and redials: the session — relay hello, codec,
    // the single upstream subscription — replays automatically.
    node.pump();
    broker.drainCommands(comm, 4);
    EXPECT_EQ(broker.numAliveClients(), 1);
    EXPECT_EQ(broker.numRelaySessions(), 1);
    EXPECT_EQ(node.upstreamReconnects(), 1u);
    EXPECT_EQ(broker.stats().reconnects, 1u);
    // Streams resume end to end.
    const auto frame = testFrame(4, 48, 48);
    broker.publishImage(comm, 7, frame);
    node.pump();
    while (auto event = viewer.pollEvent()) {
    }
    EXPECT_TRUE(viewer.progressive().hasImage());
    EXPECT_EQ(viewer.progressive().current().rgb, frame.rgb);
    broker.closeAll();
  });
}

TEST(Relay, DrainAndExitDeliversTailThenEof) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayNode node(broker.connect());
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 0);
    const auto frame = testFrame(2, 48, 48);
    broker.publishImage(comm, 7, frame);
    // shutdown() drains the queued upstream tail into the downstream
    // outboxes before closing them.
    node.shutdown();
    bool usable = false;
    while (auto event = viewer.nextEvent()) {  // blocking: drains then EOF
      usable |= event->progressiveReady;
    }
    EXPECT_TRUE(usable);
    EXPECT_EQ(viewer.progressive().current().rgb, frame.rgb);
    broker.closeAll();
  });
}

TEST(Relay, PublishesRelayMetrics) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    serve::SessionBroker broker;
    RelayConfig rcfg;
    rcfg.depth = 2;
    RelayNode node(broker.connect(), rcfg);
    node.start(progressiveCodec());
    serve::ServeClient viewer(node.connect());
    viewer.subscribe(serve::StreamKind::kImage, 1);
    node.pump();
    broker.drainCommands(comm, 0);
    broker.publishImage(comm, 7, testFrame(1, 48, 48));
    node.pump();  // publishes relay.* to this rank thread's telemetry
    auto* t = telemetry::threadTelemetry();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->metrics().counter("relay.frames_forwarded").value(), 0u);
    EXPECT_EQ(t->metrics().gauge("relay.depth").value(), 2.0);
    EXPECT_EQ(t->metrics().gauge("relay.fanout").value(), 1.0);
    // Satellite: the broker flushes serve.* (frames_dropped included)
    // on demand — the driver calls this every telemetry window.
    broker.publishMetrics();
    EXPECT_GT(t->metrics().counter("serve.frames_sent").value(), 0u);
    EXPECT_EQ(t->metrics().gauge("serve.relay_sessions").value(), 1.0);
    broker.closeAll();
  });
}

// --- threaded end-to-end: two-level chain under a live solver ----------------

TEST(Relay, TwoLevelChainThreadedAgainstLiveSolver) {
  geometry::VoxelizeOptions vopt;
  vopt.voxelSize = 0.3;
  const auto lat =
      geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), vopt);
  const auto pre = core::preprocess(lat, 2, core::PreprocessConfig{});

  serve::SessionBroker broker;
  RelayConfig cfg1;
  cfg1.depth = 1;
  RelayNode tier1(broker.connect(), cfg1);
  tier1.start(progressiveCodec());
  RelayConfig cfg2;
  cfg2.depth = 2;
  RelayNode tier2(tier1.connect(), cfg2);
  tier2.start(progressiveCodec());

  constexpr int kViewers = 8;
  std::vector<serve::ServeClient> viewers;
  for (int i = 0; i < kViewers; ++i) {
    viewers.emplace_back(tier2.connect());
    viewers.back().subscribe(serve::StreamKind::kImage, 2);
  }

  std::atomic<bool> stop{false};
  std::thread relayThread1([&] {
    while (!stop.load()) {
      if (tier1.pump() == 0) std::this_thread::yield();
    }
    tier1.shutdown();
  });
  std::thread relayThread2([&] {
    while (!stop.load()) {
      if (tier2.pump() == 0) std::this_thread::yield();
    }
    tier2.shutdown();
  });
  std::vector<std::uint64_t> usable(kViewers, 0);
  std::atomic<int> viewersServed{0};  // viewers with a usable frame
  std::vector<std::thread> viewerThreads;
  for (int i = 0; i < kViewers; ++i) {
    viewerThreads.emplace_back([&, i] {
      while (!stop.load()) {
        bool idle = true;
        while (auto event = viewers[static_cast<std::size_t>(i)].pollEvent()) {
          idle = false;
          if (event->progressiveReady &&
              usable[static_cast<std::size_t>(i)]++ == 0) {
            viewersServed.fetch_add(1);
          }
        }
        if (idle) std::this_thread::yield();
      }
    });
  }

  int executed = 0;
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.render.width = 32;
    dcfg.render.height = 32;
    dcfg.render.camera.position = {2.5, 0.5, 8.0};
    dcfg.render.camera.target = {2.5, 0.5, 0.0};
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    core::SimulationDriver driver(domain, comm, dcfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    const int done = driver.run(20);
    if (comm.rank() == 0) executed = done;
  });
  // Let the tiers flush until every viewer holds a usable frame (bounded,
  // so a lost frame fails the assertions below instead of hanging), then
  // stop (relay shutdown drains the tail first).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (viewersServed.load() < kViewers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  relayThread1.join();
  relayThread2.join();
  for (auto& t : viewerThreads) t.join();
  broker.closeAll();

  EXPECT_EQ(executed, 20);
  // Fan-out isolation: the broker served ONE session (tier-1 relay) for
  // 8 viewers; tier-1 served one (tier-2).
  EXPECT_EQ(broker.numClients(), 1);
  EXPECT_EQ(tier1.numDownstream(), 1);
  EXPECT_EQ(tier2.numDownstream(), kViewers);
  EXPECT_EQ(tier1.upstreamSubscriptionCount(), 1);
  EXPECT_EQ(tier2.upstreamSubscriptionCount(), 1);
  // Every viewer rendered at least one usable frame; final drain.
  for (int i = 0; i < kViewers; ++i) {
    while (auto event = viewers[static_cast<std::size_t>(i)].pollEvent()) {
      if (event->progressiveReady) ++usable[static_cast<std::size_t>(i)];
    }
    EXPECT_GT(usable[static_cast<std::size_t>(i)], 0u) << "viewer " << i;
  }
}

}  // namespace
}  // namespace hemo::relay
