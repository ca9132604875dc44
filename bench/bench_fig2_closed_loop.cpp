// Reproduces **Fig 2** — the closed-loop system architecture — as a
// latency experiment: the six-step steering/visualisation loop of §IV.C.1
//
//   1. simulation runs on the "cluster"      4. master propagates to vis
//   2. steering client connects to master    5. vis renders from live data
//   3. client sends vis parameters           6. image returns to the client
//
// is exercised end to end many times, measuring the client-observed
// round-trip latency per request kind (frame / status / ROI) and the
// steering fan-out traffic — while the simulation keeps stepping.

#include <cstdio>
#include <thread>

#include "common.hpp"
#include "core/driver.hpp"
#include "serve/broker.hpp"
#include "steer/client.hpp"

int main() {
  using namespace hemobench;
  const auto lattice = makeAneurysm(0.15);
  const int ranks = 4;
  const auto part = kwayPartition(lattice, ranks);
  std::printf("workload: aneurysm vessel, %llu sites, %d ranks; live "
              "simulation under steering\n",
              static_cast<unsigned long long>(lattice.numFluidSites()),
              ranks);

  // The steering client is one session of the rank-0 broker.
  serve::SessionBroker broker;
  constexpr int kRequests = 20;

  struct Latency {
    RunningStats frame, status, roi;
    std::uint64_t stepAtStart = 0, stepAtEnd = 0;
  } latency;

  std::thread user([clientEnd = broker.connect(), &latency]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;

    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto s0 = client.awaitStatus();
    latency.stepAtStart = s0 ? s0->step : 0;

    for (int i = 0; i < kRequests; ++i) {
      // Frame round trip (steps 3-6 of the loop).
      WallTimer t1;
      c = {};
      c.type = steer::MsgType::kRequestFrame;
      client.send(c);
      if (!client.awaitImage()) break;
      latency.frame.add(t1.seconds() * 1e3);

      // Status round trip.
      WallTimer t2;
      c = {};
      c.type = steer::MsgType::kRequestStatus;
      client.send(c);
      if (!client.awaitStatus()) break;
      latency.status.add(t2.seconds() * 1e3);

      // ROI round trip (multires detail request).
      WallTimer t3;
      c = {};
      c.type = steer::MsgType::kSetRoi;
      c.roi = {{10, 10, 10}, {30, 30, 30}};
      c.roiLevel = 4;
      client.send(c);
      if (!client.awaitRoi()) break;
      latency.roi.add(t3.seconds() * 1e3);
    }

    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    if (const auto s1 = client.awaitStatus()) latency.stepAtEnd = s1->step;
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    core::DriverConfig cfg;
    cfg.lb = flowParams(true);
    cfg.visEvery = 0;  // only client-requested frames
    cfg.statusEvery = 0;
    cfg.render.width = 192;
    cfg.render.height = 192;
    cfg.render.camera.position = {2.5, 1.0, 8.0};
    cfg.render.camera.target = {2.5, 0.5, 0.0};
    cfg.plannedSteps = 1 << 28;
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(1 << 28);
  });
  user.join();

  printHeader("Fig 2: closed-loop round-trip latency (client-observed)");
  std::printf("%-22s %10s %10s %10s %8s\n", "request", "mean ms", "min ms",
              "max ms", "count");
  auto row = [](const char* name, const RunningStats& s) {
    std::printf("%-22s %10.2f %10.2f %10.2f %8llu\n", name, s.mean(),
                s.min(), s.max(),
                static_cast<unsigned long long>(s.count()));
  };
  row("frame (loop 3-6)", latency.frame);
  row("status report", latency.status);
  row("ROI drill-down", latency.roi);
  std::printf("\nsimulation advanced from step %llu to %llu while being "
              "steered\n",
              static_cast<unsigned long long>(latency.stepAtStart),
              static_cast<unsigned long long>(latency.stepAtEnd));

  const auto steerT = rt.totalCounters().of(comm::Traffic::kSteer);
  const auto visT = rt.totalCounters().of(comm::Traffic::kVis);
  std::printf("steering fan-out: %llu msgs, %.1f KB; vis gather: %llu msgs, "
              "%.1f KB\n",
              static_cast<unsigned long long>(steerT.messagesSent),
              static_cast<double>(steerT.bytesSent) / 1e3,
              static_cast<unsigned long long>(visT.messagesSent),
              static_cast<double>(visT.bytesSent) / 1e3);
  std::printf("\nexpected shape: every loop completes in interactive time "
              "(milliseconds\nhere; dominated by the render), the simulation "
              "never stalls, and\nsteering traffic is a trickle next to "
              "vis/halo traffic.\n");
  return 0;
}
