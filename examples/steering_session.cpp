// Computational steering session — closing the loop (paper Fig 2, §IV.C.3).
//
// A scripted "scientist" drives a live simulation over the steering
// channel: watches status reports, moves the camera, requests frames,
// drills into a region of interest, changes a physical parameter
// (inlet pressure) mid-run, pauses to inspect, and finally terminates.
// Every client action and simulation response is printed as a transcript.
//
// The session runs through the multi-client serving broker: alongside the
// steering scientist, `--clients N` (default 2) read-only observers
// subscribe to the image and status streams — half of them negotiate the
// RLE wire codec — and passively consume the fan-out. The broker renders
// each due frame once and serves it to everyone from the shared cache.
//
// Run:  ./steering_session [--clients N]   (writes steering_frame_*.ppm)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "io/ppm.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "steer/client.hpp"

int main(int argc, char** argv) {
  using namespace hemo;

  int numObservers = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      numObservers = std::atoi(argv[i + 1]);
    }
  }

  geometry::VoxelizeOptions vox;
  vox.voxelSize = 0.2;
  const auto lattice = geometry::voxelize(
      geometry::makeAneurysmVessel(5.0, 1.0, 1.1), vox);
  core::PreprocessConfig pre;
  const auto report = core::preprocess(lattice, 4, pre);

  serve::SessionBroker broker;

  // --- the scripted user -----------------------------------------------------
  // The steering scientist is just one more broker client: the classic
  // SteeringClient speaks the same wire protocol, so it plugs straight
  // into a broker-side channel end.
  std::thread user([clientEnd = broker.connect()]() mutable {
    steer::SteeringClient client(clientEnd);
    auto say = [](const char* msg) { std::printf("[client] %s\n", msg); };
    steer::Command c;

    say("requesting status...");
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    if (auto s = client.awaitStatus()) {
      std::printf("[client] status: step %llu, %llu sites, mass %.1f, "
                  "eta %.1fs, consistency %s\n",
                  static_cast<unsigned long long>(s->step),
                  static_cast<unsigned long long>(s->totalSites),
                  s->totalMass, s->etaSeconds,
                  s->consistencyOk ? "OK" : "BAD");
    }

    say("setting viewpoint above the aneurysm dome");
    c = {};
    c.type = steer::MsgType::kSetCamera;
    c.camera.position = {2.5, 2.5, 7.0};
    c.camera.target = {2.5, 0.8, 0.0};
    client.send(c);

    say("requesting a frame");
    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    if (auto f = client.awaitImage()) {
      io::writePpm("steering_frame_1.ppm", f->width, f->height, f->rgb);
      std::printf("[client] got %dx%d frame at step %llu -> "
                  "steering_frame_1.ppm\n",
                  f->width, f->height,
                  static_cast<unsigned long long>(f->step));
    }

    say("raising inlet pressure (steering a simulation parameter)");
    c = {};
    c.type = steer::MsgType::kSetIoletDensity;
    c.ioletId = 0;
    c.value = 1.006;
    client.send(c);

    say("drilling into the dome region (multires ROI)");
    c = {};
    c.type = steer::MsgType::kSetRoi;
    c.roi = {{8, 8, 0}, {28, 32, 24}};
    c.roiLevel = 3;
    client.send(c);
    if (auto roi = client.awaitRoi()) {
      std::printf("[client] ROI level %d: %zu octree nodes at step %llu\n",
                  roi->level, roi->nodes.size(),
                  static_cast<unsigned long long>(roi->step));
    }

    say("asking for the mean WSS over the dome region only");
    c = {};
    c.type = steer::MsgType::kRequestObservable;
    c.observable = static_cast<std::uint8_t>(steer::ObservableKind::kMeanWss);
    c.roi = {{8, 8, 0}, {28, 32, 24}};
    client.send(c);
    if (auto obs = client.awaitObservable()) {
      std::printf("[client] mean WSS in ROI: %.3e over %llu wall sites "
                  "(step %llu)\n",
                  obs->value,
                  static_cast<unsigned long long>(obs->siteCount),
                  static_cast<unsigned long long>(obs->step));
    }

    say("pausing the simulation for a closer look");
    c = {};
    c.type = steer::MsgType::kPause;
    client.send(c);
    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    if (auto s = client.awaitStatus()) {
      std::printf("[client] paused at step %llu (paused=%d)\n",
                  static_cast<unsigned long long>(s->step), s->paused);
    }

    say("resuming");
    c = {};
    c.type = steer::MsgType::kResume;
    client.send(c);

    say("one more frame after the pressure change");
    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    if (auto f = client.awaitImage()) {
      io::writePpm("steering_frame_2.ppm", f->width, f->height, f->rgb);
      std::printf("[client] got frame at step %llu -> steering_frame_2.ppm\n",
                  static_cast<unsigned long long>(f->step));
    }

    say("terminating the run");
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  // --- the read-only observers ------------------------------------------------
  // Passive consumers of the serving plane: they subscribe to the image
  // and status streams and count what arrives until the broker closes.
  // Odd observers negotiate the RLE image codec.
  std::vector<std::thread> observers;
  std::vector<int> framesSeen(static_cast<std::size_t>(
      std::max(0, numObservers)));
  for (int i = 0; i < numObservers; ++i) {
    observers.emplace_back([&, i, end = broker.connect()]() mutable {
      serve::ServeClient observer(std::move(end));
      if (i % 2 == 1) {
        serve::CodecConfig codec;
        codec.rleImage = true;
        observer.setCodec(codec);
      }
      observer.subscribe(serve::StreamKind::kImage, 2);
      observer.subscribe(serve::StreamKind::kStatus, 5);
      while (auto event = observer.nextEvent()) {
        if (event->type == steer::MsgType::kImageFrame ||
            event->type == steer::MsgType::kCodedImage) {
          ++framesSeen[static_cast<std::size_t>(i)];
        }
      }
    });
  }

  // --- the simulation ---------------------------------------------------------
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, report.partition, comm.rank());
    core::DriverConfig cfg;
    cfg.lb.tau = 0.8;
    cfg.lb.computeStress = true;
    cfg.visEvery = 0;
    cfg.statusEvery = 0;
    cfg.plannedSteps = 100000;
    cfg.render.width = 256;
    cfg.render.height = 192;
    cfg.render.transfer = vis::TransferFunction::bloodFlow(0.f, 0.02f);
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    const int executed = driver.run(100000000);
    if (comm.rank() == 0) {
      std::printf("[sim] terminated by client after %d steps; final inlet "
                  "density %.4f, tau %.2f\n",
                  executed, driver.solver().ioletDensity(0),
                  driver.solver().params().tau);
      broker.closeAll();
    }
  });
  user.join();
  for (auto& t : observers) t.join();

  for (int i = 0; i < numObservers; ++i) {
    std::printf("[observer %d] %d image frames received (%s codec)\n", i,
                framesSeen[static_cast<std::size_t>(i)],
                i % 2 == 1 ? "RLE" : "no");
  }
  const auto& stats = broker.stats();
  std::printf("serving: %d clients, %llu frames served, cache %llu hits / "
              "%llu misses, %llu wire bytes (%llu raw)\n",
              broker.numClients(),
              static_cast<unsigned long long>(stats.framesSent),
              static_cast<unsigned long long>(stats.cacheHits),
              static_cast<unsigned long long>(stats.cacheMisses),
              static_cast<unsigned long long>(stats.wireBytes),
              static_cast<unsigned long long>(stats.rawBytes));
  const auto steerTraffic = rt.totalCounters().of(comm::Traffic::kSteer);
  std::printf("steering fan-out traffic: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(steerTraffic.messagesSent),
              static_cast<unsigned long long>(steerTraffic.bytesSent));
  return 0;
}
