#include "inputs.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "geometry/sgmy.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"

namespace pb {

using hemo::steer::MsgType;
using hemo::steer::RejectReason;

double voxelFor(const std::string& workload, bool smoke) {
  // batch_large: ~600k sites, ~180 MB of distributions (f and fNext), 1.7x
  // the 105 MiB L3. The other two: ~75k sites, L3-resident.
  if (smoke) return 0.2;
  return workload == "batch_large" ? 0.035 : 0.07;
}

std::string geometryPath(const std::string& inputs, const std::string& workload,
                         bool smoke) {
  char name[64];
  std::snprintf(name, sizeof(name), "aneurysm_v%.3f.sgmy",
                voxelFor(workload, smoke));
  return inputs + "/" + name;
}

std::string scriptPath(const std::string& inputs, const std::string& workload,
                       std::uint64_t seed, bool smoke) {
  return inputs + "/" + workload + (smoke ? "_smoke" : "") + "_seed" +
         std::to_string(seed) + ".txt";
}

namespace {

hemo::geometry::SparseLattice makeVessel(double voxel) {
  hemo::geometry::VoxelizeOptions vox;
  vox.voxelSize = voxel;
  return hemo::geometry::voxelize(
      hemo::geometry::makeAneurysmVessel(6.0, 1.0, 1.3, 0.4), vox);
}

hemo::BoxI worldToLattice(const hemo::geometry::SparseLattice& lat,
                          const hemo::Vec3d& lo, const hemo::Vec3d& hi) {
  const double h = lat.voxelSize();
  return {((lo - lat.origin()) / h).cast<int>(),
          ((hi - lat.origin()) / h).cast<int>()};
}

/// The closed steering loop's script. The mix is fixed per block of 20
/// commands — 8 camera orbits, 4 dome clips, 2 clip clears, 4 in-bounds
/// iolet densities, 2 commands the guard must refuse — and the seed shuffles
/// the order and jitters the values. Every seed therefore asks for the same
/// kinds of work in the same proportions, so the seed moves which frames are
/// rendered, not how much rendering a run does.
void writeInsituScript(const std::string& path,
                       const hemo::geometry::SparseLattice& lat,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const hemo::Vec3d target{3.0, 0.8, 0.0};
  const hemo::Vec3i dims = lat.dims();
  std::ofstream out(path);
  // Passive subscribers: two of each codec, in seeded connection order.
  std::vector<int> codecs = {0, 0, 1, 1, 2, 2};
  std::shuffle(codecs.begin(), codecs.end(), rng);
  out << "codecs " << codecs.size();
  for (const int c : codecs) out << ' ' << c;
  out << '\n';
  const int kBlocks = 200;
  const int kinds[20] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                         1, 1, 2, 2, 3, 3, 3, 3, 4, 5};
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<int> order(std::begin(kinds), std::end(kinds));
    std::shuffle(order.begin(), order.end(), rng);
    for (const int kind : order) {
      hemo::steer::Command c;
      RejectReason expect = RejectReason::kNone;
      switch (kind) {
        case 0: {  // orbit the camera a few degrees around the dome
          const double a = 0.15 * unit(rng);
          c.type = MsgType::kSetCamera;
          c.camera.position = {target.x + 8.5 * std::sin(a),
                               1.2 + 0.3 * unit(rng),
                               8.5 * std::cos(a)};
          c.camera.target = target;
          break;
        }
        case 1: {  // clip the render to a jittered box around the dome
          const double j = 0.1 * unit(rng);
          c.type = MsgType::kSetRenderClip;
          c.roi = worldToLattice(lat, {2.0 + j, 0.8 + j, -1.0 + j},
                                 {4.0 + j, 3.0 + j, 1.0 + j});
          break;
        }
        case 2:  // clear the clip
          c.type = MsgType::kSetRenderClip;
          c.roi = hemo::BoxI{};
          break;
        case 3: {  // in-bounds pressure drop change on inlet or outlet
          c.type = MsgType::kSetIoletDensity;
          c.ioletId = static_cast<int>(rng() % 2);
          c.value = (c.ioletId == 0 ? 1.004 : 0.996) + 0.001 * unit(rng);
          break;
        }
        case 4: {  // refused: iolet that does not exist / density too high
          c.type = MsgType::kSetIoletDensity;
          if (rng() % 2 == 0) {
            c.ioletId = 7;
            c.value = 1.0;
            expect = RejectReason::kIoletOutOfRange;
          } else {
            c.ioletId = 0;
            c.value = 3.0 + unit(rng);
            expect = RejectReason::kValueOutOfRange;
          }
          break;
        }
        default: {  // refused: unstable tau / clip box outside the lattice
          if (rng() % 2 == 0) {
            c.type = MsgType::kSetTau;
            c.value = 0.55 + 0.05 * unit(rng);
            expect = RejectReason::kTauUnstable;
          } else {
            c.type = MsgType::kSetRenderClip;
            c.roi = {dims + hemo::Vec3i{10, 10, 10},
                     dims + hemo::Vec3i{20, 20, 20}};
            expect = RejectReason::kRoiOutsideLattice;
          }
          break;
        }
      }
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "cmd %d %d %.17g %d %d %d %d %d %d %.17g %.17g %.17g %d\n",
          static_cast<int>(c.type), c.ioletId, c.value, c.roi.lo.x, c.roi.lo.y,
          c.roi.lo.z, c.roi.hi.x, c.roi.hi.y, c.roi.hi.z, c.camera.position.x,
          c.camera.position.y, c.camera.position.z, static_cast<int>(expect));
      out << line;
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Migration cost fields: a seeded sequence of hot ranks with jittered cost
/// factors. The hot region is the rank's current sub-domain, not a fixed
/// place: fixed spatial hotspots, alternated, let the diffusive rebalancer
/// drift into a partition that suits both, and later calls then move
/// nothing. A rank that was not hot in the previous migration holds about
/// 1 + factor times its balanced load, so every call moves sites.
void writeRestandupScript(const std::string& path, std::uint64_t seed) {
  constexpr int kRanks = 4, kLength = 12;
  std::mt19937_64 rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  std::uniform_int_distribution<int> other(1, kRanks - 1);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<int> ranks{static_cast<int>(rng() % kRanks)};
  while (static_cast<int>(ranks.size()) < kLength ||
         ranks.back() == ranks.front()) {
    ranks.push_back((ranks.back() + other(rng)) % kRanks);
  }
  std::ofstream out(path);
  for (const int r : ranks) {
    char line[128];
    std::snprintf(line, sizeof(line), "hot %d %.17g\n", r,
                  0.6 + 0.05 * unit(rng));
    out << line;
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

void generateInputs(const Options& opt) {
  std::filesystem::create_directories(opt.inputs);
  const std::string geo = geometryPath(opt.inputs, opt.workload, opt.smoke);
  // The vessel does not depend on the seed; keep it across runs.
  if (!std::filesystem::exists(geo)) {
    const auto lattice = makeVessel(voxelFor(opt.workload, opt.smoke));
    const std::string tmp = geo + ".tmp";
    if (!hemo::geometry::writeSgmy(tmp, lattice)) {
      throw std::runtime_error("cannot write " + tmp);
    }
    std::filesystem::rename(tmp, geo);
    std::printf("# wrote %s: %llu fluid sites\n", geo.c_str(),
                static_cast<unsigned long long>(lattice.numFluidSites()));
  }
  const std::string script =
      scriptPath(opt.inputs, opt.workload, opt.seed, opt.smoke);
  if (opt.workload == "insitu_steered") {
    writeInsituScript(script, hemo::geometry::readSgmy(geo), opt.seed);
  } else if (opt.workload == "restandup") {
    writeRestandupScript(script, opt.seed);
  }
}

InsituScript readInsituScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  InsituScript s;
  std::string tag;
  while (in >> tag) {
    if (tag == "codecs") {
      std::size_t n = 0;
      in >> n;
      s.subscriberCodecs.resize(n);
      for (auto& c : s.subscriberCodecs) in >> c;
    } else if (tag == "cmd") {
      SteerStep st;
      int type = 0, expect = 0;
      auto& c = st.cmd;
      in >> type >> c.ioletId >> c.value >> c.roi.lo.x >> c.roi.lo.y >>
          c.roi.lo.z >> c.roi.hi.x >> c.roi.hi.y >> c.roi.hi.z >>
          c.camera.position.x >> c.camera.position.y >> c.camera.position.z >>
          expect;
      c.type = static_cast<MsgType>(type);
      c.camera.target = {3.0, 0.8, 0.0};
      st.expect = static_cast<RejectReason>(expect);
      s.steps.push_back(st);
    } else {
      throw std::runtime_error("bad script line in " + path);
    }
  }
  return s;
}

RestandupScript readRestandupScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  RestandupScript s;
  std::string tag;
  while (in >> tag) {
    if (tag == "hot") {
      HotRank h;
      in >> h.rank >> h.factor;
      s.hot.push_back(h);
    } else {
      throw std::runtime_error("bad script line in " + path);
    }
  }
  return s;
}

}  // namespace pb
