// Edge-case and error-path tests: malformed files, degenerate geometry,
// empty inputs, wildcard probes, and API misuse that must fail loudly
// rather than corrupt state.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "comm/runtime.hpp"
#include "geometry/sgmy.hpp"
#include "geometry/shapes.hpp"
#include "geometry/sparse_lattice.hpp"
#include "geometry/voxelizer.hpp"
#include "io/serial.hpp"
#include "multires/octree.hpp"
#include "partition/partitioners.hpp"
#include "vis/camera.hpp"
#include "vis/lic.hpp"

namespace hemo {
namespace {

TEST(SgmyErrors, MissingFileThrows) {
  EXPECT_THROW(geometry::readSgmyHeader("/tmp/definitely_not_there.sgmy"),
               CheckError);
}

TEST(SgmyErrors, BadMagicThrows) {
  const std::string path = "/tmp/hemo_test_badmagic.sgmy";
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOPEnonsense_bytes_here_that_are_long_enough_to_parse";
  }
  EXPECT_THROW(geometry::readSgmyHeader(path), CheckError);
  std::remove(path.c_str());
}

TEST(SgmyErrors, TruncatedHeaderThrows) {
  const std::string path = "/tmp/hemo_test_trunc.sgmy";
  {
    std::ofstream f(path, std::ios::binary);
    f << "SGMY";  // magic only, nothing else
    f.put(2);
  }
  EXPECT_THROW(geometry::readSgmyHeader(path), CheckError);
  std::remove(path.c_str());
}

TEST(LatticeErrors, DuplicateSiteRejected) {
  geometry::SparseLattice lat({8, 8, 8}, 1.0, {0, 0, 0});
  geometry::SiteRecord rec;
  lat.addFluidSite({1, 1, 1}, rec);
  lat.addFluidSite({1, 1, 1}, rec);
  EXPECT_THROW(lat.finalize(), CheckError);
}

TEST(LatticeErrors, OutOfBoundsSiteRejected) {
  geometry::SparseLattice lat({8, 8, 8}, 1.0, {0, 0, 0});
  geometry::SiteRecord rec;
  EXPECT_THROW(lat.addFluidSite({8, 0, 0}, rec), CheckError);
  EXPECT_THROW(lat.addFluidSite({0, -1, 0}, rec), CheckError);
}

TEST(LatticeErrors, QueriesBeforeFinalizeRejected) {
  geometry::SparseLattice lat({8, 8, 8}, 1.0, {0, 0, 0});
  EXPECT_THROW(lat.siteId({0, 0, 0}), CheckError);
}

TEST(VoxelizerErrors, EmptySceneRejected) {
  geometry::Scene empty;
  geometry::VoxelizeOptions opt;
  EXPECT_THROW(geometry::voxelize(empty, opt), CheckError);
}

TEST(PartitionErrors, MorePartsThanSitesRejected) {
  geometry::Scene scene;
  scene.addShape(
      std::make_unique<geometry::SphereShape>(Vec3d{0, 0, 0}, 0.6));
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.5;
  const auto lat = geometry::voxelize(scene, opt);
  const auto graph = partition::buildSiteGraph(lat);
  partition::RcbPartitioner rcb;
  EXPECT_THROW(rcb.partition(graph, static_cast<int>(lat.numFluidSites()) + 5),
               CheckError);
}

TEST(CommEdge, ProbeAnySource) {
  comm::Runtime::runOnce(3, [](comm::Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 11, comm.rank());
      comm.barrier();
    } else {
      comm.barrier();  // both messages queued once the barrier passes
      EXPECT_TRUE(comm.probe(comm::kAnySource, 11));
      EXPECT_FALSE(comm.probe(comm::kAnySource, 12));
      comm.recv<int>(comm::kAnySource, 11);
      comm.recv<int>(comm::kAnySource, 11);
      EXPECT_FALSE(comm.probe(comm::kAnySource, 11));
    }
  });
}

TEST(CommEdge, ZeroByteMessages) {
  comm::Runtime::runOnce(2, [](comm::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.sendBytes(1, 3, nullptr, 0);
    } else {
      EXPECT_TRUE(comm.recvBytes(0, 3).empty());
    }
  });
}

TEST(CommEdge, SendToInvalidRankThrows) {
  comm::Runtime rt(2);
  EXPECT_THROW(rt.run([](comm::Communicator& comm) {
                 if (comm.rank() == 0) comm.send(5, 1, 42);
                 comm.barrier();
               }),
               CheckError);
}

TEST(CameraEdge, NonSquareAspectPreserved) {
  vis::Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  // In a 2:1 image, the horizontal half-angle doubles the vertical one:
  // the rightmost ray leans further in x than the topmost leans in y.
  const auto right = cam.rayThrough(255, 64, 256, 128);
  const auto top = cam.rayThrough(127, 0, 256, 128);
  EXPECT_GT(right.direction.x, top.direction.y);
}

TEST(OctreeEdge, FindAbsentKeyReturnsNull) {
  geometry::Scene scene;
  scene.addShape(
      std::make_unique<geometry::SphereShape>(Vec3d{0, 0, 0}, 0.8));
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat = geometry::voxelize(scene, opt);
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lat.numFluidSites(), 0);
  lb::DomainMap domain(lat, part, 0);
  multires::FieldOctree tree(domain, 0);
  // A key far outside the fluid.
  EXPECT_EQ(tree.find(tree.leafLevel(), morton3(Vec3i{0, 0, 0})), nullptr);
  // Query with an empty ROI returns nothing.
  EXPECT_TRUE(tree.query(2, BoxI{{5, 5, 5}, {5, 5, 5}}).empty());
}

TEST(LicEdge, SliceOutsideFluidIsEmptyButValid) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat =
      geometry::voxelize(geometry::makeStraightTube(4.0, 1.0), opt);
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lat.numFluidSites(), 0);
  comm::Runtime::runOnce(1, [&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    lb::MacroFields macro;
    macro.rho.assign(domain.numOwned(), 1.0);
    macro.u.assign(domain.numOwned(), Vec3d{0.01, 0, 0});
    vis::LicOptions licOpt;
    licOpt.axis = 2;
    licOpt.sliceIndex = 0;  // the padding layer: no fluid here
    const auto lic = vis::computeLicSlice(comm, domain, macro, licOpt);
    ASSERT_GT(lic.width, 0);
    for (const auto m : lic.fluidMask) EXPECT_EQ(m, 0);
    const auto gray = lic.toGray8();
    for (const auto g : gray) EXPECT_EQ(g, 0);
  });
}

TEST(RuntimeEdge, ZeroRanksRejected) {
  EXPECT_THROW(comm::Runtime rt(0), CheckError);
}

}  // namespace
}  // namespace hemo

// --- wire-protocol robustness ------------------------------------------------------

#include "steer/protocol.hpp"
#include "util/rng.hpp"

namespace hemo {
namespace {

TEST(ProtocolRobustness, TruncatedFramesThrowNotCrash) {
  steer::Command cmd;
  cmd.type = steer::MsgType::kSetCamera;
  const auto full = steer::encodeCommand(cmd);
  for (std::size_t cut : {std::size_t{1}, full.size() / 2, full.size() - 1}) {
    const std::vector<std::byte> truncated(full.begin(),
                                           full.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(steer::decodeCommand(truncated), CheckError) << cut;
  }
  steer::StatusReport status;
  const auto sf = steer::encodeStatus(status);
  EXPECT_THROW(steer::decodeStatus(std::vector<std::byte>(
                   sf.begin(), sf.begin() + 3)),
               CheckError);
}

TEST(ProtocolRobustness, OversizedFramesRejected) {
  // Trailing garbage after a valid body must be detected (atEnd check).
  steer::Command cmd;
  auto frame = steer::encodeCommand(cmd);
  frame.push_back(std::byte{0});
  EXPECT_THROW(steer::decodeCommand(frame), CheckError);
}

TEST(ProtocolRobustness, RandomBytesNeverCorruptState) {
  // Decoding arbitrary garbage may throw (almost always) but must never
  // crash or read out of bounds; 200 random frames of random lengths.
  Rng rng(123);
  int threw = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> junk(rng.uniformInt(120) + 1);
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniformInt(256));
    }
    try {
      steer::decodeCommand(junk);
    } catch (const CheckError&) {
      ++threw;
    }
    try {
      steer::decodeImage(junk);
    } catch (const CheckError&) {
      ++threw;
    }
    try {
      steer::decodeRoi(junk);
    } catch (const CheckError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 500);  // nearly every garbage frame rejected
}

TEST(ProtocolRobustness, TruncatedBlockPayloadThrows) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat =
      geometry::voxelize(geometry::makeStraightTube(3.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_truncpayload.sgmy";
  ASSERT_TRUE(geometry::writeSgmy(path, lat));
  const auto header = geometry::readSgmyHeader(path);
  auto payloads = geometry::readSgmyBlockPayloads(path, header, 0, 1);
  ASSERT_FALSE(payloads.empty());
  auto& payload = payloads[0];
  ASSERT_GT(payload.size(), 4u);
  payload.resize(payload.size() / 2 + 1);
  EXPECT_THROW(geometry::decodeBlockPayload(
                   header, header.blockTable[0].blockLinear, payload),
               CheckError);
  std::remove(path.c_str());
}

/// One site's block payload, as encodeBlockPayload lays it out: local
/// index, link 0 of `kind` (with distance and, unless a wall, iolet id),
/// 25 bulk links, no normal.
std::vector<std::byte> oneSitePayload(std::uint16_t local, std::uint8_t kind,
                                      std::uint16_t ioletId) {
  io::Writer w;
  w.put<std::uint16_t>(local);
  w.put<std::uint8_t>(kind);
  if (kind != 0) {
    w.put<float>(0.5f);
    if (kind != 1) w.put<std::uint16_t>(ioletId);
  }
  for (int d = 1; d < geometry::kNumDirections; ++d) w.put<std::uint8_t>(0);
  w.put<std::uint8_t>(0);
  return w.take();
}

/// A 16³ lattice of 8³ blocks with an inlet and an outlet.
geometry::SgmyHeader twoIoletHeader() {
  geometry::SgmyHeader h;
  h.dims = {16, 16, 16};
  h.blockSize = 8;
  h.iolets.resize(2);
  return h;
}

TEST(ProtocolRobustness, BlockPayloadDecodesWellFormedSite) {
  const auto h = twoIoletHeader();
  const auto sites =
      geometry::decodeBlockPayload(h, 1, oneSitePayload(511, 3, 1));
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].position, (Vec3i{15, 7, 7}));
  EXPECT_EQ(sites[0].record.links[0].kind, geometry::LinkKind::kOutlet);
  EXPECT_EQ(sites[0].record.links[0].ioletId, 1);
}

TEST(ProtocolRobustness, UnknownLinkKindInBlockPayloadThrows) {
  // Kind 4 is no LinkKind; read as an iolet it would pass unchecked.
  EXPECT_THROW(
      geometry::decodeBlockPayload(twoIoletHeader(), 0, oneSitePayload(0, 4, 0)),
      CheckError);
}

TEST(ProtocolRobustness, IoletIdBeyondTheTableInBlockPayloadThrows) {
  // The solver indexes its per-iolet tables with this id every step.
  EXPECT_THROW(
      geometry::decodeBlockPayload(twoIoletHeader(), 0, oneSitePayload(0, 2, 2)),
      CheckError);
}

TEST(ProtocolRobustness, LocalIndexOutsideTheBlockInBlockPayloadThrows) {
  // 512 = 8³ would land the site in the next block.
  EXPECT_THROW(geometry::decodeBlockPayload(twoIoletHeader(), 0,
                                            oneSitePayload(512, 0, 0)),
               CheckError);
}

TEST(ProtocolRobustness, SitePastTheLatticeInBlockPayloadThrows) {
  // A 12-wide lattice pads block 1 (x 8..15): local index 5 is x = 13.
  auto h = twoIoletHeader();
  h.dims.x = 12;
  EXPECT_THROW(geometry::decodeBlockPayload(h, 1, oneSitePayload(5, 0, 0)),
               CheckError);
}

TEST(ProtocolRobustness, MutatedBlockPayloadsDecodeOrThrow) {
  // Seeded byte flips and truncations of a real block payload: each either
  // throws CheckError or decodes to sites the lattice can take — a known
  // link kind, an iolet id inside the table, a position inside the block
  // and the lattice.
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat =
      geometry::voxelize(geometry::makeStraightTube(3.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_mutpayload.sgmy";
  ASSERT_TRUE(geometry::writeSgmy(path, lat));
  const auto header = geometry::readSgmyHeader(path);
  const auto payloads =
      geometry::readSgmyBlockPayloads(path, header, 0, header.blockTable.size());
  std::remove(path.c_str());
  // The largest payload carries the most cut links.
  std::size_t pick = 0;
  for (std::size_t i = 1; i < payloads.size(); ++i) {
    if (payloads[i].size() > payloads[pick].size()) pick = i;
  }
  const auto& original = payloads[pick];
  const std::uint64_t blockLinear = header.blockTable[pick].blockLinear;
  const int B = header.blockSize;
  const Vec3i bd = header.blockDims();
  const Vec3i blockCoord{
      static_cast<int>(blockLinear % static_cast<std::uint64_t>(bd.x)),
      static_cast<int>(blockLinear / static_cast<std::uint64_t>(bd.x) %
                       static_cast<std::uint64_t>(bd.y)),
      static_cast<int>(blockLinear / static_cast<std::uint64_t>(bd.x) /
                       static_cast<std::uint64_t>(bd.y))};

  Rng rng(1806);
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const auto mode = rng.uniformInt(3);
    if (mode != 1) {
      const auto flips = 1 + rng.uniformInt(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.uniformInt(bytes.size())] =
            static_cast<std::byte>(rng.uniformInt(256));
      }
    }
    if (mode != 0) bytes.resize(rng.uniformInt(bytes.size() + 1));
    std::vector<geometry::DecodedSite> sites;
    try {
      sites = geometry::decodeBlockPayload(header, blockLinear, bytes);
    } catch (const CheckError&) {
      ++threw;
      continue;
    }
    ++decoded;
    for (const auto& s : sites) {
      for (int a = 0; a < 3; ++a) {
        ASSERT_EQ(s.position[a] / B, blockCoord[a]) << "trial " << trial;
        ASSERT_LT(s.position[a], header.dims[a]) << "trial " << trial;
      }
      for (const auto& link : s.record.links) {
        const auto kind = static_cast<int>(link.kind);
        ASSERT_LE(kind, 3) << "trial " << trial;
        if (kind >= 2) {
          ASSERT_LT(link.ioletId, header.iolets.size()) << "trial " << trial;
        }
      }
    }
  }
  // Both outcomes occur: flips inside a distance or a normal decode fine.
  EXPECT_GT(threw, 0);
  EXPECT_GT(decoded, 0);
}

}  // namespace
}  // namespace hemo
