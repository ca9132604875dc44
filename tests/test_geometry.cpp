// Tests for the geometry substrate: direction set, SDF shapes, voxelizer,
// sparse lattice invariants, the .sgmy format round trip and the parallel
// reader.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "comm/runtime.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "geometry/parallel_reader.hpp"
#include "geometry/sgmy.hpp"
#include "geometry/shapes.hpp"
#include "geometry/sparse_lattice.hpp"
#include "geometry/voxelizer.hpp"

namespace hemo::geometry {
namespace {

TEST(Directions, CountAndUniqueness) {
  std::set<std::tuple<int, int, int>> seen;
  for (const auto& d : kDirections) {
    EXPECT_FALSE(d == (Vec3i{0, 0, 0}));
    seen.insert({d.x, d.y, d.z});
  }
  EXPECT_EQ(seen.size(), 26u);
}

TEST(Directions, OppositeIsNegation) {
  for (int i = 0; i < kNumDirections; ++i) {
    const int o = oppositeDirection(i);
    EXPECT_EQ(kDirections[static_cast<std::size_t>(o)],
              -kDirections[static_cast<std::size_t>(i)]);
    EXPECT_EQ(oppositeDirection(o), i);
  }
}

TEST(Directions, IndexLookup) {
  for (int i = 0; i < kNumDirections; ++i) {
    EXPECT_EQ(directionIndex(kDirections[static_cast<std::size_t>(i)]), i);
  }
  EXPECT_EQ(directionIndex(Vec3i{0, 0, 0}), -1);
  EXPECT_EQ(directionIndex(Vec3i{2, 0, 0}), -1);
}

TEST(Shapes, SphereSdf) {
  SphereShape s({1, 2, 3}, 2.0);
  EXPECT_DOUBLE_EQ(s.sdf({1, 2, 3}), -2.0);
  EXPECT_DOUBLE_EQ(s.sdf({3, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(s.sdf({5, 2, 3}), 2.0);
  EXPECT_TRUE(s.bounds().contains({2.9, 3.9, 4.9}));
}

TEST(Shapes, CapsuleSdf) {
  CapsuleShape c({0, 0, 0}, {10, 0, 0}, 1.0);
  EXPECT_DOUBLE_EQ(c.sdf({5, 0, 0}), -1.0);     // on axis
  EXPECT_DOUBLE_EQ(c.sdf({5, 1, 0}), 0.0);      // on surface
  EXPECT_DOUBLE_EQ(c.sdf({5, 3, 0}), 2.0);      // outside
  EXPECT_DOUBLE_EQ(c.sdf({-2, 0, 0}), 1.0);     // past hemispherical end
}

TEST(Shapes, ArcTubeMidpointInside) {
  // Quarter arc of bend radius 5, tube radius 1, in the xy-plane.
  ArcTubeShape arc({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 5.0, 1.5707963, 1.0);
  const Vec3d mid = arc.arcPoint(0.785398);
  EXPECT_LT(arc.sdf(mid), -0.99);
  EXPECT_GT(arc.sdf({0, 0, 0}), 0.0);  // bend centre is outside the tube
  // Tangent is unit and orthogonal to radius.
  const Vec3d t = arc.arcTangent(0.3);
  EXPECT_NEAR(t.norm(), 1.0, 1e-12);
}

TEST(Scene, FluidClippedByIolets) {
  Scene tube = makeStraightTube(10.0, 1.0);
  EXPECT_TRUE(tube.isFluid({5, 0, 0}));
  EXPECT_FALSE(tube.isFluid({5, 2, 0}));    // outside wall
  EXPECT_FALSE(tube.isFluid({-0.5, 0, 0})); // behind the inlet cap
  EXPECT_FALSE(tube.isFluid({10.5, 0, 0})); // past the outlet cap
  EXPECT_EQ(tube.iolets().size(), 2u);
}

TEST(Scene, GradientPointsOutward) {
  Scene tube = makeStraightTube(10.0, 1.0);
  const Vec3d g = tube.sdfGradient({5, 0.9, 0}, 0.01).normalized();
  EXPECT_NEAR(g.y, 1.0, 1e-3);
}

class LatticeTest : public ::testing::Test {
 protected:
  static SparseLattice makeTube(double voxel = 0.25) {
    VoxelizeOptions opt;
    opt.voxelSize = voxel;
    return voxelize(makeStraightTube(6.0, 1.0), opt);
  }
};

TEST_F(LatticeTest, VoxelizerProducesPlausibleTube) {
  const auto lat = makeTube();
  // Expected volume: pi r^2 L / h^3 = pi*1*6 / 0.015625 ≈ 1206 sites.
  const double expected = 3.14159265 * 6.0 / (0.25 * 0.25 * 0.25);
  EXPECT_GT(static_cast<double>(lat.numFluidSites()), expected * 0.8);
  EXPECT_LT(static_cast<double>(lat.numFluidSites()), expected * 1.2);
  EXPECT_EQ(lat.iolets().size(), 2u);
  EXPECT_LT(lat.fluidFraction(), 0.6);
}

TEST_F(LatticeTest, SiteIdsAreDenseAndInvertible) {
  const auto lat = makeTube();
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    EXPECT_EQ(lat.siteId(lat.sitePosition(id)), static_cast<std::int64_t>(id));
  }
  EXPECT_EQ(lat.siteId({-1, 0, 0}), -1);
}

TEST_F(LatticeTest, BlockScanOrderIsMonotone) {
  const auto lat = makeTube();
  std::uint64_t expectFirst = 0;
  for (const auto& b : lat.blocks()) {
    EXPECT_EQ(b.firstSiteId, expectFirst);
    EXPECT_GT(b.fluidCount, 0u);
    expectFirst += b.fluidCount;
  }
  EXPECT_EQ(expectFirst, lat.numFluidSites());
}

TEST_F(LatticeTest, BlockOfSiteConsistent) {
  const auto lat = makeTube();
  for (std::uint64_t id = 0; id < lat.numFluidSites(); id += 97) {
    const auto bi = lat.blockOfSite(id);
    const auto& b = lat.blocks()[bi];
    EXPECT_GE(id, b.firstSiteId);
    EXPECT_LT(id, b.firstSiteId + b.fluidCount);
  }
}

TEST_F(LatticeTest, LinkClassificationMatchesNeighbours) {
  const auto lat = makeTube();
  std::uint64_t wallLinks = 0, ioletLinks = 0;
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    const auto& rec = lat.site(id);
    for (int d = 0; d < kNumDirections; ++d) {
      const auto nid = lat.neighborId(id, d);
      const auto& link = rec.links[static_cast<std::size_t>(d)];
      if (nid >= 0) {
        // A fluid neighbour must be a bulk link.
        EXPECT_EQ(static_cast<int>(link.kind),
                  static_cast<int>(LinkKind::kBulk));
      } else {
        EXPECT_NE(static_cast<int>(link.kind),
                  static_cast<int>(LinkKind::kBulk));
        EXPECT_GT(link.wallDistance, 0.0f);
        EXPECT_LE(link.wallDistance, 1.0f);
        if (link.kind == LinkKind::kWall) {
          ++wallLinks;
        } else {
          ++ioletLinks;
          EXPECT_LT(link.ioletId, 2);
        }
      }
    }
  }
  EXPECT_GT(wallLinks, 0u);
  EXPECT_GT(ioletLinks, 0u);
}

TEST_F(LatticeTest, WallNormalsPointOutward) {
  const auto lat = makeTube();
  int checked = 0;
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    const auto& rec = lat.site(id);
    if (!rec.hasWallNormal) continue;
    const Vec3d w = lat.siteWorld(id);
    // Tube axis is x; outward normal should have a positive radial dot.
    const Vec3d radial = Vec3d{0, w.y, w.z}.normalized();
    if (radial.norm2() > 0.5) {
      EXPECT_GT(radial.dot(rec.wallNormal.cast<double>()), 0.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST_F(LatticeTest, AneurysmAddsVolumeOnOneSide) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto plain = voxelize(makeStraightTube(6.0, 1.0), opt);
  const auto aneurysm = voxelize(makeAneurysmVessel(6.0, 1.0, 1.2), opt);
  EXPECT_GT(aneurysm.numFluidSites(), plain.numFluidSites() + 100);
}

TEST_F(LatticeTest, BifurcationHasThreeIolets) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat =
      voxelize(makeBifurcation(4.0, 1.0, 4.0, 0.8, 0.5), opt);
  EXPECT_EQ(lat.iolets().size(), 3u);
  EXPECT_GT(lat.numFluidSites(), 500u);
}

TEST_F(LatticeTest, BentTubeConnectsLimbs) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat = voxelize(makeBentTube(3.0, 4.0, 1.5707963, 1.0), opt);
  EXPECT_GT(lat.numFluidSites(), 500u);
  EXPECT_EQ(lat.iolets().size(), 2u);
}

TEST(SparseLattice, SiteIdMatchesBruteForce) {
  // Dims that are not a multiple of the block size (partial blocks on the
  // high faces) and a fill pattern that leaves whole blocks empty.
  const Vec3i dims{19, 13, 11};
  const int blockSize = 4;
  SparseLattice lat(dims, 1.0, Vec3d{0.0, 0.0, 0.0}, blockSize);
  std::set<std::tuple<int, int, int>> fluid;
  for (int z = 0; z < dims.z; ++z) {
    for (int y = 0; y < dims.y; ++y) {
      for (int x = 0; x < dims.x; ++x) {
        if (x / blockSize == 2 || (y / blockSize == 1 && z / blockSize == 0)) {
          continue;
        }
        if ((x * 7 + y * 13 + z * 5) % 3 == 0) continue;
        lat.addFluidSite({x, y, z}, SiteRecord{});
        fluid.insert({x, y, z});
      }
    }
  }
  lat.finalize();
  ASSERT_EQ(lat.numFluidSites(), fluid.size());
  const auto totalBlocks = static_cast<std::size_t>(lat.blockDims().x) *
                           static_cast<std::size_t>(lat.blockDims().y) *
                           static_cast<std::size_t>(lat.blockDims().z);
  ASSERT_LT(lat.numNonEmptyBlocks(), totalBlocks);

  std::map<std::tuple<int, int, int>, std::int64_t> idOf;
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    const Vec3i& p = lat.sitePosition(id);
    ASSERT_TRUE(fluid.count({p.x, p.y, p.z}));
    idOf[{p.x, p.y, p.z}] = static_cast<std::int64_t>(id);
  }
  ASSERT_EQ(idOf.size(), fluid.size());
  for (int z = -1; z <= dims.z; ++z) {
    for (int y = -1; y <= dims.y; ++y) {
      for (int x = -1; x <= dims.x; ++x) {
        const auto it = idOf.find({x, y, z});
        const std::int64_t expected = it == idOf.end() ? -1 : it->second;
        ASSERT_EQ(lat.siteId({x, y, z}), expected) << x << "," << y << "," << z;
      }
    }
  }
}

TEST(SparseLattice, EdgeTablesRebuildEveryRecordExactly) {
  // Seeded hand-built records: random cut links of every kind and iolet,
  // plus the corner cases of the compact storage — an all-bulk site, a
  // site with all 26 links cut, a wall normal without any cut link.
  const Vec3i dims{12, 10, 9};
  SparseLattice lat(dims, 1.0, Vec3d{0.0, 0.0, 0.0}, 4);
  lat.setIolets(std::vector<Iolet>(3));
  Rng rng(2024);
  std::map<std::tuple<int, int, int>, SiteRecord> input;
  for (int z = 0; z < dims.z; ++z) {
    for (int y = 0; y < dims.y; ++y) {
      for (int x = 0; x < dims.x; ++x) {
        if (rng.uniformInt(4) == 0) continue;
        SiteRecord rec;
        const auto k = input.size();
        for (int d = 0; d < kNumDirections; ++d) {
          if (k == 0 || k == 2 || (k != 1 && rng.uniformInt(5) != 0)) continue;
          auto& link = rec.links[static_cast<std::size_t>(d)];
          link.kind = static_cast<LinkKind>(1 + rng.uniformInt(3));
          link.wallDistance =
              static_cast<float>(1 + rng.uniformInt(1000)) / 1000.0f;
          if (link.kind != LinkKind::kWall) {
            link.ioletId = static_cast<std::uint16_t>(rng.uniformInt(3));
          }
        }
        if (k == 2 || (k > 2 && rng.uniformInt(2) == 0)) {
          rec.hasWallNormal = 1;
          rec.wallNormal = Vec3f{static_cast<float>(rng.uniformInt(9)) - 4.f,
                                 0.5f, -0.25f};
        }
        lat.addFluidSite({x, y, z}, rec);
        input[{x, y, z}] = rec;
      }
    }
  }
  lat.finalize();
  ASSERT_EQ(lat.numFluidSites(), input.size());

  int bulk = 0, allCut = 0, normalOnly = 0, iolet = 0;
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    const Vec3i& p = lat.sitePosition(id);
    const SiteRecord& want = input.at({p.x, p.y, p.z});
    const SiteRecord got = lat.site(id);
    int cut = 0;
    for (int d = 0; d < kNumDirections; ++d) {
      const auto& w = want.links[static_cast<std::size_t>(d)];
      const auto& g = got.links[static_cast<std::size_t>(d)];
      ASSERT_EQ(static_cast<int>(g.kind), static_cast<int>(w.kind));
      ASSERT_EQ(g.wallDistance, w.wallDistance);
      ASSERT_EQ(g.ioletId, w.ioletId);
      const LinkInfo one = lat.link(id, d);
      ASSERT_EQ(static_cast<int>(one.kind), static_cast<int>(g.kind));
      ASSERT_EQ(one.wallDistance, g.wallDistance);
      ASSERT_EQ(one.ioletId, g.ioletId);
      cut += w.kind != LinkKind::kBulk;
      iolet += w.kind == LinkKind::kInlet || w.kind == LinkKind::kOutlet;
    }
    ASSERT_EQ(got.hasWallNormal, want.hasWallNormal);
    ASSERT_EQ(got.wallNormal, want.wallNormal);
    ASSERT_EQ(lat.isEdgeSite(id), want.isEdgeSite()) << "site " << id;
    ASSERT_EQ(lat.touchesWall(id), want.touchesWall()) << "site " << id;
    bulk += cut == 0 && !want.hasWallNormal;
    allCut += cut == kNumDirections;
    normalOnly += cut == 0 && want.hasWallNormal;
  }
  EXPECT_GT(bulk, 0);
  EXPECT_EQ(allCut, 1);
  EXPECT_GT(normalOnly, 0);
  EXPECT_GT(iolet, 0);

  // A bulk link has nothing to store, so data on one is refused.
  SparseLattice bad(dims, 1.0, Vec3d{0.0, 0.0, 0.0}, 4);
  SiteRecord rec;
  rec.links[3].wallDistance = 0.5f;
  EXPECT_THROW(bad.addFluidSite({0, 0, 0}, rec), CheckError);
}

TEST(SparseLattice, StorageStaysUnder80BytesPerSite) {
  // Memory guard: a bulk site costs its position, its id slot and a 4 B
  // edge index; only edge sites carry link records. A per-site 26-link
  // record (about 356 B per site) fails this by a wide margin.
  VoxelizeOptions opt;
  opt.voxelSize = 0.1;
  const auto lat = voxelize(makeAneurysmVessel(6.0, 1.0, 1.2), opt);
  const auto n = lat.numFluidSites();
  ASSERT_GT(n, 20000u);
  std::uint64_t edge = 0;
  for (std::uint64_t id = 0; id < n; ++id) edge += lat.isEdgeSite(id);
  EXPECT_GT(edge * 5, n);  // a fifth or more are edge sites
  EXPECT_LE(lat.storageBytes(), 80 * n)
      << static_cast<double>(lat.storageBytes()) / static_cast<double>(n)
      << " B per site";
}

TEST(Sgmy, RoundTripPreservesEverything) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat = voxelize(makeAneurysmVessel(5.0, 1.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_roundtrip.sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));
  const auto back = readSgmy(path);

  ASSERT_EQ(back.numFluidSites(), lat.numFluidSites());
  EXPECT_EQ(back.dims(), lat.dims());
  EXPECT_DOUBLE_EQ(back.voxelSize(), lat.voxelSize());
  EXPECT_EQ(back.iolets().size(), lat.iolets().size());
  EXPECT_EQ(back.numNonEmptyBlocks(), lat.numNonEmptyBlocks());
  for (std::uint64_t id = 0; id < lat.numFluidSites(); ++id) {
    ASSERT_EQ(back.sitePosition(id), lat.sitePosition(id));
    const auto& a = lat.site(id);
    const auto& b = back.site(id);
    EXPECT_EQ(b.hasWallNormal, a.hasWallNormal);
    for (int d = 0; d < kNumDirections; ++d) {
      const auto& la = a.links[static_cast<std::size_t>(d)];
      const auto& lb = b.links[static_cast<std::size_t>(d)];
      ASSERT_EQ(static_cast<int>(lb.kind), static_cast<int>(la.kind));
      ASSERT_FLOAT_EQ(lb.wallDistance, la.wallDistance);
      ASSERT_EQ(lb.ioletId, la.ioletId);
    }
  }
  std::remove(path.c_str());
}

TEST(Sgmy, WriteBytesUnchanged) {
  // The in-memory storage is not part of the format: the bytes written for
  // the voxelized test aneurysm are pinned by an FNV-1a digest.
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat = voxelize(makeAneurysmVessel(5.0, 1.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_writebytes.sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));
  std::ifstream f(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 45663u);
  EXPECT_EQ(digest, 0xc9c43b95bc35109bULL);
  std::remove(path.c_str());
}

TEST(Sgmy, HeaderOnlyReadIsCheap) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat = voxelize(makeStraightTube(5.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_header.sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));
  const auto h = readSgmyHeader(path);
  EXPECT_EQ(h.dims, lat.dims());
  EXPECT_EQ(h.totalFluidSites(), lat.numFluidSites());
  EXPECT_EQ(h.blockTable.size(), lat.numNonEmptyBlocks());
  std::remove(path.c_str());
}

TEST(BlockAssignment, CoversAllAndIsBalanced) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat = voxelize(makeStraightTube(8.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_assign.sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));
  const auto h = readSgmyHeader(path);
  for (int parts : {1, 2, 3, 4, 8}) {
    const auto owner = assignBlocksByFluidVolume(h, parts);
    ASSERT_EQ(owner.size(), h.blockTable.size());
    std::vector<double> load(static_cast<std::size_t>(parts), 0.0);
    for (std::size_t i = 0; i < owner.size(); ++i) {
      ASSERT_GE(owner[i], 0);
      ASSERT_LT(owner[i], parts);
      // Contiguity: owners are non-decreasing along the scan.
      if (i > 0) {
        ASSERT_GE(owner[i], owner[i - 1]);
      }
      load[static_cast<std::size_t>(owner[i])] +=
          h.blockTable[i].fluidCount;
    }
    for (double l : load) EXPECT_GT(l, 0.0);
    // Block granularity bounds the imbalance loosely.
    EXPECT_LT(hemo::imbalanceFactor(load), 2.0);
  }
  std::remove(path.c_str());
}

// --- malformed-input hardening ---------------------------------------------

namespace malformed {

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a small valid .sgmy and returns its bytes for corruption.
std::vector<char> validFixture(const std::string& path) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  const auto lat = voxelize(makeStraightTube(4.0, 1.0), opt);
  EXPECT_TRUE(writeSgmy(path, lat));
  return slurp(path);
}

/// File offset of the block-table count (magic 4 + version 4 + dims 12 +
/// blockSize 4 + voxelSize 8 + origin 24 + ioletCount 4 + 74 per iolet).
std::size_t blockCountOffset(const std::string& path) {
  SgmyHeader h;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(path, &h)),
            static_cast<int>(GeoStatus::kOk));
  return 60 + 74 * h.iolets.size();
}

}  // namespace malformed

TEST(SgmyHardening, MissingFileIsOpenFailed) {
  SgmyHeader h;
  std::string detail;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(
                "/tmp/hemo_no_such_file_ever.sgmy", &h, &detail)),
            static_cast<int>(GeoStatus::kOpenFailed));
  EXPECT_FALSE(detail.empty());
}

TEST(SgmyHardening, CorruptMagicIsBadMagic) {
  const std::string path = "/tmp/hemo_test_badmagic.sgmy";
  auto bytes = malformed::validFixture(path);
  bytes[0] = 'X';
  malformed::spit(path, bytes);
  SgmyHeader h;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(path, &h)),
            static_cast<int>(GeoStatus::kBadMagic));
  std::remove(path.c_str());
}

TEST(SgmyHardening, UnknownVersionIsBadVersion) {
  const std::string path = "/tmp/hemo_test_badversion.sgmy";
  auto bytes = malformed::validFixture(path);
  const std::uint32_t v = 999;
  std::memcpy(bytes.data() + 4, &v, sizeof(v));
  malformed::spit(path, bytes);
  SgmyHeader h;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(path, &h)),
            static_cast<int>(GeoStatus::kBadVersion));
  std::remove(path.c_str());
}

TEST(SgmyHardening, TruncationAnywhereInTheHeaderIsTyped) {
  const std::string path = "/tmp/hemo_test_trunc.sgmy";
  const auto bytes = malformed::validFixture(path);
  const auto tableEnd = malformed::blockCountOffset(path) + 8;
  // Every prefix that ends inside the fixed header or the tables must map
  // to a typed status, never an abort or a bogus kOk.
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                        std::size_t{30}, std::size_t{59}, tableEnd - 1,
                        tableEnd + 5}) {
    malformed::spit(path,
                    std::vector<char>(bytes.begin(), bytes.begin() + n));
    SgmyHeader h;
    const auto status = tryReadSgmyHeader(path, &h);
    EXPECT_NE(static_cast<int>(status), static_cast<int>(GeoStatus::kOk))
        << "prefix " << n;
  }
  std::remove(path.c_str());
}

TEST(SgmyHardening, HugeBlockCountIsTruncatedNotAllocated) {
  const std::string path = "/tmp/hemo_test_hugecount.sgmy";
  auto bytes = malformed::validFixture(path);
  const auto off = malformed::blockCountOffset(path);
  // A count whose table could never fit in the file must be refused
  // *before* any reserve — an OOM here would be a remote-triggered crash.
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max() / 4;
  std::memcpy(bytes.data() + off, &huge, sizeof(huge));
  malformed::spit(path, bytes);
  SgmyHeader h;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(path, &h)),
            static_cast<int>(GeoStatus::kTruncated));
  std::remove(path.c_str());
}

TEST(SgmyHardening, PayloadBytesBeyondFileIsInconsistent) {
  const std::string path = "/tmp/hemo_test_badpayload.sgmy";
  auto bytes = malformed::validFixture(path);
  // First table entry: blockLinear u64, fluidCount u32, then payloadOffset
  // u64 and payloadBytes u64 — point the size past the end of the file.
  const auto entry = malformed::blockCountOffset(path) + 8;
  const std::uint64_t bogus = 1u << 30;
  std::memcpy(bytes.data() + entry + 8 + 4 + 8, &bogus, sizeof(bogus));
  malformed::spit(path, bytes);
  SgmyHeader h;
  std::string detail;
  EXPECT_EQ(static_cast<int>(tryReadSgmyHeader(path, &h, &detail)),
            static_cast<int>(GeoStatus::kInconsistent));
  std::remove(path.c_str());
}

TEST(SgmyHardening, ThrowingReaderReportsTheTypedStatus) {
  const std::string path = "/tmp/hemo_test_throwmsg.sgmy";
  auto bytes = malformed::validFixture(path);
  bytes[0] = '?';
  malformed::spit(path, bytes);
  try {
    (void)readSgmyHeader(path);
    FAIL() << "expected CheckError";
  } catch (const hemo::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("bad-magic"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SgmyHardening, DistributedReadFailsIdenticallyOnEveryRank) {
  const std::string path = "/tmp/hemo_test_distfail.sgmy";
  auto bytes = malformed::validFixture(path);
  bytes.resize(40);  // ends inside the fixed header
  malformed::spit(path, bytes);

  constexpr int kRanks = 3;
  std::vector<GeoStatus> status(kRanks, GeoStatus::kOk);
  std::vector<std::string> detail(kRanks);
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& comm) {
    // Only rank 0 touches the file; the typed status must still arrive on
    // every rank (no rank left stranded in a collective by a rank-0 throw).
    const auto res = tryReadSgmyDistributed(comm, path, 2);
    status[static_cast<std::size_t>(comm.rank())] = res.status;
    detail[static_cast<std::size_t>(comm.rank())] = res.statusDetail;
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.ownedSites.empty());
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(static_cast<int>(status[static_cast<std::size_t>(r)]),
              static_cast<int>(GeoStatus::kTruncated))
        << "rank " << r;
    EXPECT_EQ(detail[static_cast<std::size_t>(r)], detail[0]);
  }
  std::remove(path.c_str());
}

class ParallelReadTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(ParallelReadTest, AllSitesArriveExactlyOnce) {
  const auto [ranks, readers] = GetParam();
  VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat = voxelize(makeAneurysmVessel(5.0, 1.0, 1.0), opt);
  // Unique per parametrization: ctest runs these cases concurrently.
  const std::string path = "/tmp/hemo_test_parread_" + std::to_string(ranks) +
                           "_" + std::to_string(readers) + ".sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));

  comm::Runtime rt(ranks);
  std::vector<std::vector<Vec3i>> perRank(static_cast<std::size_t>(ranks));
  rt.run([&](comm::Communicator& comm) {
    const auto res = readSgmyDistributed(comm, path, readers);
    EXPECT_EQ(res.header.totalFluidSites(), lat.numFluidSites());
    bool expectReader = false;
    for (int g = 0; g < readers; ++g) {
      if (comm.rank() == g * ranks / readers) expectReader = true;
    }
    EXPECT_EQ(res.wasReader, expectReader);
    auto& mine = perRank[static_cast<std::size_t>(comm.rank())];
    for (const auto& s : res.ownedSites) mine.push_back(s.position);
  });

  // Union over ranks = the full site set, no duplicates.
  std::set<std::tuple<int, int, int>> seen;
  std::size_t total = 0;
  for (const auto& v : perRank) {
    total += v.size();
    for (const auto& p : v) seen.insert({p.x, p.y, p.z});
  }
  EXPECT_EQ(total, lat.numFluidSites());
  EXPECT_EQ(seen.size(), lat.numFluidSites());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndReaders, ParallelReadTest,
    ::testing::Values(std::pair{1, 1}, std::pair{4, 1}, std::pair{4, 2},
                      std::pair{4, 4}, std::pair{8, 2}, std::pair{8, 8}));

TEST(ParallelRead, FewerReadersShiftBytesToComm) {
  VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  const auto lat = voxelize(makeStraightTube(8.0, 1.0), opt);
  const std::string path = "/tmp/hemo_test_tradeoff.sgmy";
  ASSERT_TRUE(writeSgmy(path, lat));

  auto commBytes = [&](int readers) {
    comm::Runtime rt(8);
    rt.run([&](comm::Communicator& comm) {
      readSgmyDistributed(comm, path, readers);
    });
    return rt.totalCounters().of(comm::Traffic::kIo).bytesSent;
  };
  // With every rank reading its own blocks most payloads stay local; with
  // one reader almost everything crosses the network.
  EXPECT_GT(commBytes(1), commBytes(8));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hemo::geometry
