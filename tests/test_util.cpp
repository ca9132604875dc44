// Unit tests for the util module: vectors, boxes, Morton codes, RNG,
// statistics and invariant checking.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bbox.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/vec.hpp"

namespace hemo {
namespace {

TEST(Vec3, BasicArithmetic) {
  Vec3d a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3d{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3d{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3d{2, 4, 6}));
  EXPECT_EQ(2.0 * a, (Vec3d{2, 4, 6}));
  EXPECT_EQ(-a, (Vec3d{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossIsOrthogonal) {
  Vec3d a{1, 2, 3}, b{-2, 0.5, 4};
  const Vec3d c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, NormAndNormalize) {
  Vec3d v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-14);
  EXPECT_EQ(Vec3d{}.normalized(), Vec3d{});
}

TEST(Vec3, IndexingMatchesComponents) {
  Vec3i v{7, 8, 9};
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_EQ(v.y, 42);
}

TEST(Vec3, CastAndLerp) {
  Vec3d v{1.9, -2.1, 3.0};
  const Vec3i i = v.cast<int>();
  EXPECT_EQ(i, (Vec3i{1, -2, 3}));
  const Vec3d mid = lerp(Vec3d{0, 0, 0}, Vec3d{2, 4, 8}, 0.5);
  EXPECT_EQ(mid, (Vec3d{1, 2, 4}));
}

TEST(SymTensor3, ApplyAndFrobenius) {
  SymTensor3 t;
  t.xx() = 1; t.yy() = 2; t.zz() = 3;
  t.xy() = 0.5; t.xz() = -0.5; t.yz() = 0.25;
  const Vec3d r = t.apply({1, 1, 1});
  EXPECT_DOUBLE_EQ(r.x, 1 + 0.5 - 0.5);
  EXPECT_DOUBLE_EQ(r.y, 0.5 + 2 + 0.25);
  EXPECT_DOUBLE_EQ(r.z, -0.5 + 0.25 + 3);
  EXPECT_NEAR(t.frobenius(),
              std::sqrt(1 + 4 + 9 + 2 * (0.25 + 0.25 + 0.0625)), 1e-12);
}

TEST(BoxI, ExpandContainsVolume) {
  BoxI b = BoxI::empty();
  EXPECT_TRUE(b.isEmpty());
  b.expand({1, 2, 3});
  b.expand({4, 0, 5});
  EXPECT_EQ(b.lo, (Vec3i{1, 0, 3}));
  EXPECT_EQ(b.hi, (Vec3i{5, 3, 6}));
  EXPECT_EQ(b.volume(), 4LL * 3 * 3);
  EXPECT_TRUE(b.contains({1, 0, 3}));
  EXPECT_FALSE(b.contains({5, 0, 3}));  // hi is exclusive
}

TEST(BoxI, Intersect) {
  BoxI a{{0, 0, 0}, {10, 10, 10}};
  BoxI b{{5, -5, 8}, {15, 5, 20}};
  const BoxI c = a.intersect(b);
  EXPECT_EQ(c.lo, (Vec3i{5, 0, 8}));
  EXPECT_EQ(c.hi, (Vec3i{10, 5, 10}));
  BoxI d{{20, 20, 20}, {30, 30, 30}};
  EXPECT_TRUE(a.intersect(d).isEmpty());
}

TEST(BoxD, RayIntersectHitsAndMisses) {
  BoxD b{{0, 0, 0}, {1, 1, 1}};
  double t0, t1;
  ASSERT_TRUE(b.rayIntersect({-1, 0.5, 0.5}, {1, 0, 0}, t0, t1));
  EXPECT_NEAR(t0, 1.0, 1e-12);
  EXPECT_NEAR(t1, 2.0, 1e-12);
  EXPECT_FALSE(b.rayIntersect({-1, 2.0, 0.5}, {1, 0, 0}, t0, t1));
  // Ray starting inside: tNear clamps to 0.
  ASSERT_TRUE(b.rayIntersect({0.5, 0.5, 0.5}, {0, 0, 1}, t0, t1));
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_NEAR(t1, 0.5, 1e-12);
}

TEST(Morton, RoundTripExhaustiveSmall) {
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        const auto code = morton3(Vec3i{x, y, z});
        EXPECT_EQ(mortonDecode3(code), (Vec3i{x, y, z}));
      }
    }
  }
}

TEST(Morton, RoundTripLargeCoordinates) {
  const Vec3i p{(1 << 21) - 1, 12345, 999999};
  EXPECT_EQ(mortonDecode3(morton3(p)), p);
}

TEST(Morton, ParentChildRelation) {
  const auto code = morton3(Vec3i{5, 3, 7});
  for (int o = 0; o < 8; ++o) {
    const auto child = mortonChild(code, o);
    EXPECT_EQ(mortonParent(child), code);
    EXPECT_EQ(mortonOctant(child), o);
  }
}

TEST(Morton, OrderingIsHierarchical) {
  // All children of cell A precede all children of cell B when A < B.
  const auto a = morton3(Vec3i{1, 1, 1});
  const auto b = morton3(Vec3i{2, 1, 1});
  ASSERT_LT(a, b);
  EXPECT_LT(mortonChild(a, 7), mortonChild(b, 0));
}

TEST(Rng, DeterministicStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, ImbalanceFactor) {
  EXPECT_DOUBLE_EQ(imbalanceFactor({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(imbalanceFactor({2, 0}), 2.0);
  EXPECT_NEAR(imbalanceFactor({3, 1, 2}), 1.5, 1e-12);
}

TEST(Stats, RelativeL2) {
  EXPECT_DOUBLE_EQ(relativeL2({1, 2}, {1, 2}), 0.0);
  EXPECT_NEAR(relativeL2({1, 0}, {0, 0}), 1.0, 1e-12);  // absolute fallback
  EXPECT_NEAR(relativeL2({2, 0}, {1, 0}), 1.0, 1e-12);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 9
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(HEMO_CHECK(false), CheckError);
  try {
    HEMO_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Timer, PhaseTimerAccumulates) {
  PhaseTimer t;
  t.start();
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  t.stop();
  EXPECT_GT(t.total(), 0.0);
  const double after = t.total();
  t.reset();
  EXPECT_EQ(t.total(), 0.0);
  EXPECT_GT(after, 0.0);
}

}  // namespace
}  // namespace hemo

#include "util/hilbert.hpp"

namespace hemo {
namespace {

TEST(ParallelFor, ChunksCoverTheRangeExactlyOnce) {
  for (const std::uint64_t n : {0ULL, 1ULL, 4096ULL, 8193ULL, 100003ULL}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    parallelFor(n, [&](std::uint64_t begin, std::uint64_t end) {
      ASSERT_LE(begin, end);
      for (auto i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, RethrowsAChunkException) {
  // The last chunk throws; with more than one hardware thread that chunk
  // runs on a worker.
  EXPECT_THROW(parallelFor(100000,
                           [](std::uint64_t, std::uint64_t end) {
                             if (end == 100000) {
                               throw std::runtime_error("last chunk");
                             }
                           }),
               std::runtime_error);
}

TEST(Hilbert, BijectiveOnSmallCube) {
  std::set<std::uint64_t> seen;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        const auto h = hilbert3(Vec3i{x, y, z}, 3);
        EXPECT_LT(h, 512u);
        seen.insert(h);
      }
    }
  }
  EXPECT_EQ(seen.size(), 512u);  // a bijection onto [0, 8^3)
}

TEST(Hilbert, ConsecutiveIndicesAreAdjacentCells) {
  // The defining Hilbert property (which Morton lacks): cells at
  // consecutive curve positions share a face.
  std::vector<Vec3i> byIndex(512);
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        byIndex[hilbert3(Vec3i{x, y, z}, 3)] = {x, y, z};
      }
    }
  }
  for (std::size_t i = 1; i < byIndex.size(); ++i) {
    const Vec3i d = byIndex[i] - byIndex[i - 1];
    EXPECT_EQ(std::abs(d.x) + std::abs(d.y) + std::abs(d.z), 1)
        << "jump at index " << i;
  }
}

TEST(Hilbert, SegmentsMoreCompactThanMorton) {
  // The operational advantage of the Hilbert order: a contiguous run of
  // curve indices stays geometrically compact. Compare the mean bounding
  // box volume of length-64 segments against the Morton order on a 16^3
  // cube (Morton's octant jumps inflate the boxes).
  auto meanSegmentBoxVolume = [](auto indexOf) {
    std::vector<Vec3i> byIndex(16 * 16 * 16);
    for (int x = 0; x < 16; ++x) {
      for (int y = 0; y < 16; ++y) {
        for (int z = 0; z < 16; ++z) {
          byIndex[static_cast<std::size_t>(indexOf(Vec3i{x, y, z}))] =
              Vec3i{x, y, z};
        }
      }
    }
    double total = 0.0;
    int segments = 0;
    for (std::size_t start = 0; start + 64 <= byIndex.size(); start += 64) {
      BoxI box = BoxI::empty();
      for (std::size_t i = start; i < start + 64; ++i) box.expand(byIndex[i]);
      total += static_cast<double>(box.volume());
      ++segments;
    }
    return total / segments;
  };
  const double hilbertVol =
      meanSegmentBoxVolume([](const Vec3i& p) { return hilbert3(p, 4); });
  const double mortonVol =
      meanSegmentBoxVolume([](const Vec3i& p) { return morton3(p); });
  EXPECT_LE(hilbertVol, mortonVol);
  // Hilbert length-64 segments are connected, so they fit in tight boxes.
  EXPECT_LT(hilbertVol, 200.0);
}

}  // namespace
}  // namespace hemo
