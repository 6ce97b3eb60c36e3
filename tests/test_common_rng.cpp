#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace alphawan {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all of 2,3,4,5 hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(15);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-3, 1);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 1);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(21);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(rng.exponential(3.0), 0.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(25);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(27);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// The GA's crossover draws its fair coins as (next() >> 63) == 0: with
// uniform() = (next() >> 11) * 2^-53, uniform() < 0.5 holds exactly when
// bit 63 of the draw is clear. Two generators on one seed must agree on
// every draw, including the draws on either side of the 0.5 boundary.
TEST(Rng, TopBitClearIsChanceOneHalf) {
  Rng bits(29);
  Rng coins(29);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    const bool clear = (bits.next() >> 63) == 0;
    ASSERT_EQ(clear, coins.chance(0.5)) << "draw " << i;
    heads += clear ? 1 : 0;
  }
  EXPECT_NEAR(heads / 100000.0, 0.5, 0.01);
  // The boundary: the largest draw with bit 63 clear maps below 0.5, the
  // smallest with it set maps to exactly 0.5.
  EXPECT_LT(static_cast<double>(0x7fffffffffffffffULL >> 11) * 0x1.0p-53,
            0.5);
  EXPECT_EQ(static_cast<double>(0x8000000000000000ULL >> 11) * 0x1.0p-53,
            0.5);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(31);
  (void)parent_copy.next();  // fork consumed one draw
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next() == parent_copy.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// Regression: copying an Rng mid-Box-Muller-pair used to duplicate the
// cached second sample into the copy, silently correlating the streams.
TEST(Rng, CopyDropsCachedNormalSample) {
  Rng original(41);
  (void)original.normal();  // generates a pair, caches the second half
  Rng copied(original);
  const double cached = original.normal();  // the cached second half
  // The copy must draw a FRESH pair from the shared state, not replay the
  // original's cached half.
  const double copy_fresh = copied.normal();
  EXPECT_NE(copy_fresh, cached);
  // Both sides continue from the same xoshiro state, so the copy's first
  // fresh normal equals the original's next fresh pair.
  EXPECT_DOUBLE_EQ(copy_fresh, original.normal());
}

TEST(Rng, CopyAssignmentDropsCachedNormalSample) {
  Rng original(43);
  (void)original.normal();
  Rng assigned(1);
  assigned = original;
  const double cached = original.normal();
  EXPECT_NE(assigned.normal(), cached);
}

TEST(Rng, CopyPreservesUniformStream) {
  Rng original(45);
  (void)original.next();
  Rng copied(original);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(copied.next(), original.next());
}

TEST(Rng, ReseedMatchesFreshInstance) {
  Rng reused(47);
  // Pollute all state, including the normal cache.
  for (int i = 0; i < 10; ++i) (void)reused.next();
  (void)reused.normal();
  reused.reseed(99);
  Rng fresh(99);
  EXPECT_EQ(reused.root_seed(), fresh.root_seed());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(reused.next(), fresh.next());
    EXPECT_DOUBLE_EQ(reused.normal(), fresh.normal());
  }
}

TEST(Rng, SubstreamIndependentOfParentDraws) {
  // Substreams derive from the root SEED, not the evolving state — the
  // anchor of deterministic replay.
  Rng parent(51);
  Rng before = parent.substream("fading");
  for (int i = 0; i < 100; ++i) (void)parent.next();
  Rng after = parent.substream("fading");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(before.next(), after.next());
}

TEST(Rng, SubstreamsAreDistinct) {
  Rng parent(53);
  Rng a = parent.substream("alpha");
  Rng b = parent.substream("beta");
  Rng c = parent.substream(1, 0);
  Rng d = parent.substream(0, 1);
  int ab = 0, cd = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++ab;
    if (c.next() == d.next()) ++cd;
  }
  EXPECT_LT(ab, 2);
  EXPECT_LT(cd, 2);
}

TEST(Rng, SubstreamDependsOnRootSeed) {
  Rng x = Rng(1).substream("s");
  Rng y = Rng(2).substream("s");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (x.next() == y.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace alphawan
