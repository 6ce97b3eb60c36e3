#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(JainFairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({3.0, 3.0, 3.0}), 1.0);
}

TEST(JainFairness, MaximallyUnfair) {
  EXPECT_NEAR(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainFairness, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

TEST(TallyTest, CountsAndTotal) {
  Tally<int> t;
  t.add(1);
  t.add(1, 2);
  t.add(7);
  EXPECT_EQ(t.get(1), 3u);
  EXPECT_EQ(t.get(7), 1u);
  EXPECT_EQ(t.get(99), 0u);
  EXPECT_EQ(t.total(), 4u);
  t.clear();
  EXPECT_EQ(t.total(), 0u);
}

}  // namespace
}  // namespace alphawan
