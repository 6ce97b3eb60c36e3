#include "phy/band_plan.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(BandPlan, GridSizeMatchesSpectrum) {
  EXPECT_EQ(spectrum_1m6().grid_size(), 8);
  EXPECT_EQ(spectrum_4m8().grid_size(), 24);
}

TEST(BandPlan, GridCentersSpacedCorrectly) {
  const Spectrum s = spectrum_4m8();
  EXPECT_DOUBLE_EQ(s.grid_center(0).value(), s.base.value() + 100e3);
  EXPECT_DOUBLE_EQ((s.grid_center(1) - s.grid_center(0)).value(),
                   kChannelSpacing.value());
}

TEST(BandPlan, GridChannelsInsideSpectrum) {
  const Spectrum s = spectrum_4m8();
  for (const auto& ch : s.grid_channels()) {
    EXPECT_TRUE(s.contains(ch));
  }
}

TEST(BandPlan, NearestGridIndexRoundTrips) {
  const Spectrum s = spectrum_4m8();
  for (int i = 0; i < s.grid_size(); ++i) {
    EXPECT_EQ(s.nearest_grid_index(s.grid_center(i)), i);
    // Slightly offset (misaligned) channels still map to the grid index.
    EXPECT_EQ(s.nearest_grid_index(s.grid_center(i) + Hz{40e3}), i);
  }
}

TEST(BandPlan, StandardPlanHasEightChannels) {
  const Spectrum s = spectrum_4m8();
  for (int p = 0; p < num_standard_plans(s); ++p) {
    const auto plan = standard_plan(s, p);
    EXPECT_EQ(plan.size(), 8u);
    EXPECT_LE(plan.span(), Hz{1.6e6 + 1.0});
  }
}

TEST(BandPlan, StandardPlansPartitionSpectrum) {
  const Spectrum s = spectrum_4m8();
  EXPECT_EQ(num_standard_plans(s), 3);
  const auto p0 = standard_plan(s, 0);
  const auto p1 = standard_plan(s, 1);
  EXPECT_LT(p0.channels.back().center, p1.channels.front().center);
}

TEST(BandPlan, StandardPlanOutOfRangeThrows) {
  const Spectrum s = spectrum_1m6();
  EXPECT_NO_THROW(standard_plan(s, 0));
  EXPECT_THROW(standard_plan(s, 1), std::out_of_range);
  EXPECT_THROW(standard_plan(s, -1), std::out_of_range);
}

TEST(BandPlan, OracleCapacity) {
  // 8 channels x 6 SFs = 48 in 1.6 MHz; 24 x 6 = 144 in 4.8 MHz — the
  // theoretical bounds quoted throughout the paper.
  EXPECT_EQ(oracle_capacity(spectrum_1m6()), 48);
  EXPECT_EQ(oracle_capacity(spectrum_4m8()), 144);
}

TEST(BandPlan, ChannelEdges) {
  Channel ch{Hz{915e6}, Hz{125e3}};
  EXPECT_DOUBLE_EQ(ch.low().value(), 915e6 - 62.5e3);
  EXPECT_DOUBLE_EQ(ch.high().value(), 915e6 + 62.5e3);
}

TEST(BandPlan, EmptyPlanSpanZero) {
  ChannelPlan plan;
  EXPECT_DOUBLE_EQ(plan.span().value(), 0.0);
}

TEST(BandPlan, PlanSpanCoversOuterEdges) {
  ChannelPlan plan;
  plan.channels = {Channel{Hz{915.0e6}, Hz{125e3}},
                   Channel{Hz{915.4e6}, Hz{125e3}}};
  EXPECT_DOUBLE_EQ(plan.span().value(), 0.4e6 + 125e3);
}

TEST(BandPlan, PlanSpanCoversMixedBandwidthEdges) {
  // The 500 kHz channel's low edge (901.85 MHz) lies below the
  // lowest-centre channel's (901.9375 MHz).
  ChannelPlan plan;
  plan.channels = {Channel{Hz{902.0e6}, kLoRaBandwidth125k},
                   Channel{Hz{902.1e6}, kLoRaBandwidth500k},
                   Channel{Hz{903.4e6}, kLoRaBandwidth125k}};
  EXPECT_DOUBLE_EQ(plan.span().value(), 1.6125e6);
}

}  // namespace
}  // namespace alphawan
