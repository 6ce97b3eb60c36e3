#include "net/channel_plan.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(ChannelPlanConfig, DiffCountsChanges) {
  NetworkChannelConfig current;
  current.gateways[1] = {{Channel{Hz{915e6}, Hz{125e3}}}};
  current.nodes[10] = NodeRadioConfig{Channel{Hz{915e6}, Hz{125e3}},
                                      DataRate::kDR3, Dbm{14.0}};
  NetworkChannelConfig proposed = current;
  EXPECT_EQ(diff_config(current, proposed).gateways_changed, 0u);
  EXPECT_EQ(diff_config(current, proposed).nodes_changed, 0u);

  proposed.gateways[1] = {{Channel{Hz{915.2e6}, Hz{125e3}}}};
  proposed.nodes[10].dr = DataRate::kDR5;
  proposed.nodes[11] = NodeRadioConfig{};  // new node
  const auto delta = diff_config(current, proposed);
  EXPECT_EQ(delta.gateways_changed, 1u);
  EXPECT_EQ(delta.nodes_changed, 2u);
}

TEST(ChannelPlanConfig, DiffNewGatewayCounts) {
  NetworkChannelConfig current;
  NetworkChannelConfig proposed;
  proposed.gateways[5] = {{Channel{Hz{915e6}, Hz{125e3}}}};
  EXPECT_EQ(diff_config(current, proposed).gateways_changed, 1u);
}

TEST(ChannelPlanConfig, ValidForProfile) {
  const auto profile = default_profile();  // 8 chains, 1.6 MHz
  GatewayChannelConfig ok;
  for (int i = 0; i < 8; ++i) {
    ok.channels.push_back(Channel{Hz{915e6 + 200e3 * i}, Hz{125e3}});
  }
  EXPECT_TRUE(valid_for_profile(ok, profile));

  GatewayChannelConfig empty;
  EXPECT_FALSE(valid_for_profile(empty, profile));

  GatewayChannelConfig too_many = ok;
  too_many.channels.push_back(Channel{Hz{915e6 + 50e3}, Hz{125e3}});
  EXPECT_FALSE(valid_for_profile(too_many, profile));

  GatewayChannelConfig too_wide;
  too_wide.channels = {Channel{Hz{915e6}, Hz{125e3}}, Channel{Hz{917e6}, Hz{125e3}}};
  EXPECT_FALSE(valid_for_profile(too_wide, profile));
}

TEST(ChannelPlanConfig, HomogeneousStandardSpreadsPlans) {
  const Spectrum s = spectrum_4m8();  // 3 standard plans
  const auto config =
      homogeneous_standard_config(s, {1, 2, 3, 4}, /*spread=*/true);
  ASSERT_EQ(config.gateways.size(), 4u);
  // Gateways 1 and 4 share plan 0; 2 gets plan 1; 3 gets plan 2.
  EXPECT_EQ(config.gateways.at(1), config.gateways.at(4));
  EXPECT_NE(config.gateways.at(1), config.gateways.at(2));
  EXPECT_NE(config.gateways.at(2), config.gateways.at(3));
}

TEST(ChannelPlanConfig, HomogeneousStandardSinglePlan) {
  const Spectrum s = spectrum_1m6();
  const auto config =
      homogeneous_standard_config(s, {1, 2, 3}, /*spread=*/true);
  EXPECT_EQ(config.gateways.at(1), config.gateways.at(2));
  EXPECT_EQ(config.gateways.at(2), config.gateways.at(3));
  EXPECT_EQ(config.gateways.at(1).channels.size(), 8u);
}

TEST(ChannelPlanConfig, ValidForProfileMeasuresMixedBandwidthEdges) {
  // True span 901.85-903.4625 MHz = 1.6125 MHz: over the 1.6 MHz B_j.
  const GatewayChannelConfig mixed{{Channel{Hz{902.0e6}, kLoRaBandwidth125k},
                                    Channel{Hz{902.1e6}, kLoRaBandwidth500k},
                                    Channel{Hz{903.4e6}, kLoRaBandwidth125k}}};
  EXPECT_FALSE(valid_for_profile(mixed, profile_rak7268cv2()));
}

}  // namespace
}  // namespace alphawan
