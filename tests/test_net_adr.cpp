#include "net/adr.hpp"

#include <gtest/gtest.h>

#include "baselines/standard_lorawan.hpp"
#include "phy/sensitivity.hpp"
#include "sim/topology.hpp"

namespace alphawan {
namespace {

NodeRadioConfig base_config() {
  NodeRadioConfig cfg;
  cfg.channel = Channel{Hz{915e6}, Hz{125e3}};
  cfg.dr = DataRate::kDR0;
  cfg.tx_power = Dbm{14.0};
  return cfg;
}

TEST(Adr, StrongLinkClimbsToDr5AndCutsPower) {
  // SNR 15 dB vs SF12 threshold -20 and margin 8: huge headroom -> DR5 and
  // reduced power (the Fig. 6d/6e skew).
  const auto next = standard_adr(base_config(), Db{15.0});
  EXPECT_EQ(next.dr, DataRate::kDR5);
  EXPECT_LT(next.tx_power, Dbm{14.0});
}

TEST(Adr, ModerateLinkPartialClimb) {
  // SNR -10: margin over SF12 = -10 -(-20) - 8 = 2 dB -> 0 steps at 3 dB.
  const auto none = standard_adr(base_config(), Db{-10.0});
  EXPECT_EQ(none.dr, DataRate::kDR0);
  // SNR -3: margin = 9 -> 3 steps -> DR3.
  const auto some = standard_adr(base_config(), Db{-3.0});
  EXPECT_EQ(some.dr, DataRate::kDR3);
  EXPECT_DOUBLE_EQ(some.tx_power.value(), 14.0);
}

TEST(Adr, PowerFloorRespected) {
  const auto next = standard_adr(base_config(), Db{60.0});
  EXPECT_GE(next.tx_power, Dbm{2.0});
  EXPECT_EQ(next.dr, DataRate::kDR5);
}

TEST(Adr, NegativeMarginBacksOff) {
  NodeRadioConfig cfg = base_config();
  cfg.dr = DataRate::kDR5;  // SF7 threshold -7.5
  cfg.tx_power = Dbm{8.0};
  // SNR -6: margin = -6 + 7.5 - 8 = -6.5 -> -3 steps: raise power to 14
  // (2 steps), then drop DR by 1.
  const auto next = standard_adr(cfg, Db{-6.0});
  EXPECT_DOUBLE_EQ(next.tx_power.value(), 14.0);
  EXPECT_EQ(next.dr, DataRate::kDR4);
}

TEST(Adr, KeepsChannel) {
  const auto next = standard_adr(base_config(), Db{15.0});
  EXPECT_EQ(next.channel, base_config().channel);
}

// A node heard by a weak and a strong gateway climbs from the strong link;
// with the weak gateway alone the same node keeps DR0.
TEST(Adr, UsesBestGatewaySnr) {
  auto configured_dr = [](bool with_strong_gateway) {
    ChannelModelConfig channel;
    channel.shadowing_sigma_db = Db{0.0};
    Deployment deployment(Region{Meters{2000.0}, Meters{1000.0}},
                          spectrum_1m6(), channel);
    Network& net = deployment.add_network("op");
    const Gateway& weak =
        net.add_gateway(deployment.next_gateway_id(),
                        Point{Meters{1400.0}, Meters{500.0}}, default_profile());
    if (with_strong_gateway) {
      (void)net.add_gateway(deployment.next_gateway_id(),
                            Point{Meters{150.0}, Meters{500.0}},
                            default_profile());
    }
    EndNode& node = net.add_node(deployment.next_node_id(),
                                 Point{Meters{100.0}, Meters{500.0}},
                                 NodeRadioConfig{});
    // The weak link alone leaves no margin step at DR0.
    const Db weak_margin = deployment.mean_snr(node, weak) -
                           demod_snr_threshold(SpreadingFactor::kSF12) -
                           AdrConfig{}.installation_margin;
    EXPECT_LT(weak_margin, Db{3.0});  // one ADR step (net/adr.cpp)
    StandardLorawanOptions options;
    options.use_adr = true;
    Rng rng(7);
    StandardLorawanPolicy(options).configure(deployment, net, rng);
    return node.config().dr;
  };
  EXPECT_EQ(configured_dr(/*with_strong_gateway=*/true), DataRate::kDR5);
  EXPECT_EQ(configured_dr(/*with_strong_gateway=*/false), DataRate::kDR0);
}

}  // namespace
}  // namespace alphawan
