#include "backhaul/latency_model.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace alphawan {
namespace {

TEST(LatencyModel, LanTransferIsRttPlusSerialization) {
  LatencyModel model;
  const auto& cfg = model.config();
  EXPECT_DOUBLE_EQ(model.lan_transfer(0).value(), cfg.lan_rtt.value());
  const std::size_t mb = 1'000'000;
  EXPECT_DOUBLE_EQ(
      model.lan_transfer(mb).value(),
      cfg.lan_rtt.value() + static_cast<double>(mb) / cfg.lan_bytes_per_second);
  EXPECT_GT(model.lan_transfer(2 * mb), model.lan_transfer(mb));
}

TEST(LatencyModel, WanLatencyIsPositiveAndNearMean) {
  LatencyModel model;
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Seconds s = model.wan_one_way();
    ASSERT_GE(s, Seconds{1e-3});  // clamped floor
    sum += s.value();
  }
  // Fig. 17: operator <-> Master one-way ~55 ms.
  EXPECT_NEAR(sum / n, model.config().wan_one_way_mean.value(), 0.002);
}

TEST(LatencyModel, MasterRoundTripCoversTwoLegs) {
  LatencyModel model;
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Seconds rtt = model.master_round_trip();
    ASSERT_GT(rtt, Seconds{0.0});
    sum += rtt.value();
  }
  EXPECT_NEAR(sum / n, 2.0 * model.config().wan_one_way_mean.value(), 0.004);
}

TEST(LatencyModel, RebootMatchesFig17Measurement) {
  LatencyModel model;
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Seconds reboot = model.gateway_reboot();
    ASSERT_GE(reboot, Seconds{0.5});  // clamped floor
    sum += reboot.value();
  }
  EXPECT_NEAR(sum / n, model.config().reboot_mean.value(), 0.05);
}

TEST(LatencyModel, ConfigPushAddsBaseCost) {
  LatencyModel model;
  EXPECT_DOUBLE_EQ(
      model.config_push(512).value(),
      (model.config().config_push_base + model.lan_transfer(512)).value());
}

TEST(LatencyModel, SameSeedReproducesSequence) {
  LatencyModel a(LatencyModelConfig{}, 99);
  LatencyModel b(LatencyModelConfig{}, 99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.wan_one_way().value(), b.wan_one_way().value());
    EXPECT_DOUBLE_EQ(a.gateway_reboot().value(), b.gateway_reboot().value());
  }
}

TEST(LatencyModelTest, RebootNearPaperMean) {
  LatencyModel latency{LatencyModelConfig{}, 11};
  double sum = 0.0;
  double shortest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 500; ++i) {
    const double reboot = latency.gateway_reboot().value();
    sum += reboot;
    shortest = std::min(shortest, reboot);
  }
  EXPECT_NEAR(sum / 500.0, 4.62, 0.15);  // paper: 4.62 s average
  EXPECT_GT(shortest, 0.4);
}

TEST(LatencyModelTest, MasterRoundTripInPaperRange) {
  // Paper Fig. 17: the two operator-to-Master exchanges of an upgrade add
  // 0.17-0.28 s, i.e. ~0.1 s per round trip.
  LatencyModel latency{LatencyModelConfig{}, 13};
  for (int i = 0; i < 200; ++i) {
    const Seconds rtt = latency.master_round_trip();
    EXPECT_GT(rtt, Seconds{0.05});
    EXPECT_LT(rtt, Seconds{0.25});
  }
}

TEST(LatencyModelTest, LanTransferScalesWithBytes) {
  LatencyModel latency{LatencyModelConfig{}, 15};
  EXPECT_LT(latency.lan_transfer(100), latency.lan_transfer(100'000'000));
}

}  // namespace
}  // namespace alphawan
