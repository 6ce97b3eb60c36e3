#include "net/end_node.hpp"

#include <gtest/gtest.h>

#include "phy/airtime.hpp"

namespace alphawan {
namespace {

NodeRadioConfig test_config() {
  NodeRadioConfig cfg;
  cfg.channel = Channel{Hz{915.1e6}, Hz{125e3}};
  cfg.dr = DataRate::kDR4;  // SF8
  cfg.tx_power = Dbm{11.0};
  return cfg;
}

TEST(EndNode, TransmissionCarriesRadioSettings) {
  EndNode node(7, 2, Point{Meters{100}, Meters{200}}, test_config());
  const auto tx = node.make_transmission(Seconds{5.0}, 10, 99);
  EXPECT_EQ(tx.id, 99u);
  EXPECT_EQ(tx.node, 7u);
  EXPECT_EQ(tx.network, 2);
  EXPECT_EQ(tx.channel, test_config().channel);
  EXPECT_EQ(tx.params.sf, SpreadingFactor::kSF8);
  EXPECT_DOUBLE_EQ(tx.tx_power.value(), 11.0);
  EXPECT_DOUBLE_EQ(tx.start.value(), 5.0);
  EXPECT_EQ(tx.origin, (Point{Meters{100}, Meters{200}}));
  EXPECT_EQ(tx.sync_word, sync_word_for_network(2));
}

TEST(EndNode, TimingConsistency) {
  EndNode node(1, 0, {}, test_config());
  const auto tx = node.make_transmission(Seconds{1.0}, 10, 1);
  EXPECT_DOUBLE_EQ(tx.lock_on().value(),
                   1.0 + preamble_duration(tx.params).value());
  EXPECT_DOUBLE_EQ(tx.end().value(), 1.0 + time_on_air(tx.params, 10).value());
  EXPECT_GT(tx.end(), tx.lock_on());
}

TEST(EndNode, FrameCounterIncrements) {
  EndNode node(1, 0, {}, test_config());
  EXPECT_EQ(node.fcnt(), 0);
  (void)node.make_transmission(Seconds{0.0}, 10, 1);
  (void)node.make_transmission(Seconds{1.0}, 10, 2);
  EXPECT_EQ(node.fcnt(), 2);
}

TEST(EndNode, ApplyConfigTakesEffect) {
  EndNode node(1, 0, {}, test_config());
  NodeRadioConfig next = test_config();
  next.dr = DataRate::kDR0;
  next.tx_power = Dbm{20.0};
  node.apply_config(next);
  const auto tx = node.make_transmission(Seconds{0.0}, 10, 1);
  EXPECT_EQ(tx.params.sf, SpreadingFactor::kSF12);
  EXPECT_DOUBLE_EQ(tx.tx_power.value(), 20.0);
}

TEST(EndNode, DutyCycleGate) {
  EndNode node(1, 0, {}, test_config());
  EXPECT_DOUBLE_EQ(node.next_allowed_start(0.01).value(), 0.0);  // never transmitted
  const auto tx = node.make_transmission(Seconds{0.0}, 10, 1);
  const Seconds airtime = time_on_air(tx.params, 10);
  // 1% duty cycle: off-time = 99x airtime after the packet ends.
  EXPECT_NEAR(node.next_allowed_start(0.01).value(),
              (tx.end() + 99.0 * airtime).value(), 1e-9);
  // 100% duty cycle: no wait.
  EXPECT_DOUBLE_EQ(node.next_allowed_start(1.0).value(), 0.0);
}

}  // namespace
}  // namespace alphawan
