#include "sim/traffic.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "phy/band_plan.hpp"

namespace alphawan {
namespace {

std::vector<std::unique_ptr<EndNode>> make_nodes(std::size_t count) {
  std::vector<std::unique_ptr<EndNode>> nodes;
  const Spectrum s = spectrum_1m6();
  for (std::size_t i = 0; i < count; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = s.grid_channel(static_cast<int>(i % 8));
    cfg.dr = static_cast<DataRate>(i % kNumDataRates);
    nodes.push_back(std::make_unique<EndNode>(
        static_cast<NodeId>(i + 1), 0, Point{}, cfg));
  }
  return nodes;
}

std::vector<EndNode*> raw(const std::vector<std::unique_ptr<EndNode>>& nodes) {
  std::vector<EndNode*> out;
  for (const auto& n : nodes) out.push_back(n.get());
  return out;
}

TEST(Traffic, ConcurrentBurstAllStartTogether) {
  auto nodes = make_nodes(10);
  PacketIdSource ids;
  const auto txs = concurrent_burst(raw(nodes), Seconds{3.0}, ids);
  ASSERT_EQ(txs.size(), 10u);
  for (const auto& tx : txs) EXPECT_DOUBLE_EQ(tx.start.value(), 3.0);
}

TEST(Traffic, PacketIdsUnique) {
  auto nodes = make_nodes(20);
  PacketIdSource ids;
  const auto a = concurrent_burst(raw(nodes), Seconds{0.0}, ids);
  const auto b = concurrent_burst(raw(nodes), Seconds{10.0}, ids);
  std::set<PacketId> seen;
  for (const auto& tx : a) seen.insert(tx.id);
  for (const auto& tx : b) seen.insert(tx.id);
  EXPECT_EQ(seen.size(), 40u);
}

TEST(Traffic, StaggeredByLockOnOrdersLockOns) {
  // Scheme (b): even with wildly different preamble lengths (mixed SFs),
  // the lock-on instants are in node order.
  auto nodes = make_nodes(12);
  PacketIdSource ids;
  const auto txs = staggered_by_lock_on(raw(nodes), Seconds{0.0}, Seconds{0.001}, ids);
  for (std::size_t i = 0; i + 1 < txs.size(); ++i) {
    EXPECT_LT(txs[i].lock_on(), txs[i + 1].lock_on());
  }
}

TEST(Traffic, PoissonRateApproximatelyCorrect) {
  auto nodes = make_nodes(50);
  PacketIdSource ids;
  Rng rng(5);
  const Seconds window{1000.0};
  const double rate = 0.01;  // 10 packets per node expected
  const auto txs = poisson_traffic(raw(nodes), window, rate, rng, ids,
                                   /*duty=*/1.0);
  const double expected = 50 * window.value() * rate;
  EXPECT_NEAR(static_cast<double>(txs.size()), expected, expected * 0.2);
}

TEST(Traffic, PoissonRespectsWindow) {
  auto nodes = make_nodes(5);
  PacketIdSource ids;
  Rng rng(7);
  const auto txs = poisson_traffic(raw(nodes), Seconds{100.0}, 0.1, rng, ids, 1.0);
  for (const auto& tx : txs) {
    EXPECT_GE(tx.start, Seconds{0.0});
    EXPECT_LT(tx.start, Seconds{100.0});
  }
}

TEST(Traffic, PoissonHonorsDutyCycle) {
  // A node asked to transmit far faster than 1% duty allows must be paced:
  // consecutive packets of the same node keep >= 99x airtime spacing.
  auto nodes = make_nodes(1);
  PacketIdSource ids;
  Rng rng(9);
  const auto txs =
      poisson_traffic(raw(nodes), Seconds{2000.0}, 1.0, rng, ids, /*duty=*/0.01);
  ASSERT_GT(txs.size(), 1u);
  for (std::size_t i = 1; i < txs.size(); ++i) {
    const Seconds airtime = txs[i - 1].end() - txs[i - 1].start;
    EXPECT_GE(txs[i].start - txs[i - 1].end(), 99.0 * airtime - Seconds{1e-6});
  }
  // Aggregate duty cycle stays at (or below) the cap.
  Seconds busy{0.0};
  for (const auto& tx : txs) busy += tx.end() - tx.start;
  EXPECT_LE(busy.value() / 2000.0, 0.011);
}

TEST(Traffic, EmulatedUsersCarryVirtualIds) {
  auto nodes = make_nodes(3);
  PacketIdSource ids;
  Rng rng(11);
  const auto txs = emulated_user_traffic(raw(nodes), /*users_per_node=*/4,
                                         Seconds{500.0}, 0.01, rng, ids,
                                         /*virtual_base=*/1000);
  std::set<NodeId> users;
  for (const auto& tx : txs) {
    EXPECT_GE(tx.node, 1000u);
    users.insert(tx.node);
  }
  EXPECT_LE(users.size(), 12u);
  EXPECT_GT(users.size(), 6u);  // most virtual users get at least a packet
}

TEST(Traffic, EmulatedUsersShareOriginPosition) {
  auto nodes = make_nodes(1);
  PacketIdSource ids;
  Rng rng(13);
  const auto txs =
      emulated_user_traffic(raw(nodes), 5, Seconds{500.0}, 0.02, rng, ids, 1000);
  for (const auto& tx : txs) {
    EXPECT_EQ(tx.origin, nodes[0]->position());
  }
}

TEST(Traffic, SortByStartStable) {
  auto nodes = make_nodes(4);
  PacketIdSource ids;
  auto txs = concurrent_burst(raw(nodes), Seconds{1.0}, ids);
  std::reverse(txs.begin(), txs.end());
  sort_by_start(txs);
  for (std::size_t i = 0; i + 1 < txs.size(); ++i) {
    EXPECT_LT(txs[i].id, txs[i + 1].id);  // tie-break by packet id
  }
}

}  // namespace
}  // namespace alphawan
