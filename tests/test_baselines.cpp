#include "baselines/cic.hpp"
#include "baselines/lmac.hpp"
#include "baselines/random_cp.hpp"
#include "baselines/standard_lorawan.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

ChannelModelConfig quiet_channel() {
  // The paper's controlled capacity experiments use stable links (fixed
  // node placements, clear margins); heavy shadowing would conflate
  // decoder contention with RF capture losses.
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{0.3};
  cfg.fast_fading_sigma_db = Db{0.1};
  return cfg;
}

struct BaselineFixture {
  Deployment deployment{Region{Meters{1200.0}, Meters{1000.0}}, spectrum_1m6()};
  Network* network = nullptr;
  Rng rng{41};

  BaselineFixture() {
    network = &deployment.add_network("op");
    deployment.place_gateways(*network, 3, default_profile(), rng);
    deployment.place_nodes(*network, 30, rng);
  }
};

TEST(StandardLorawan, GatewaysHomogeneous) {
  BaselineFixture f;
  StandardLorawanPolicy().configure(f.deployment, *f.network, f.rng);
  const auto& gws = f.network->gateways();
  // 1.6 MHz holds a single standard plan: all identical.
  for (std::size_t i = 1; i < gws.size(); ++i) {
    EXPECT_EQ(gws[i].channels(), gws[0].channels());
  }
  EXPECT_EQ(gws[0].channels().size(), 8u);
}

TEST(StandardLorawan, AdrSkewsTowardsFastRates) {
  // Fig. 6d/6e: standard ADR pushes most users to high DRs.
  BaselineFixture f;
  StandardLorawanOptions options;
  options.use_adr = true;
  StandardLorawanPolicy(options).configure(f.deployment, *f.network, f.rng);
  int dr45 = 0;
  for (const auto& node : f.network->nodes()) {
    if (node.config().dr == DataRate::kDR5 ||
        node.config().dr == DataRate::kDR4) {
      ++dr45;
    }
  }
  EXPECT_GT(dr45, static_cast<int>(f.network->nodes().size()) / 2);
}

TEST(StandardLorawan, NoAdrStaysAtDr0) {
  BaselineFixture f;
  StandardLorawanOptions options;
  options.use_adr = false;
  StandardLorawanPolicy(options).configure(f.deployment, *f.network, f.rng);
  for (const auto& node : f.network->nodes()) {
    EXPECT_EQ(node.config().dr, DataRate::kDR0);
  }
}

TEST(RandomCp, ChannelsValidAndReduced) {
  BaselineFixture f;
  RandomCpPolicy().configure(f.deployment, *f.network, f.rng);
  for (const auto& gw : f.network->gateways()) {
    EXPECT_GE(gw.channels().size(), 2u);
    EXPECT_LE(gw.channels().size(), 4u);
    EXPECT_TRUE(valid_for_profile(GatewayChannelConfig{gw.channels()},
                                  gw.profile()));
    // Channels sit on the standard grid.
    for (const auto& ch : gw.channels()) {
      const int idx = f.deployment.spectrum().nearest_grid_index(ch.center);
      EXPECT_NEAR(ch.center.value(),
                  f.deployment.spectrum().grid_center(idx).value(), 1.0);
    }
  }
}

TEST(Lmac, EliminatesInRangeSameChannelOverlap) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  // 6 nodes, all on the same channel and SF: guaranteed collisions
  // without carrier sensing.
  for (int i = 0; i < 6; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = f.deployment.spectrum().grid_channel(0);
    cfg.dr = DataRate::kDR5;
    auto& node = f.network->add_node(f.deployment.next_node_id(),
                                     Point{Meters{500.0 + i * 10.0}, Meters{500.0}}, cfg);
    nodes.push_back(&node);
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(3);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  ASSERT_EQ(scheduled.size(), 6u);
  // After CSMA, no two same-channel transmissions within sense range
  // overlap in time.
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    for (std::size_t j = i + 1; j < scheduled.size(); ++j) {
      EXPECT_FALSE(scheduled[i].overlaps_in_time(scheduled[j]))
          << i << " vs " << j;
    }
  }
}

TEST(Lmac, DifferentChannelsUntouched) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = f.deployment.spectrum().grid_channel(i);
    cfg.dr = DataRate::kDR5;
    nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                         Point{Meters{500}, Meters{500}}, cfg));
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(5);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  for (const auto& tx : scheduled) EXPECT_DOUBLE_EQ(tx.start.value(), 0.0);
}

TEST(Lmac, HiddenTerminalsStillCollide) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  NodeRadioConfig cfg;
  cfg.channel = f.deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR5;
  // Two nodes far apart (beyond the 1.5 km sense range).
  nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                       Point{Meters{0}, Meters{0}}, cfg));
  nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                       Point{Meters{1200}, Meters{990}}, cfg));
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  LmacOptions options;
  options.sense_range = Meters{800.0};
  Rng rng(7);
  const auto scheduled = LmacPolicy(options).shape_window(txs, rng);
  EXPECT_TRUE(scheduled[0].overlaps_in_time(scheduled[1]));
}

TEST(Lmac, DeferralBounded) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  NodeRadioConfig cfg;
  cfg.channel = f.deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR0;  // long airtime: deferrals add up
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                         Point{Meters{500}, Meters{500}}, cfg));
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  LmacOptions options;
  options.max_defer = Seconds{2.0};
  Rng rng(9);
  const auto scheduled = LmacPolicy(options).shape_window(txs, rng);
  for (const auto& tx : scheduled) {
    EXPECT_LE(tx.start, Seconds{2.0 + 1e-9});
  }
}

TEST(Cic, ResolvesSmallCollisions) {
  // Two same-SF same-channel packets collide on a stock gateway; a CIC
  // receiver recovers both.
  Deployment deployment{Region{Meters{600.0}, Meters{600.0}}, spectrum_1m6(), quiet_channel()};
  auto& network = deployment.add_network("op");
  auto& gw = network.add_gateway(1, deployment.region().center(),
                                 default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(deployment.spectrum(), 0).channels});
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR3;
  auto& n1 = network.add_node(1, Point{Meters{300}, Meters{310}}, cfg);
  auto& n2 = network.add_node(2, Point{Meters{310}, Meters{300}}, cfg);

  PacketIdSource ids;
  ScenarioRunner runner(deployment);
  std::vector<Transmission> txs = {n1.make_transmission(Seconds{0.0}, 10, ids.next()),
                                   n2.make_transmission(Seconds{0.0}, 10, ids.next())};
  const auto stock = runner.run_window(txs);
  EXPECT_EQ(stock.total_delivered(), 0u);

  RunOptions cic_options;
  cic_options.capture_policy = std::make_shared<CicCapturePolicy>();
  ScenarioRunner cic_runner(deployment, 7, std::move(cic_options));
  txs = {n1.make_transmission(Seconds{10.0}, 10, ids.next()),
         n2.make_transmission(Seconds{10.0}, 10, ids.next())};
  const auto with_cic = cic_runner.run_window(txs);
  EXPECT_EQ(with_cic.total_delivered(), 2u);
}

TEST(Cic, BoundedResolvability) {
  // Five overlapping same-channel packets exceed max_resolvable=3: CIC
  // leaves them collided.
  Deployment deployment{Region{Meters{600.0}, Meters{600.0}}, spectrum_1m6(), quiet_channel()};
  auto& network = deployment.add_network("op");
  auto& gw = network.add_gateway(1, deployment.region().center(),
                                 default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(deployment.spectrum(), 0).channels});
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR3;
  std::vector<EndNode*> nodes;
  // Equidistant ring: no capture winner, a genuine 5-way collision.
  const Point ring[5] = {Point{Meters{330}, Meters{300}},
                         Point{Meters{309}, Meters{329}},
                         Point{Meters{276}, Meters{318}},
                         Point{Meters{276}, Meters{282}},
                         Point{Meters{309}, Meters{271}}};
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(
        &network.add_node(static_cast<NodeId>(i + 1), ring[i], cfg));
  }
  PacketIdSource ids;
  RunOptions cic_options;
  cic_options.capture_policy = std::make_shared<CicCapturePolicy>();
  ScenarioRunner runner(deployment, 7, std::move(cic_options));
  const auto result = runner.run_window(concurrent_burst(nodes, Seconds{0.0}, ids));
  EXPECT_EQ(result.total_delivered(), 0u);
}

}  // namespace
}  // namespace alphawan
