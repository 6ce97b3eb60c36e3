#include "core/controller.hpp"

#include <gtest/gtest.h>

#include "check/digest.hpp"

namespace alphawan {
namespace {

struct ControllerFixture {
  Deployment deployment{Region{Meters{1000.0}, Meters{1000.0}}, spectrum_1m6()};
  Network* network = nullptr;
  LatencyModel latency{LatencyModelConfig{}, 9};
  Rng rng{33};

  ControllerFixture() {
    network = &deployment.add_network("op");
    deployment.place_gateways(*network, 3, default_profile(), rng);
    deployment.place_nodes(*network, 24, rng);
  }

  AlphaWanConfig fast_config(bool share = false) {
    AlphaWanConfig cfg;
    cfg.planner.ga.population = 12;
    cfg.planner.ga.generations = 15;
    cfg.strategy8_spectrum_sharing = share;
    return cfg;
  }
};

TEST(Controller, UpgradeWithoutSharing) {
  ControllerFixture f;
  AlphaWanController controller(f.fast_config(false), f.latency);
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  const auto report = controller.upgrade(*f.network, f.deployment.spectrum(),
                                         links, uniform_traffic(*f.network));
  EXPECT_GT(report.cp_solve, Seconds{0.0});
  EXPECT_DOUBLE_EQ(report.master_communication.value(), 0.0);
  EXPECT_DOUBLE_EQ(report.frequency_offset.value(), 0.0);
  EXPECT_GT(report.delta.gateways_changed, 0u);
  // Total upgrade latency stays under the paper's ~10 s bound.
  EXPECT_LT(report.total(), Seconds{10.0});
}

TEST(Controller, RejectsInvalidGaConfigAtConstruction) {
  ControllerFixture f;
  AlphaWanConfig cfg = f.fast_config();
  cfg.planner.ga.population = 0;
  EXPECT_THROW(AlphaWanController(cfg, f.latency), std::invalid_argument);
}

TEST(Controller, SharingRequiresMaster) {
  ControllerFixture f;
  AlphaWanController controller(f.fast_config(true), f.latency);
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  EXPECT_THROW(controller.upgrade(*f.network, f.deployment.spectrum(), links,
                                  uniform_traffic(*f.network)),
               std::invalid_argument);
}

TEST(Controller, SharingUsesMasterOffset) {
  ControllerFixture f;
  MasterNode master(
      MasterConfig{f.deployment.spectrum(), 0.4, /*expected=*/2});
  // A first operator takes slot 0.
  master.handle_register(99);
  AlphaWanController controller(f.fast_config(true), f.latency);
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  const auto report =
      controller.upgrade(*f.network, f.deployment.spectrum(), links,
                         uniform_traffic(*f.network), &master);
  EXPECT_GT(report.master_communication, Seconds{0.15});  // two round trips
  EXPECT_GT(report.frequency_offset, Hz{0.0});      // slot 1 is misaligned
  EXPECT_NEAR(report.overlap_ratio, 0.4, 1e-9);
  // The applied gateway channels actually sit off-grid.
  const Spectrum& s = f.deployment.spectrum();
  const auto& ch = f.network->gateways()[0].channels()[0];
  const int idx = s.nearest_grid_index(ch.center);
  EXPECT_GT(abs(ch.center - s.grid_center(idx)), Hz{10e3});
}

TEST(Controller, RebootOnlyWhenGatewaysChange) {
  ControllerFixture f;
  AlphaWanController controller(f.fast_config(false), f.latency);
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  const auto traffic = uniform_traffic(*f.network);
  const auto first =
      controller.upgrade(*f.network, f.deployment.spectrum(), links, traffic);
  EXPECT_GT(first.gateway_reboot, Seconds{0.0});
  // Re-running with identical inputs converges: nothing to change.
  const auto second =
      controller.upgrade(*f.network, f.deployment.spectrum(), links, traffic);
  EXPECT_EQ(second.delta.gateways_changed, 0u);
  EXPECT_DOUBLE_EQ(second.gateway_reboot.value(), 0.0);
}

// FNV-1a over every field of a network's applied channel configuration, in
// map order: gateway ids with their channels, then node ids with channel,
// data rate and transmit power.
std::uint64_t config_hash(const NetworkChannelConfig& config) {
  std::uint64_t h = kFnv1aOffset;
  auto fold = [&h](const auto& value) { h = fnv1a(&value, sizeof value, h); };
  auto fold_channel = [&fold](const Channel& ch) {
    fold(ch.center.value());
    fold(ch.bandwidth.value());
  };
  for (const auto& [id, gw] : config.gateways) {
    fold(id);
    fold(gw.channels.size());
    for (const auto& ch : gw.channels) fold_channel(ch);
  }
  for (const auto& [id, node] : config.nodes) {
    fold(id);
    fold_channel(node.channel);
    fold(dr_value(node.dr));
    fold(node.tx_power.value());
  }
  return h;
}

// Strategy 8 end to end, as a planning round of two coexisting operators
// runs it: both upgrade through one Master, in operator order. Pins each
// report's objective and frequency offset and the configuration each
// network ends up with, so any change to the Master exchange or to the
// planner's constants that moves a plan shows here. Recorded while the
// Master still stamped plans with epochs and the GA's operator rates and
// the scorer's weights were still GaConfig fields.
TEST(Controller, TwoOperatorUpgradeThroughOneMasterIsPinned) {
  Deployment deployment{Region{Meters{2000.0}, Meters{1500.0}}, spectrum_4m8()};
  Rng rng{2026};
  std::vector<Network*> operators;
  for (const char* name : {"op-a", "op-b"}) {
    Network& net = deployment.add_network(name);
    deployment.place_gateways(net, 3, default_profile(), rng);
    deployment.place_nodes(net, 160, rng);
    operators.push_back(&net);
  }
  MasterNode master(MasterConfig{deployment.spectrum(), 0.4, 2});
  LatencyModel latency{LatencyModelConfig{}, 1};
  AlphaWanConfig cfg;
  cfg.planner.ga.population = 16;
  cfg.planner.ga.generations = 20;
  cfg.planner.ga.early_stop = false;
  cfg.planner.ga.threads = 1;
  AlphaWanController controller(cfg, latency);

  struct Pin {
    double objective;
    double offset_hz;
    std::uint64_t config;
  };
  const Pin pins[] = {
      {0x1.3a6666666666bp+8, 0x0p+0, 0x67b96b27f04818caULL},
      {0x1.2fcp+8, 0x1.24f8p+16, 0x945140466918eda8ULL},
  };
  for (std::size_t i = 0; i < operators.size(); ++i) {
    Network& net = *operators[i];
    const auto links = oracle_link_estimates(deployment, net);
    const UpgradeReport report =
        controller.upgrade(net, deployment.spectrum(), links,
                           uniform_traffic(net), &master);
    const std::uint64_t hash = config_hash(net.current_config());
    EXPECT_EQ(report.eval.objective, pins[i].objective) << "operator " << i;
    EXPECT_EQ(report.frequency_offset.value(), pins[i].offset_hz)
        << "operator " << i;
    EXPECT_EQ(hash, pins[i].config) << "operator " << i;
  }
}

TEST(Controller, RebootDominatesLatency) {
  // Paper Fig. 17a: reboot (~4.6 s) dominates the upgrade latency.
  ControllerFixture f;
  AlphaWanController controller(f.fast_config(false), f.latency);
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  const auto report = controller.upgrade(*f.network, f.deployment.spectrum(),
                                         links, uniform_traffic(*f.network));
  EXPECT_GT(report.gateway_reboot, report.config_distribution);
  EXPECT_GT(report.gateway_reboot, Seconds{3.0});
}

}  // namespace
}  // namespace alphawan
