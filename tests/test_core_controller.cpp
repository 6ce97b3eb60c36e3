#include "core/controller.hpp"

#include <gtest/gtest.h>

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
  cfg.planner.ga.tournament = 0;
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
  (void)master.handle_register({99});
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

TEST(Controller, UpgradeStampsMasterEpoch) {
  ControllerFixture f;
  AlphaWanController controller(f.fast_config(true), f.latency);
  MasterNode master(
      MasterConfig{f.deployment.spectrum(), 0.4, /*expected=*/2});
  const auto links = oracle_link_estimates(f.deployment, *f.network);
  const auto report =
      controller.upgrade(*f.network, f.deployment.spectrum(), links,
                         uniform_traffic(*f.network), &master);
  EXPECT_EQ(report.master_epoch, master.current_epoch());
  EXPECT_EQ(f.network->server().plan_epoch(), master.current_epoch());
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
