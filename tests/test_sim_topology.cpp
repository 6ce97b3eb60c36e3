#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>

namespace alphawan {
namespace {

TEST(Topology, NetworksGetSequentialIdsAndStableReferences) {
  Deployment deployment{Region{Meters{1000}, Meters{1000}}, spectrum_1m6()};
  Network& first = deployment.add_network("a");
  Network& second = deployment.add_network("b");
  EXPECT_EQ(first.id(), 0u);
  EXPECT_EQ(second.id(), 1u);
  // Deque storage: growing the deployment must not invalidate references.
  for (int i = 0; i < 16; ++i) {
    deployment.add_network("extra-" + std::to_string(i));
  }
  EXPECT_EQ(first.name(), "a");
  EXPECT_EQ(&deployment.networks()[1], &second);
}

TEST(Topology, IdAllocationIsGloballyUnique) {
  Deployment deployment{Region{Meters{1000}, Meters{1000}}, spectrum_1m6()};
  std::set<NodeId> nodes;
  std::set<GatewayId> gateways;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(nodes.insert(deployment.next_node_id()).second);
    EXPECT_TRUE(gateways.insert(deployment.next_gateway_id()).second);
  }
}

TEST(Topology, PlaceGatewaysCoversRegionWithConfiguredRadios) {
  Deployment deployment{Region{Meters{2000}, Meters{1500}}, spectrum_1m6()};
  Network& network = deployment.add_network("op");
  Rng rng(42);
  const auto ids = deployment.place_gateways(network, 4, default_profile(), rng);
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(network.gateways().size(), 4u);
  for (const auto& gw : network.gateways()) {
    EXPECT_TRUE(deployment.region().contains(gw.position()));
    // place_gateways applies standard plan #0.
    ASSERT_FALSE(gw.channels().empty());
    for (const auto& channel : gw.channels()) {
      EXPECT_TRUE(deployment.spectrum().contains(channel));
    }
  }
}

TEST(Topology, PlaceNodesStayInRegionOnSpectrumChannels) {
  Deployment deployment{Region{Meters{1200}, Meters{1200}}, spectrum_1m6()};
  Network& network = deployment.add_network("op");
  Rng rng(7);
  deployment.place_gateways(network, 1, default_profile(), rng);
  const auto ids = deployment.place_nodes(network, 25, rng);
  EXPECT_EQ(ids.size(), 25u);
  EXPECT_EQ(network.nodes().size(), 25u);
  for (const auto& node : network.nodes()) {
    EXPECT_TRUE(deployment.region().contains(node.position()));
    EXPECT_TRUE(deployment.spectrum().contains(node.config().channel));
  }
}

TEST(Topology, MeanSnrDecreasesWithDistance) {
  Deployment deployment{Region{Meters{4000}, Meters{4000}}, spectrum_1m6()};
  Network& network = deployment.add_network("op");
  auto& gw = network.add_gateway(deployment.next_gateway_id(), Point{Meters{2000}, Meters{2000}},
                                 default_profile());
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.tx_power = Dbm{14.0};
  auto& near = network.add_node(deployment.next_node_id(), Point{Meters{2100}, Meters{2000}}, cfg);
  auto& far = network.add_node(deployment.next_node_id(), Point{Meters{3900}, Meters{3900}}, cfg);
  EXPECT_GT(deployment.mean_snr(near, gw), deployment.mean_snr(far, gw));
}

TEST(Topology, FeasibleDrDegradesToDr0OnWeakLinks) {
  // A huge region: the corner node cannot clear any fast-DR threshold.
  Deployment deployment{Region{Meters{60000}, Meters{60000}}, spectrum_1m6()};
  Network& network = deployment.add_network("op");
  network.add_gateway(deployment.next_gateway_id(), Point{Meters{30000}, Meters{30000}},
                      default_profile());
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.tx_power = Dbm{14.0};
  auto& near =
      network.add_node(deployment.next_node_id(), Point{Meters{30050}, Meters{30000}}, cfg);
  auto& far = network.add_node(deployment.next_node_id(), Point{Meters{100}, Meters{100}}, cfg);
  EXPECT_EQ(deployment.feasible_dr(far, network), DataRate::kDR0);
  // Adjacent to the gateway, a faster DR must be feasible.
  EXPECT_GT(dr_value(deployment.feasible_dr(near, network)),
            dr_value(DataRate::kDR0));
}

// A deployment that no placement or channel plan can use fails at
// construction with std::invalid_argument naming `field`.
void expect_deployment_rejects(const Region& region, const Spectrum& spectrum,
                               const std::string& field) {
  try {
    Deployment deployment(region, spectrum);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Topology, RejectsNonFiniteRegion) {
  for (const double side : {kNaN, kInf, -kInf}) {
    expect_deployment_rejects(Region{Meters{side}, Meters{1000.0}},
                              spectrum_1m6(), "Region::width");
    expect_deployment_rejects(Region{Meters{1000.0}, Meters{side}},
                              spectrum_1m6(), "Region::height");
  }
}

TEST(Topology, RejectsNonPositiveRegion) {
  for (const double side : {0.0, -0.0, -250.0}) {
    expect_deployment_rejects(Region{Meters{side}, Meters{1000.0}},
                              spectrum_1m6(), "Region::width");
    expect_deployment_rejects(Region{Meters{1000.0}, Meters{side}},
                              spectrum_1m6(), "Region::height");
  }
}

// The smallest usable spectrum holds one 200 kHz grid channel.
TEST(Topology, RejectsSpectrumWithoutGridChannel) {
  const Region region{Meters{1000.0}, Meters{1000.0}};
  for (const double width : {0.0, -1.6e6, 125e3, 199999.0, kNaN, kInf}) {
    expect_deployment_rejects(region, Spectrum{Hz{916.8e6}, Hz{width}},
                              "Spectrum::width");
  }
  EXPECT_NO_THROW(Deployment(region, Spectrum{Hz{916.8e6}, kChannelSpacing}));
}

}  // namespace
}  // namespace alphawan
