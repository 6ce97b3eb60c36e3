#include "net/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numbers>

#include "check/digest.hpp"
#include "core/log_parser.hpp"
#include "phy/band_plan.hpp"

namespace alphawan {
namespace {

TEST(NetworkServerTest, IngestDeduplicatesAcrossGateways) {
  NetworkServer server(0);
  UplinkRecord a;
  a.packet = 1;
  a.node = 5;
  a.gateway = 1;
  a.snr = Db{-3.0};
  UplinkRecord b = a;
  b.gateway = 2;
  b.snr = Db{2.0};
  server.ingest({a, b});
  EXPECT_EQ(server.delivered_packets(), 1u);
  EXPECT_EQ(server.log().size(), 2u);  // raw log keeps both receptions
  EXPECT_EQ(parse_links(server.log()).nodes.at(5).packets, 1u);
}

TEST(NetworkServerTest, LinkProfileTracksBestSnr) {
  NetworkServer server(0);
  UplinkRecord rec;
  rec.packet = 1;
  rec.node = 5;
  rec.gateway = 1;
  rec.snr = Db{-10.0};
  server.ingest({rec});
  rec.packet = 2;
  rec.snr = Db{-4.0};
  server.ingest({rec});
  const LinkEstimates links = parse_links(server.log());
  const auto& node = links.nodes.at(5);
  EXPECT_EQ(node.gateway_snr.size(), 1u);
  EXPECT_DOUBLE_EQ(node.gateway_snr.at(1).value(), -4.0);
  EXPECT_EQ(node.packets, 2u);
}

TEST(NetworkTest, SyncWordsDistinctPerNetwork) {
  Network a(0, "public"), b(1, "op1"), c(2, "op2");
  EXPECT_EQ(a.sync_word(), kPublicSyncWord);
  EXPECT_NE(b.sync_word(), a.sync_word());
  EXPECT_NE(b.sync_word(), c.sync_word());
}

TEST(NetworkTest, AddAndFindDevices) {
  Network net(1, "test");
  net.add_gateway(10, Point{Meters{0}, Meters{0}}, default_profile());
  net.add_node(20, Point{Meters{5}, Meters{5}}, NodeRadioConfig{});
  EXPECT_NE(net.find_gateway(10), nullptr);
  EXPECT_EQ(net.find_gateway(11), nullptr);
  EXPECT_NE(net.find_node(20), nullptr);
  EXPECT_EQ(net.find_node(21), nullptr);
}

TEST(NetworkTest, ApplyConfigRoundTrips) {
  Network net(1, "test");
  const Spectrum s = spectrum_1m6();
  net.add_gateway(10, Point{Meters{0}, Meters{0}}, default_profile());
  net.add_node(20, Point{Meters{5}, Meters{5}}, NodeRadioConfig{});

  NetworkChannelConfig config;
  config.gateways[10] = GatewayChannelConfig{standard_plan(s, 0).channels};
  NodeRadioConfig node_cfg;
  node_cfg.channel = s.grid_channel(3);
  node_cfg.dr = DataRate::kDR2;
  node_cfg.tx_power = Dbm{8.0};
  config.nodes[20] = node_cfg;
  net.apply_config(config);

  const auto current = net.current_config();
  EXPECT_EQ(current.gateways.at(10).channels.size(), 8u);
  EXPECT_EQ(current.nodes.at(20), node_cfg);
}

TEST(NetworkTest, ApplyConfigIgnoresUnknownIds) {
  Network net(1, "test");
  NetworkChannelConfig config;
  config.gateways[99] = GatewayChannelConfig{{Channel{Hz{915e6}, Hz{125e3}}}};
  config.nodes[98] = NodeRadioConfig{};
  EXPECT_NO_THROW(net.apply_config(config));
}

// find_node goes through an id index: it must keep answering for nodes
// added long after the first (across many deque blocks), return nullptr
// for unknown ids, and resolve a duplicated id to the first node added
// with it.
TEST(NetworkTest, FindNodeIndexAcrossGrowthAndDuplicates) {
  Network net(1, "test");
  constexpr NodeId kCount = 2000;
  for (NodeId id = 0; id < kCount; ++id) {
    net.add_node(kCount - id, Point{Meters{static_cast<double>(id)}, Meters{0}},
                 NodeRadioConfig{});
  }
  for (NodeId id = 1; id <= kCount; ++id) {
    const EndNode* node = net.find_node(id);
    ASSERT_NE(node, nullptr) << id;
    EXPECT_EQ(node->id(), id);
    EXPECT_EQ(node->position().x.value(), static_cast<double>(kCount - id));
  }
  EXPECT_EQ(net.find_node(0), nullptr);
  EXPECT_EQ(net.find_node(kCount + 1), nullptr);
  EXPECT_EQ(net.find_node(kInvalidNode), nullptr);

  const EndNode* first = net.find_node(7);
  net.add_node(7, Point{Meters{-1}, Meters{0}}, NodeRadioConfig{});
  EXPECT_EQ(net.nodes().size(), kCount + 1);
  EXPECT_EQ(net.find_node(7), first);
  const Network& view = net;
  EXPECT_EQ(view.find_node(7), first);
}

// apply_config reconfigures indexed nodes and skips ids it does not know.
TEST(NetworkTest, ApplyConfigThroughIndexSkipsUnknownNodes) {
  Network net(1, "test");
  const Spectrum s = spectrum_1m6();
  for (NodeId id = 1; id <= 600; ++id) {
    net.add_node(id, Point{}, NodeRadioConfig{});
  }
  NodeRadioConfig moved;
  moved.channel = s.grid_channel(5);
  moved.dr = DataRate::kDR4;
  NetworkChannelConfig config;
  config.nodes[599] = moved;
  config.nodes[601] = moved;  // unknown: ignored
  config.nodes[kInvalidNode] = moved;
  net.apply_config(config);
  EXPECT_EQ(net.find_node(599)->config(), moved);
  EXPECT_EQ(net.find_node(598)->config(), NodeRadioConfig{});
  EXPECT_EQ(net.find_node(601), nullptr);
  EXPECT_EQ(net.current_config().nodes.size(), 600u);
}

TEST(NetworkTest, GatewayAntennaSwap) {
  Network net(0, "t");
  auto& gw = net.add_gateway(1, Point{Meters{0}, Meters{0}}, default_profile());
  const Db omni = gw.antenna_gain_towards(Point{Meters{100}, Meters{0}});
  gw.set_antenna(std::make_unique<DirectionalAntenna>(), 0.0);
  const Db steered = gw.antenna_gain_towards(Point{Meters{100}, Meters{0}});
  const Db behind = gw.antenna_gain_towards(Point{Meters{-100}, Meters{0}});
  EXPECT_GT(steered, omni);
  EXPECT_LT(behind, steered - Db{30.0});
}

// A gateway's antenna answers from the two points and the boresight. For an
// omni antenna that must be the value the bearing path gives, bit for bit —
// a target on the gateway itself (atan2(0, 0)) and a nonzero boresight
// included — and a directional antenna's gains must not move by one bit
// across a sweep of angles (Fig. 7): they equal the bearing path and a
// digest pinned before the omni shortcut existed.
TEST(Gateway, OmniGainMatchesBearingPath) {
  Network net(0, "t");
  const Point pos{Meters{120.0}, Meters{-40.0}};
  auto& gw = net.add_gateway(1, pos, default_profile());
  std::vector<Point> targets{pos};
  for (int k = 0; k < 96; ++k) {
    const double angle = 0.01 + k * (2.0 * std::numbers::pi / 96.0);
    const double radius = 10.0 + 45.0 * k;
    targets.push_back(Point{pos.x + Meters{radius * std::cos(angle)},
                            pos.y + Meters{radius * std::sin(angle)}});
  }
  const auto bits = [](Db g) { return std::bit_cast<std::uint64_t>(g.value()); };

  const OmniAntenna stock;  // what a gateway starts with
  for (const Point& p : targets) {
    EXPECT_EQ(bits(gw.antenna_gain_towards(p)),
              bits(stock.gain(bearing(pos, p) - 0.0)));
  }
  gw.set_antenna(std::make_unique<OmniAntenna>(Db{3.5}), 1.3);
  const OmniAntenna omni(Db{3.5});
  for (const Point& p : targets) {
    EXPECT_EQ(bits(gw.antenna_gain_towards(p)),
              bits(omni.gain(bearing(pos, p) - 1.3)));
  }

  gw.set_antenna(std::make_unique<DirectionalAntenna>(), 0.7);
  const DirectionalAntenna dir;
  std::uint64_t digest = kFnv1aOffset;
  for (const Point& p : targets) {
    const std::uint64_t got = bits(gw.antenna_gain_towards(p));
    EXPECT_EQ(got, bits(dir.gain(bearing(pos, p) - 0.7)));
    digest = fnv1a(&got, sizeof got, digest);
  }
  EXPECT_EQ(digest, 0x0e1a7efae1e3a400ULL) << digest_hex(digest);
}

}  // namespace
}  // namespace alphawan
