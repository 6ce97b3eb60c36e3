#include "net/network_server.hpp"

#include <gtest/gtest.h>

#include "core/log_parser.hpp"

namespace alphawan {
namespace {

UplinkRecord record(PacketId packet, NodeId node, GatewayId gateway, Db snr) {
  UplinkRecord r;
  r.packet = packet;
  r.node = node;
  r.gateway = gateway;
  r.network = 3;
  r.snr = snr;
  return r;
}

TEST(NetworkServer, DeduplicatesMultiGatewayReceptions) {
  NetworkServer server(3);
  // Packet 10 heard by two gateways; packet 11 by one.
  server.ingest({record(10, 1, 100, Db{5.0}), record(10, 1, 101, Db{-2.0}),
                 record(11, 1, 100, Db{1.0})});
  EXPECT_EQ(server.delivered_packets(), 2u);
  // The raw log still keeps every reception.
  EXPECT_EQ(server.log().size(), 3u);
  EXPECT_EQ(parse_links(server.log()).nodes.at(1).packets, 2u);
}

TEST(NetworkServer, DeduplicatesAcrossWindows) {
  NetworkServer server(3);
  server.ingest({record(10, 1, 100, Db{5.0})});
  server.ingest({record(10, 1, 101, Db{6.0})});
  EXPECT_EQ(server.delivered_packets(), 1u);
  EXPECT_EQ(parse_links(server.log()).nodes.at(1).packets, 1u);
}

TEST(NetworkServer, LinkProfileTracksBestSnrPerGateway) {
  NetworkServer server(3);
  server.ingest({record(10, 7, 100, Db{-3.0}), record(11, 7, 100, Db{4.0}),
                 record(12, 7, 101, Db{1.0})});
  // The log carries everything a per-node link profile needs.
  const LinkEstimates links = parse_links(server.log());
  ASSERT_TRUE(links.nodes.contains(7));
  const auto& node = links.nodes.at(7);
  EXPECT_EQ(node.gateway_snr.size(), 2u);
  EXPECT_EQ(node.packets, 3u);
  EXPECT_DOUBLE_EQ(node.gateway_snr.at(100).value(), 4.0);  // best of -3 and 4
  EXPECT_DOUBLE_EQ(node.gateway_snr.at(101).value(), 1.0);
}

TEST(NetworkServer, PerNodeDeliveredCountsUniquePackets) {
  NetworkServer server(3);
  server.ingest({record(10, 1, 100, Db{0.0}), record(10, 1, 101, Db{0.0}),
                 record(11, 2, 100, Db{0.0}), record(12, 2, 100, Db{0.0})});
  EXPECT_EQ(server.delivered_packets(), 3u);
  const LinkEstimates links = parse_links(server.log());
  EXPECT_EQ(links.nodes.at(1).packets, 1u);
  EXPECT_EQ(links.nodes.at(2).packets, 2u);
}

TEST(NetworkServer, ClearResetsAllState) {
  NetworkServer server(3);
  server.ingest({record(10, 1, 100, Db{0.0})});
  server.clear();
  EXPECT_EQ(server.delivered_packets(), 0u);
  EXPECT_TRUE(server.log().empty());
  // A packet seen before the clear counts again afterwards.
  server.ingest({record(10, 1, 100, Db{0.0})});
  EXPECT_EQ(server.delivered_packets(), 1u);
  EXPECT_EQ(server.network(), 3u);  // identity survives
}

}  // namespace
}  // namespace alphawan
