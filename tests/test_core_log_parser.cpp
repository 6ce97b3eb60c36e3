#include "core/log_parser.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/traffic_estimator.hpp"

namespace alphawan {
namespace {

UplinkRecord record(PacketId packet, NodeId node, GatewayId gw, Db snr,
                    Seconds t = Seconds{0.0}) {
  UplinkRecord r;
  r.packet = packet;
  r.node = node;
  r.gateway = gw;
  r.snr = snr;
  r.timestamp = t;
  return r;
}

TEST(LogParser, BestSnrPerGateway) {
  const std::vector<UplinkRecord> log = {
      record(1, 10, 1, Db{-5.0}),
      record(2, 10, 1, Db{-2.0}),
      record(2, 10, 2, Db{-9.0}),
  };
  const auto links = parse_links(log);
  const auto& node = links.nodes.at(10);
  EXPECT_DOUBLE_EQ(node.gateway_snr.at(1).value(), -2.0);
  EXPECT_DOUBLE_EQ(node.gateway_snr.at(2).value(), -9.0);
  EXPECT_EQ(node.packets, 2u);  // packet 2 heard twice counts once
}

TEST(LogParser, EmptyLog) {
  EXPECT_TRUE(parse_links({}).empty());
}

TEST(LogParser, TxPowerAnnotation) {
  const std::vector<UplinkRecord> log = {record(1, 10, 1, Db{-5.0})};
  const auto links = parse_links(log, {{10, Dbm{8.0}}});
  EXPECT_DOUBLE_EQ(links.nodes.at(10).observed_tx_power.value(), 8.0);
  // Missing entries default to 14 dBm.
  const auto defaults = parse_links(log);
  EXPECT_DOUBLE_EQ(defaults.nodes.at(10).observed_tx_power.value(), 14.0);
}

TEST(LogParser, PerWindowCountsBucketsByTime) {
  const std::vector<UplinkRecord> log = {
      record(1, 10, 1, Db{0.0}, Seconds{5.0}),    // window 0
      record(2, 10, 1, Db{0.0}, Seconds{15.0}),   // window 1
      record(3, 10, 1, Db{0.0}, Seconds{16.0}),   // window 1
      record(4, 11, 1, Db{0.0}, Seconds{25.0}),   // window 2
      record(4, 11, 2, Db{0.0}, Seconds{25.0}),   // duplicate of packet 4
      record(5, 11, 1, Db{0.0}, Seconds{99.0}),   // beyond horizon: ignored
  };
  const auto series = per_window_counts(log, Seconds{10.0}, 3);
  EXPECT_EQ(series.at(10), (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(series.at(11), (std::vector<std::size_t>{0, 0, 1}));
}

TEST(LogParser, PerWindowCountsRejectsNonPositiveWindow) {
  const std::vector<UplinkRecord> log = {
      record(1, 10, 1, Db{0.0}, Seconds{5.0})};
  for (const double len : {0.0, -0.0, -10.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(len);
    EXPECT_THROW((void)per_window_counts(log, Seconds{len}, 3),
                 std::invalid_argument);
  }
}

TEST(LogParser, PerWindowCountsSkipsNonFiniteTimestamps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<UplinkRecord> log = {
      record(1, 10, 1, Db{0.0},
             Seconds{std::numeric_limits<double>::quiet_NaN()}),
      record(2, 10, 1, Db{0.0}, Seconds{kInf}),
      record(3, 10, 1, Db{0.0}, Seconds{-kInf}),
      record(4, 10, 1, Db{0.0}, Seconds{1e300}),  // window index > 2^64
      record(5, 10, 1, Db{0.0}, Seconds{-0.0}),   // window 0
      record(6, 11, 1, Db{0.0}, Seconds{29.999}),  // window 2
      record(7, 11, 1, Db{0.0}, Seconds{30.0}),   // beyond horizon
  };
  const auto series = per_window_counts(log, Seconds{10.0}, 3);
  EXPECT_EQ(series.at(10), (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(series.at(11), (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(series.size(), 2u);
}

// ---- differential check against the ordered-tree parser -----------------
//
// The three functions below are the parser and estimator as first written,
// one tree operation per log record. The flat versions must match them
// field for field and bit for bit.

LinkEstimates tree_parse_links(std::span<const UplinkRecord> log,
                               const std::map<NodeId, Dbm>& tx_power_of) {
  LinkEstimates estimates;
  std::set<std::pair<NodeId, PacketId>> seen;
  for (const auto& rec : log) {
    auto& node = estimates.nodes[rec.node];
    auto [it, inserted] = node.gateway_snr.try_emplace(rec.gateway, rec.snr);
    if (!inserted) it->second = std::max(it->second, rec.snr);
    if (seen.insert({rec.node, rec.packet}).second) ++node.packets;
    const auto power_it = tx_power_of.find(rec.node);
    if (power_it != tx_power_of.end()) {
      node.observed_tx_power = power_it->second;
    }
  }
  return estimates;
}

// Finite timestamps only: the cast below is undefined for NaN and for
// window indices past 2^64.
std::map<NodeId, std::vector<std::size_t>> tree_per_window_counts(
    std::span<const UplinkRecord> log, Seconds window_len,
    std::size_t num_windows) {
  std::map<NodeId, std::vector<std::size_t>> series;
  std::set<PacketId> counted;
  for (const auto& rec : log) {
    if (!counted.insert(rec.packet).second) continue;
    if (rec.timestamp < Seconds{0.0}) continue;
    const auto w = static_cast<std::size_t>(rec.timestamp / window_len);
    if (w >= num_windows) continue;
    auto& counts = series[rec.node];
    if (counts.size() < num_windows) counts.resize(num_windows, 0);
    ++counts[w];
  }
  return series;
}

std::map<NodeId, double> tree_estimate(
    const std::map<NodeId, std::vector<std::size_t>>& series) {
  std::map<NodeId, double> demand;
  for (const auto& [node, counts] : series) {
    if (counts.empty()) continue;
    const auto peak = *std::max_element(counts.begin(), counts.end());
    demand[node] = std::max(0.5, static_cast<double>(peak));
  }
  return demand;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_links(const LinkEstimates& got, const LinkEstimates& want) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (auto g = got.nodes.begin(), w = want.nodes.begin();
       w != want.nodes.end(); ++g, ++w) {
    ASSERT_EQ(g->first, w->first);
    SCOPED_TRACE(::testing::Message() << "node " << w->first);
    EXPECT_EQ(g->second.packets, w->second.packets);
    EXPECT_EQ(bits(g->second.observed_tx_power.value()),
              bits(w->second.observed_tx_power.value()));
    ASSERT_EQ(g->second.gateway_snr.size(), w->second.gateway_snr.size());
    for (auto gs = g->second.gateway_snr.begin(),
              ws = w->second.gateway_snr.begin();
         ws != w->second.gateway_snr.end(); ++gs, ++ws) {
      EXPECT_EQ(gs->first, ws->first);
      EXPECT_EQ(bits(gs->second.value()), bits(ws->second.value()))
          << "gateway " << ws->first;
    }
  }
}

// A random server log: packets heard by one to four gateways, from a few
// sparse node ids, with ties and signed zeros among the SNRs, timestamps
// before the horizon, inside it and past it, and packet ids that repeat
// (across nodes too) and interleave.
std::vector<UplinkRecord> random_log(Rng& rng) {
  constexpr NodeId kMax = std::numeric_limits<std::uint32_t>::max();
  const std::vector<NodeId> node_ids = {0, 1, 2, 77, 1u << 31, kMax - 1,
                                        kMax};
  const std::vector<GatewayId> gateway_ids = {0, 3, 4, 9, 1u << 20, kMax};
  const std::vector<double> snrs = {-7.5, -2.0, -0.0, 0.0, 0.0, 3.25, 3.25};
  const auto packets = rng.uniform_int(0, 60);
  std::vector<UplinkRecord> log;
  for (std::int64_t p = 0; p < packets; ++p) {
    UplinkRecord rec;
    // Mostly fresh ids; sometimes an id seen before, maybe for another
    // node.
    rec.packet = rng.chance(0.2)
                     ? static_cast<PacketId>(rng.uniform_int(0, p))
                     : static_cast<PacketId>(p) + (PacketId{1} << 40);
    rec.node = node_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(node_ids.size()) - 1))];
    rec.timestamp = Seconds{rng.uniform(-15.0, 60.0)};
    const auto receptions = rng.uniform_int(1, 4);
    for (std::int64_t r = 0; r < receptions; ++r) {
      rec.gateway = gateway_ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(gateway_ids.size()) - 1))];
      rec.snr = Db{snrs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(snrs.size()) - 1))]};
      // A gateway may timestamp the packet a little differently.
      if (rng.chance(0.1)) {
        rec.timestamp = rec.timestamp + Seconds{rng.uniform(-1.0, 1.0)};
      }
      log.push_back(rec);
    }
  }
  // Interleave receptions of neighbouring packets.
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (rng.chance(0.3)) std::swap(log[i - 1], log[i]);
  }
  return log;
}

TEST(LogParser, MatchesTreeReferenceOnRandomLogs) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const std::vector<UplinkRecord> log =
        trial == 0 ? std::vector<UplinkRecord>{} : random_log(rng);
    // Powers for some of the logged nodes and for nodes never logged.
    std::map<NodeId, Dbm> tx_power;
    for (const NodeId id : {0u, 2u, 5u, 1u << 31, 0xffffffffu}) {
      if (rng.chance(0.5)) tx_power.emplace(id, Dbm{rng.uniform(2.0, 20.0)});
    }
    expect_same_links(parse_links(log, tx_power),
                      tree_parse_links(log, tx_power));
    const Seconds window{trial % 2 == 0 ? 10.0 : 7.5};
    const auto windows = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto series = per_window_counts(log, window, windows);
    EXPECT_EQ(series, tree_per_window_counts(log, window, windows));
    EXPECT_EQ(TrafficEstimator{}.estimate(series), tree_estimate(series));
  }
}

}  // namespace
}  // namespace alphawan
