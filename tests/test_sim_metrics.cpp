#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

Transmission tx_of(PacketId id, NetworkId network = 0) {
  Transmission tx;
  tx.id = id;
  tx.node = static_cast<NodeId>(id * 10);
  tx.network = network;
  tx.payload_bytes = 10;
  return tx;
}

RxOutcome outcome(RxDisposition d, bool foreign_occ = false,
                  bool foreign_intf = false) {
  RxOutcome o;
  o.disposition = d;
  o.foreign_among_occupants = foreign_occ;
  o.foreign_interferer = foreign_intf;
  return o;
}

TEST(Classify, DeliveredWinsOverEverything) {
  const auto fate = classify_packet(
      tx_of(1), {outcome(RxDisposition::kDroppedDecoderBusy),
                 outcome(RxDisposition::kDelivered),
                 outcome(RxDisposition::kDroppedCollision)});
  EXPECT_TRUE(fate.delivered);
  EXPECT_EQ(fate.cause, LossCause::kDelivered);
}

TEST(Classify, DecoderBeatsCollision) {
  const auto fate = classify_packet(
      tx_of(1), {outcome(RxDisposition::kDroppedCollision),
                 outcome(RxDisposition::kDroppedDecoderBusy)});
  EXPECT_FALSE(fate.delivered);
  EXPECT_EQ(fate.cause, LossCause::kDecoderContentionIntra);
}

TEST(Classify, ForeignOccupantsMakeItInterNetwork) {
  const auto fate = classify_packet(
      tx_of(1),
      {outcome(RxDisposition::kDroppedDecoderBusy, /*foreign=*/true)});
  EXPECT_EQ(fate.cause, LossCause::kDecoderContentionInter);
}

TEST(Classify, CollisionInterVsIntra) {
  EXPECT_EQ(classify_packet(tx_of(1),
                            {outcome(RxDisposition::kDroppedCollision, false,
                                     /*foreign_intf=*/true)})
                .cause,
            LossCause::kChannelContentionInter);
  EXPECT_EQ(classify_packet(tx_of(1),
                            {outcome(RxDisposition::kDroppedCollision)})
                .cause,
            LossCause::kChannelContentionIntra);
}

TEST(Classify, NoGatewaysMeansOther) {
  const auto fate = classify_packet(tx_of(1), {});
  EXPECT_FALSE(fate.delivered);
  EXPECT_EQ(fate.cause, LossCause::kOther);
}

TEST(Classify, LowSnrIsOther) {
  EXPECT_EQ(
      classify_packet(tx_of(1), {outcome(RxDisposition::kNotDetected),
                                 outcome(RxDisposition::kDroppedLowSnr)})
          .cause,
      LossCause::kOther);
}

// The classification rule as a walk over the outcomes, written out
// independently of the fold: the first delivery wins, then decoder
// contention, then channel contention.
PacketFate classify_by_walk(const Transmission& tx,
                            const std::vector<RxOutcome>& outcomes) {
  PacketFate fate;
  fate.packet = tx.id;
  fate.node = tx.node;
  fate.network = tx.network;
  fate.payload_bytes = tx.payload_bytes;
  fate.dr = sf_to_dr(tx.params.sf);
  bool decoder = false, decoder_foreign = false;
  bool collision = false, collision_foreign = false;
  for (const auto& out : outcomes) {
    if (out.disposition == RxDisposition::kDelivered) {
      fate.delivered = true;
      fate.cause = LossCause::kDelivered;
      return fate;
    }
    if (out.disposition == RxDisposition::kDroppedDecoderBusy) {
      decoder = true;
      decoder_foreign |= out.foreign_among_occupants;
    }
    if (out.disposition == RxDisposition::kDroppedCollision) {
      collision = true;
      collision_foreign |= out.foreign_interferer;
    }
  }
  if (decoder) {
    fate.cause = decoder_foreign ? LossCause::kDecoderContentionInter
                                 : LossCause::kDecoderContentionIntra;
  } else if (collision) {
    fate.cause = collision_foreign ? LossCause::kChannelContentionInter
                                   : LossCause::kChannelContentionIntra;
  }
  return fate;
}

void expect_same_fate(const PacketFate& a, const PacketFate& b,
                      const std::string& label) {
  EXPECT_EQ(a.packet, b.packet) << label;
  EXPECT_EQ(a.node, b.node) << label;
  EXPECT_EQ(a.network, b.network) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.cause, b.cause) << label;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << label;
  EXPECT_EQ(a.dr, b.dr) << label;
}

// Every outcome sequence up to length 3 (so every multiset, in every
// order) over all dispositions and both foreign flags: classifying the
// folded byte, the span form and the walk agree field for field.
TEST(Classify, FoldedOutcomesClassifyLikeTheSpan) {
  std::vector<RxOutcome> alphabet;
  for (int d = 0; d <= static_cast<int>(RxDisposition::kRejectedFrontEnd);
       ++d) {
    for (const bool occ : {false, true}) {
      for (const bool intf : {false, true}) {
        alphabet.push_back(outcome(static_cast<RxDisposition>(d), occ, intf));
      }
    }
  }
  Transmission tx = tx_of(7, /*network=*/2);
  tx.params.sf = SpreadingFactor::kSF9;
  std::size_t cases = 0;
  std::vector<RxOutcome> seq;
  const std::function<void()> visit = [&] {
    std::uint8_t folded = 0;
    for (const auto& out : seq) folded |= fold_outcome(out);
    const PacketFate expected = classify_by_walk(tx, seq);
    const std::string label = "case " + std::to_string(cases);
    expect_same_fate(classify_packet(tx, folded), expected, label);
    expect_same_fate(classify_packet(tx, std::span<const RxOutcome>(seq)),
                     expected, label);
    ++cases;
    if (seq.size() == 3) return;
    for (const auto& out : alphabet) {
      seq.push_back(out);
      visit();
      seq.pop_back();
    }
  };
  visit();
  const std::size_t a = alphabet.size();
  EXPECT_EQ(cases, 1 + a + a * a + a * a * a);
}

TEST(Collector, PrrAndLossFractionsSumToOne) {
  MetricsCollector m;
  PacketFate delivered;
  delivered.network = 0;
  delivered.delivered = true;
  delivered.cause = LossCause::kDelivered;
  delivered.payload_bytes = 10;
  PacketFate lost = delivered;
  lost.delivered = false;
  lost.cause = LossCause::kDecoderContentionIntra;

  for (int i = 0; i < 7; ++i) {
    delivered.packet = static_cast<PacketId>(i);
    delivered.node = static_cast<NodeId>(i);
    m.record(delivered);
  }
  for (int i = 0; i < 3; ++i) {
    lost.packet = static_cast<PacketId>(100 + i);
    m.record(lost);
  }
  EXPECT_DOUBLE_EQ(m.total_prr(), 0.7);
  EXPECT_DOUBLE_EQ(m.loss_fraction(LossCause::kDecoderContentionIntra), 0.3);
  EXPECT_DOUBLE_EQ(m.total_prr() +
                       m.loss_fraction(LossCause::kDecoderContentionIntra),
                   1.0);
  EXPECT_EQ(m.total_delivered_bytes(), 70u);
  EXPECT_EQ(m.served_nodes(0), 7u);
}

TEST(Collector, PerNetworkSeparation) {
  MetricsCollector m;
  PacketFate f;
  f.delivered = true;
  f.cause = LossCause::kDelivered;
  f.network = 1;
  f.packet = 1;
  f.node = 1;
  m.record(f);
  f.network = 2;
  f.delivered = false;
  f.cause = LossCause::kChannelContentionInter;
  f.packet = 2;
  m.record(f);
  EXPECT_DOUBLE_EQ(m.prr(1), 1.0);
  EXPECT_DOUBLE_EQ(m.prr(2), 0.0);
  EXPECT_DOUBLE_EQ(m.loss_fraction(2, LossCause::kChannelContentionInter),
                   1.0);
  EXPECT_DOUBLE_EQ(m.loss_fraction(1, LossCause::kChannelContentionInter),
                   0.0);
  EXPECT_EQ(m.total_offered(), 2u);
}

TEST(Collector, EmptyCollectorSafe) {
  MetricsCollector m;
  EXPECT_DOUBLE_EQ(m.total_prr(), 0.0);
  EXPECT_DOUBLE_EQ(m.prr(9), 0.0);
  EXPECT_EQ(m.total_served_nodes(), 0u);
}

TEST(Collector, ClearResets) {
  MetricsCollector m;
  PacketFate f;
  f.delivered = true;
  m.record(f);
  m.clear();
  EXPECT_EQ(m.total_offered(), 0u);
}

// ---- streaming aggregation ------------------------------------------------

PacketFate synth_fate(int i) {
  PacketFate f;
  f.packet = static_cast<PacketId>(i);
  f.node = static_cast<NodeId>(i % 17);  // repeats, to exercise dedup
  f.network = static_cast<NetworkId>(i % 3);
  f.dr = static_cast<DataRate>(i % kNumDataRates);
  f.payload_bytes = static_cast<std::uint32_t>(1 + i % 5);
  if (i % 4 == 0) {
    f.delivered = false;
    f.cause = static_cast<LossCause>(1 + i % 5);
  } else {
    f.delivered = true;
    f.cause = LossCause::kDelivered;
  }
  return f;
}

// Reference totals computed the pre-streaming way: from the complete flat
// fate history.
struct FlatTotals {
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t bytes = 0;
  std::map<NetworkId, std::size_t> net_delivered;
  std::map<NetworkId, std::set<NodeId>> served;
  std::map<DataRate, std::size_t> by_dr;

  void add(const PacketFate& f) {
    ++offered;
    if (!f.delivered) return;
    ++delivered;
    bytes += f.payload_bytes;
    ++net_delivered[f.network];
    served[f.network].insert(f.node);
    ++by_dr[f.dr];
  }
};

TEST(StreamingCollector, RollingAggregatesEqualFlatHistoryTotals) {
  MetricsCollector rolling;
  FlatTotals flat;
  for (int i = 0; i < 1000; ++i) {
    const PacketFate f = synth_fate(i);
    rolling.record(f);
    flat.add(f);
  }
  EXPECT_EQ(rolling.total_offered(), flat.offered);
  EXPECT_EQ(rolling.total_delivered(), flat.delivered);
  EXPECT_EQ(rolling.total_delivered_bytes(), flat.bytes);
  for (const auto& [net, count] : flat.net_delivered) {
    EXPECT_EQ(rolling.delivered(net), count) << "network " << net;
  }
  for (const DataRate dr : kAllDataRates) {
    const auto it = flat.by_dr.find(dr);
    EXPECT_EQ(rolling.delivered_by_dr(dr),
              it == flat.by_dr.end() ? 0u : it->second);
  }
  // The deduplicated served-node sets stay exact although their members
  // were recorded hundreds of fates earlier.
  std::size_t flat_served = 0;
  for (const auto& [net, nodes] : flat.served) {
    EXPECT_EQ(rolling.served_nodes(net), nodes.size()) << "network " << net;
    flat_served += nodes.size();
  }
  EXPECT_EQ(rolling.total_served_nodes(), flat_served);
}

TEST(StreamingCollector, ServedDedupSurvivesFoldBoundaries) {
  MetricsCollector m;
  PacketFate f;
  f.delivered = true;
  f.cause = LossCause::kDelivered;
  f.network = 0;
  // 500 deliveries from only 5 distinct nodes: crosses the fold threshold
  // many times over.
  for (int i = 0; i < 500; ++i) {
    f.packet = static_cast<PacketId>(i);
    f.node = static_cast<NodeId>(i % 5);
    m.record(f);
  }
  EXPECT_EQ(m.served_nodes(0), 5u);
  EXPECT_EQ(m.total_served_nodes(), 5u);
}

TEST(StreamingCollector, ScenarioWindowMatchesFlatRecompute) {
  // A golden-style scenario window: aggregates from the streaming collector
  // must equal a flat recompute over the window's complete fate stream.
  Deployment deployment{Region{Meters{800.0}, Meters{800.0}}, spectrum_1m6()};
  auto& network = deployment.add_network("op");
  auto& gw = network.add_gateway(deployment.next_gateway_id(),
                                 deployment.region().center(),
                                 default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(deployment.spectrum(), 0).channels});
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 40; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = deployment.spectrum().grid_channel(i % 8);
    cfg.dr = static_cast<DataRate>(i % 6);
    cfg.tx_power = Dbm{14.0};
    nodes.push_back(&network.add_node(
        deployment.next_node_id(),
        Point{Meters{300.0 + (i % 10) * 20.0}, Meters{350.0 + (i / 10) * 30.0}},
        cfg));
  }
  PacketIdSource ids;
  ScenarioRunner runner(deployment, /*seed=*/11);
  MetricsCollector metrics;
  const auto result =
      runner.run_window(concurrent_burst(nodes, Seconds{0.0}, ids), metrics);
  FlatTotals flat;
  for (const auto& fate : result.fates) flat.add(fate);
  EXPECT_EQ(metrics.total_offered(), flat.offered);
  EXPECT_EQ(metrics.total_delivered(), flat.delivered);
  EXPECT_EQ(metrics.total_delivered_bytes(), flat.bytes);
  std::size_t flat_served = 0;
  for (const auto& [net, served] : flat.served) flat_served += served.size();
  EXPECT_EQ(metrics.total_served_nodes(), flat_served);
  for (const DataRate dr : kAllDataRates) {
    const auto it = flat.by_dr.find(dr);
    EXPECT_EQ(metrics.delivered_by_dr(dr),
              it == flat.by_dr.end() ? 0u : it->second);
  }
}

TEST(LossCauseNames, AllDistinct) {
  std::set<std::string_view> names;
  for (auto cause :
       {LossCause::kDelivered, LossCause::kDecoderContentionIntra,
        LossCause::kDecoderContentionInter, LossCause::kChannelContentionIntra,
        LossCause::kChannelContentionInter, LossCause::kOther}) {
    names.insert(loss_cause_name(cause));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace alphawan
