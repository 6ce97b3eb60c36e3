#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

#include "check/replay.hpp"
#include "core/log_parser.hpp"
#include "phy/overlap.hpp"
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

// A compact single-network deployment: one central gateway, nodes nearby.
struct Fixture {
  Deployment deployment{Region{Meters{800.0}, Meters{800.0}}, spectrum_1m6(), quiet_channel()};
  Network* network = nullptr;
  PacketIdSource ids;
  Rng rng{101};

  Fixture() {
    network = &deployment.add_network("op");
    auto& gw = network->add_gateway(deployment.next_gateway_id(),
                                    deployment.region().center(),
                                    default_profile());
    gw.apply_channels(GatewayChannelConfig{
        standard_plan(deployment.spectrum(), 0).channels});
  }

  EndNode& add_node(int channel, DataRate dr, Point pos) {
    NodeRadioConfig cfg;
    cfg.channel = deployment.spectrum().grid_channel(channel);
    cfg.dr = dr;
    cfg.tx_power = Dbm{14.0};
    return network->add_node(deployment.next_node_id(), pos, cfg);
  }
};

TEST(Scenario, SinglePacketDelivered) {
  Fixture f;
  auto& node = f.add_node(0, DataRate::kDR3, Point{Meters{420}, Meters{400}});
  ScenarioRunner runner(f.deployment);
  const auto result =
      runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  EXPECT_EQ(result.total_delivered(), 1u);
  EXPECT_TRUE(result.fates[0].delivered);
  EXPECT_EQ(f.network->server().delivered_packets(), 1u);
}

TEST(Scenario, ConservationOfferedEqualsDeliveredPlusLost) {
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 30; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                Point{Meters{400.0 + (i % 6) * 30.0},
                                      Meters{380.0 + (i / 6) * 25.0}}));
  }
  ScenarioRunner runner(f.deployment);
  MetricsCollector metrics;
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  const auto result = runner.run_window(txs, metrics);
  EXPECT_EQ(result.total_offered(), 30u);
  std::size_t losses = 0;
  for (auto cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    losses += static_cast<std::size_t>(
        metrics.loss_fraction(cause) * static_cast<double>(result.total_offered()) + 0.5);
  }
  EXPECT_EQ(result.total_delivered() + losses, 30u);
}

TEST(Scenario, SixteenDecoderCeilingEndToEnd) {
  // 48 orthogonal concurrent users, 1 gateway: exactly 16 delivered.
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 48; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i / 8),
                                Point{Meters{350.0 + (i % 8) * 20.0},
                                      Meters{360.0 + (i / 8) * 15.0}}));
  }
  ScenarioRunner runner(f.deployment);
  // Stagger lock-ons so dispatch order is defined.
  const auto txs = staggered_by_lock_on(nodes, Seconds{0.0}, Seconds{0.0005}, f.ids);
  const auto result = runner.run_window(txs);
  EXPECT_EQ(result.total_delivered(), 16u);
}

TEST(Scenario, OutOfRangeNodeGetsOtherLoss) {
  Fixture f;
  // Far outside the region (the deployment only covers 800 m).
  auto& node = f.add_node(0, DataRate::kDR5, Point{Meters{0}, Meters{0}});
  NodeRadioConfig cfg = node.config();
  cfg.tx_power = Dbm{2.0};  // minimal power, SF7 from a corner: unreachable
  node.apply_config(cfg);
  ScenarioRunner runner(f.deployment);
  const auto result =
      runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  // Either not detected at all (kOther) or, rarely, delivered if fading
  // smiles; with 2 dBm at ~570 m and SF7 it must fail.
  EXPECT_EQ(result.total_delivered(), 0u);
  EXPECT_EQ(result.fates[0].cause, LossCause::kOther);
}

TEST(Scenario, MetricsOverloadMatchesWindowResult) {
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                Point{Meters{400.0 + i * 5.0}, Meters{400.0}}));
  }
  ScenarioRunner runner(f.deployment);
  MetricsCollector metrics;
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  const auto result = runner.run_window(txs, metrics);
  EXPECT_EQ(metrics.total_offered(), result.total_offered());
  EXPECT_EQ(metrics.total_delivered(), result.total_delivered());
}

TEST(Scenario, RepeatedWindowsAccumulateServerState) {
  Fixture f;
  auto& node = f.add_node(2, DataRate::kDR2, Point{Meters{420}, Meters{380}});
  ScenarioRunner runner(f.deployment);
  (void)runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  (void)runner.run_window({node.make_transmission(Seconds{100.0}, 10, f.ids.next())});
  const NetworkServer& server = f.network->server();
  EXPECT_EQ(server.delivered_packets(), 2u);
  EXPECT_EQ(server.log().size(), 2u);
  EXPECT_EQ(parse_links(server.log()).nodes.at(node.id()).packets, 2u);
}

TEST(Scenario, DeterministicUnderSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Fixture f;
    std::vector<EndNode*> nodes;
    for (int i = 0; i < 25; ++i) {
      nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                  Point{Meters{300.0 + i * 10.0}, Meters{500.0}}));
    }
    ScenarioRunner runner(f.deployment, seed);
    const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
    return runner.run_window(txs).total_delivered();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

// Recovers a collision drop exactly when one given node's packet is among
// the overlappers it is shown.
class RecoversBesideNode final : public CapturePolicy {
 public:
  explicit RecoversBesideNode(NodeId node) : node_(node) {}
  [[nodiscard]] std::string_view name() const override {
    return "recovers-beside-node";
  }
  [[nodiscard]] bool recovers(
      const CaptureEvent& /*wanted*/,
      std::span<const CaptureEvent> overlappers) const override {
    return std::any_of(overlappers.begin(), overlappers.end(),
                       [&](const CaptureEvent& e) { return e.node == node_; });
  }

 private:
  NodeId node_;
};

// One gateway with a single 125 kHz chain. A 500 kHz packet covering the
// chain is detected on it (the overlap ratio divides by the narrower
// bandwidth) and collides with a louder 500 kHz packet. A 125 kHz packet
// inside the 500 kHz band but clear of the chain overlaps no chain at all,
// yet the capture policy is shown it as an overlapper of the collision
// drop: the runner must still hand it to the radio, and the policy's
// verdict must match the unpruned replay's.
TEST(Scenario, OffChainOverlapperOfADetectedPacketReachesThePolicy) {
  const Channel chain{Hz{917.0e6}, kLoRaBandwidth125k};
  const Channel wide{Hz{917.1e6}, kLoRaBandwidth500k};
  const Channel inside{Hz{917.25e6}, kLoRaBandwidth125k};
  ASSERT_GE(overlap_ratio(wide, chain), kDetectOverlapThreshold);
  ASSERT_EQ(overlap_ratio(inside, chain), 0.0);
  ASSERT_GE(overlap_ratio(inside, wide), kDetectOverlapThreshold);
  for (const bool policy_keys_on_overlapper : {true, false}) {
    Deployment deployment{Region{Meters{800.0}, Meters{800.0}}, spectrum_1m6(),
                          quiet_channel()};
    Network& network = deployment.add_network("op");
    network
        .add_gateway(deployment.next_gateway_id(), deployment.region().center(),
                     default_profile())
        .apply_channels(GatewayChannelConfig{{chain}});
    PacketIdSource ids;
    std::vector<Transmission> txs;
    auto send = [&](const Channel& channel, Dbm power) {
      NodeRadioConfig cfg;
      cfg.channel = channel;
      cfg.dr = DataRate::kDR3;
      cfg.tx_power = power;
      EndNode& node = network.add_node(deployment.next_node_id(),
                                       Point{Meters{450.0}, Meters{400.0}}, cfg);
      txs.push_back(node.make_transmission(Seconds{0.0}, 10, ids.next()));
      return node.id();
    };
    const NodeId wanted = send(wide, Dbm{2.0});
    send(wide, Dbm{14.0});
    const NodeId off_chain = send(inside, Dbm{14.0});
    const std::uint64_t seed = 3;
    RunOptions options;
    options.capture_policy = std::make_shared<RecoversBesideNode>(
        policy_keys_on_overlapper ? off_chain : kInvalidNode);
    ScenarioRunner runner(deployment, seed, options);
    const WindowResult result = runner.run_window(txs);
    const PacketFate& fate = result.fates[0];
    ASSERT_EQ(fate.node, wanted);
    EXPECT_EQ(fate.delivered, policy_keys_on_overlapper);
    if (!policy_keys_on_overlapper) {
      EXPECT_EQ(fate.cause, LossCause::kChannelContentionIntra);
    }
    const ReplayReport replay =
        replay_packet(deployment, seed, txs, fate.packet);
    EXPECT_EQ(replay.fate.delivered, fate.delivered);
    EXPECT_EQ(replay.fate.cause, fate.cause);
  }
}

// A loud packet on a channel shifted 100 kHz off the gateway's chain is
// rejected by the front end, yet the fifth of its band that overlaps the
// chain still couples energy into it: it must still reach the radio, where
// it sinks a packet the chain would otherwise decode. Its center lies in
// the next frequency bucket, so only the overlap clause of
// readable_channels keeps it.
TEST(Scenario, PartialOverlapperStillInterferes) {
  Fixture f;
  const Channel chain = f.deployment.spectrum().grid_channel(0);
  Channel shifted = chain;
  shifted.center += Hz{100e3};
  ASSERT_GT(overlap_ratio(shifted, chain), 0.0);
  ASSERT_LT(overlap_ratio(shifted, chain), kDetectOverlapThreshold);
  auto& wanted = f.add_node(0, DataRate::kDR5, Point{Meters{400.0}, Meters{700.0}});
  NodeRadioConfig cfg;
  cfg.channel = shifted;
  cfg.dr = DataRate::kDR5;
  cfg.tx_power = Dbm{20.0};
  auto& loud = f.network->add_node(f.deployment.next_node_id(),
                                   Point{Meters{405.0}, Meters{400.0}}, cfg);
  const std::vector<Transmission> alone = {
      wanted.make_transmission(Seconds{0.0}, 10, f.ids.next())};
  std::vector<Transmission> both = {
      wanted.make_transmission(Seconds{0.0}, 10, f.ids.next()),
      loud.make_transmission(Seconds{0.0}, 10, f.ids.next())};
  ScenarioRunner runner(f.deployment);
  EXPECT_TRUE(runner.run_window(alone).fates[0].delivered);
  const PacketFate fate = runner.run_window(both).fates[0];
  EXPECT_FALSE(fate.delivered);
  EXPECT_EQ(fate.cause, LossCause::kOther);
  EXPECT_EQ(replay_packet(f.deployment, runner.seed(), both, fate.packet).fate.cause,
            fate.cause);
}

// Bad configuration fails when the runner is built (or reconfigured), with
// the offending field named, instead of being clamped inside a window.
void expect_rejected(const RunOptions& bad, const std::string& field) {
  Fixture f;
  try {
    ScenarioRunner runner(f.deployment, 7, bad);
    ADD_FAILURE() << "constructor accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  ScenarioRunner runner(f.deployment);
  EXPECT_THROW(runner.set_options(bad), std::invalid_argument);
  EXPECT_EQ(runner.options().threads, 0);  // the rejected value never lands
  EXPECT_EQ(runner.options().shards, 0);
}

TEST(ScenarioOptions, NegativeThreadsRejected) {
  expect_rejected(RunOptions{.threads = -1}, "threads");
}

TEST(ScenarioOptions, NegativeShardsRejected) {
  expect_rejected(RunOptions{.shards = -2}, "shards");
}

TEST(ScenarioOptions, ShardsAboveCapRejected) {
  expect_rejected(RunOptions{.shards = 4097}, "shards");
}

// Two gateways with one id would share a link-cache column, and so the
// candidate list each gateway task takes: the window is refused instead.
TEST(Scenario, DuplicateGatewayIdRejected) {
  Fixture f;
  const GatewayId taken = f.network->gateways().front().id();
  f.network->add_gateway(taken, Point{Meters{100.0}, Meters{100.0}},
                         default_profile());
  auto& node = f.add_node(0, DataRate::kDR3, Point{Meters{420}, Meters{400}});
  ScenarioRunner runner(f.deployment, 7, RunOptions{nullptr, 2, 1});
  try {
    (void)runner.run_window(
        {node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
    ADD_FAILURE() << "a window ran with gateway id " << taken << " twice";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gateway id " + std::to_string(taken)),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioOptions, ZeroDefaultsAccepted) {
  Fixture f;
  ScenarioRunner runner(f.deployment, 7,
                        RunOptions{.threads = 0, .shards = 0});
  EXPECT_NO_THROW(runner.set_options(RunOptions{}));
}

}  // namespace
}  // namespace alphawan
