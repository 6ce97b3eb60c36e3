#include "check/canonical.hpp"

#include <stdexcept>

namespace alphawan {
namespace {

ChannelModelConfig quiet_channel() {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{0.3};
  cfg.fast_fading_sigma_db = Db{0.1};
  return cfg;
}

ChannelModelConfig urban_channel() {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{3.0};
  cfg.fast_fading_sigma_db = Db{0.8};
  cfg.seed = 11;
  return cfg;
}

EndNode& add_node_on(Deployment& deployment, Network& network,
                     Channel channel, DataRate dr, Point pos,
                     Dbm tx_power = Dbm{14.0}) {
  NodeRadioConfig cfg;
  cfg.channel = channel;
  cfg.dr = dr;
  cfg.tx_power = tx_power;
  return network.add_node(deployment.next_node_id(), pos, cfg);
}

EndNode& add_node(Deployment& deployment, Network& network, int grid_channel,
                  DataRate dr, Point pos) {
  return add_node_on(deployment, network,
                     deployment.spectrum().grid_channel(grid_channel), dr, pos);
}

Gateway& add_gateway(Deployment& deployment, Network& network, Point pos) {
  auto& gw = network.add_gateway(deployment.next_gateway_id(), pos,
                                 default_profile());
  gw.apply_channels(
      GatewayChannelConfig{standard_plan(deployment.spectrum(), 0).channels});
  return gw;
}

// 30 nodes bursting concurrently at one gateway: decoder contention is the
// dominant loss (the Fig. 2 capacity-gap regime).
CanonicalScenario burst_one_network() {
  CanonicalScenario s;
  s.name = "burst-1net";
  s.seed = 7;
  s.deployment = std::make_unique<Deployment>(Region{Meters{800.0}, Meters{800.0}},
                                              spectrum_1m6(), quiet_channel());
  auto& network = s.deployment->add_network("op-a");
  add_gateway(*s.deployment, network, s.deployment->region().center());
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 30; ++i) {
    nodes.push_back(&add_node(*s.deployment, network, i % 8,
                              static_cast<DataRate>(i % 6),
                              Point{Meters{360.0 + (i % 6) * 25.0}, Meters{370.0 + (i / 6) * 20.0}}));
  }
  PacketIdSource ids;
  s.txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  return s;
}

// Two operators sharing the same standard plan: foreign packets claim
// decoders, so inter-network decoder contention appears (Fig. 4 regime).
CanonicalScenario coexist_two_networks() {
  CanonicalScenario s;
  s.name = "coexist-2net";
  s.seed = 21;
  s.deployment = std::make_unique<Deployment>(Region{Meters{900.0}, Meters{900.0}},
                                              spectrum_1m6(), quiet_channel());
  auto& net_a = s.deployment->add_network("op-a");
  auto& net_b = s.deployment->add_network("op-b");
  add_gateway(*s.deployment, net_a, Point{Meters{430.0}, Meters{450.0}});
  add_gateway(*s.deployment, net_b, Point{Meters{470.0}, Meters{450.0}});
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(&add_node(*s.deployment, net_a, i % 8,
                              static_cast<DataRate>(i % 6),
                              Point{Meters{380.0 + (i % 5) * 22.0}, Meters{400.0 + (i / 5) * 18.0}}));
  }
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(&add_node(*s.deployment, net_b, i % 8,
                              static_cast<DataRate>((i + 3) % 6),
                              Point{Meters{460.0 + (i % 5) * 22.0}, Meters{420.0 + (i / 5) * 18.0}}));
  }
  PacketIdSource ids;
  s.txs = staggered_by_lock_on(nodes, Seconds{0.0}, Seconds{0.0008}, ids);
  return s;
}

// Urban fading, duplicated channels, and Poisson arrivals: channel
// contention joins decoder contention (the Fig. 13 at-scale regime,
// shrunk).
CanonicalScenario contention_heavy() {
  CanonicalScenario s;
  s.name = "contention-heavy";
  s.seed = 33;
  s.deployment = std::make_unique<Deployment>(Region{Meters{1200.0}, Meters{1200.0}},
                                              spectrum_1m6(), urban_channel());
  auto& network = s.deployment->add_network("op-a");
  // SX1301-class gateways (8 decoders, not 16): with ~16 packets in flight
  // on average the pool is the bottleneck, so decoder-contention losses are
  // guaranteed alongside the channel-contention ones.
  GatewayProfile profile = default_profile();
  profile.decoders = 8;
  for (const Point pos : {Point{Meters{500.0}, Meters{600.0}}, Point{Meters{700.0}, Meters{600.0}}}) {
    auto& gw = network.add_gateway(s.deployment->next_gateway_id(), pos,
                                   profile);
    gw.apply_channels(GatewayChannelConfig{
        standard_plan(s.deployment->spectrum(), 0).channels});
  }
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 48; ++i) {
    // Only 4 distinct channels for 48 nodes: forced co-channel overlap.
    nodes.push_back(&add_node(*s.deployment, network, i % 4,
                              static_cast<DataRate>(i % 6),
                              Point{Meters{420.0 + (i % 8) * 45.0}, Meters{480.0 + (i / 8) * 40.0}}));
  }
  PacketIdSource ids;
  // ALPHAWAN-LINT-ALLOW(rng-literal-seed: the canonical scenario is a
  // fixed cross-machine fixture; its seed is part of the digest contract)
  Rng traffic_rng(5);
  // A 1-second window at 2 pkt/s/node: ~50-80 packets crammed onto 4
  // channels, overlapping heavily given SF9-SF12 airtimes of 0.2-1.2 s.
  s.txs = poisson_traffic(nodes, Seconds{1.0}, 2.0, traffic_rng, ids);
  sort_by_start(s.txs);
  return s;
}

// Three operators under urban fading, isolated by their channel plans
// (Strategy 8): op-a on standard plan 0, op-b on plan 0 shifted by 75 kHz
// (a partial overlap: rejected by op-a's front end, yet interfering), op-c
// on the disjoint plan 1. 500 kHz op-a nodes cover two plan-0 channels, so
// op-b's shifted chains detect them too; 250 kHz op-c nodes sit on a
// plan-1 channel. 4-decoder gateways add decoder contention. Most gateway
// events are front-end rejects, which the runner skips wherever the radio
// cannot read the channel at all.
CanonicalScenario misaligned_plans() {
  CanonicalScenario s;
  s.name = "misaligned-plans";
  s.seed = 45;
  s.deployment = std::make_unique<Deployment>(Region{Meters{1200.0}, Meters{1200.0}},
                                              spectrum_4m8(), urban_channel());
  Deployment& d = *s.deployment;
  const Spectrum& spectrum = d.spectrum();
  std::vector<Channel> shifted = standard_plan(spectrum, 0).channels;
  for (Channel& ch : shifted) ch.center += Hz{75e3};
  const std::vector<Channel> plans[] = {standard_plan(spectrum, 0).channels,
                                        shifted,
                                        standard_plan(spectrum, 1).channels};
  const char* names[] = {"op-a", "op-b", "op-c"};
  GatewayProfile profile = default_profile();
  profile.decoders = 4;
  std::vector<EndNode*> nodes;
  for (int n = 0; n < 3; ++n) {
    auto& network = d.add_network(names[n]);
    auto& gw = network.add_gateway(
        d.next_gateway_id(), Point{Meters{450.0 + 150.0 * n}, Meters{600.0}},
        profile);
    gw.apply_channels(GatewayChannelConfig{plans[n]});
    for (int i = 0; i < 24; ++i) {
      nodes.push_back(&add_node_on(
          d, network, plans[n][static_cast<std::size_t>(i % 8)],
          static_cast<DataRate>((i + n) % 6),
          Point{Meters{380.0 + (i % 8) * 55.0},
                Meters{420.0 + (i / 8) * 45.0 + n * 120.0}},
          Dbm{i % 3 == 0 ? 8.0 : 14.0}));
    }
  }
  // Wide nodes: 500 kHz between plan-0 channels 2 and 3 (covering both),
  // 250 kHz on plan-1 channel 10.
  const Channel wide{spectrum.grid_center(2) + kChannelSpacing / 2,
                     kLoRaBandwidth500k};
  const Channel mid{spectrum.grid_center(10), kLoRaBandwidth250k};
  for (int i = 0; i < 4; ++i) {
    const auto dr = static_cast<DataRate>(i % 4);
    nodes.push_back(&add_node_on(d, d.networks()[0], wide, dr,
                                 Point{Meters{500.0 + 60.0 * i}, Meters{700.0}}));
    nodes.push_back(&add_node_on(d, d.networks()[2], mid, dr,
                                 Point{Meters{560.0 + 60.0 * i}, Meters{520.0}}));
  }
  PacketIdSource ids;
  // ALPHAWAN-LINT-ALLOW(rng-literal-seed: the canonical scenario is a
  // fixed cross-machine fixture; its seed is part of the digest contract)
  Rng traffic_rng(9);
  s.txs = poisson_traffic(nodes, Seconds{1.0}, 2.0, traffic_rng, ids);
  sort_by_start(s.txs);
  return s;
}

}  // namespace

const std::vector<std::string>& canonical_names() {
  static const std::vector<std::string> names = {
      "burst-1net", "coexist-2net", "contention-heavy", "misaligned-plans"};
  return names;
}

CanonicalScenario make_canonical(std::string_view name) {
  if (name == "burst-1net") return burst_one_network();
  if (name == "coexist-2net") return coexist_two_networks();
  if (name == "contention-heavy") return contention_heavy();
  if (name == "misaligned-plans") return misaligned_plans();
  throw std::invalid_argument("unknown canonical scenario: " +
                              std::string(name));
}

std::uint64_t canonical_digest(std::string_view name) {
  CanonicalScenario s = make_canonical(name);
  ScenarioRunner runner(*s.deployment, s.seed);
  const WindowResult result = runner.run_window(s.txs);
  return fate_digest(result.fates);
}

}  // namespace alphawan
