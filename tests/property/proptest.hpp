// Minimal property-based testing harness (no external deps): random
// topology/traffic generation from a scalar parameter vector, a
// toward-the-minimum shrinker, and a gtest-integrated driver.
//
// A test case is fully described by CaseParams; the generator draws params
// uniformly between a lo and hi bound, a property maps params to
// std::nullopt (pass) or a failure message, and on failure the shrinker
// walks every scalar toward its lo bound while the failure persists, then
// reports the minimal failing case. Everything derives deterministically
// from the seeds, so a reported case replays exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "sim/traffic.hpp"

namespace alphawan::prop {

struct CaseParams {
  int networks = 1;
  int gateways_per_net = 1;
  int nodes_per_net = 8;
  int plan_channels = 8;  // distinct grid channels the nodes spread over
  int decoders = 16;      // decoder pool size of every gateway
  bool burst = false;     // concurrent burst instead of Poisson arrivals
  std::uint64_t seed = 1;
};

inline std::string describe(const CaseParams& p) {
  std::ostringstream out;
  out << "{networks=" << p.networks << " gateways=" << p.gateways_per_net
      << " nodes=" << p.nodes_per_net << " channels=" << p.plan_channels
      << " decoders=" << p.decoders << " traffic="
      << (p.burst ? "burst" : "poisson") << " seed=" << p.seed << "}";
  return out.str();
}

struct World {
  std::unique_ptr<Deployment> deployment;
  std::vector<std::vector<EndNode*>> nodes_by_network;
  std::vector<Transmission> txs;  // one window, network-major packet ids
};

// Deterministic world construction. Every per-network random decision uses
// an Rng derived from (seed, network index), and packet ids are assigned
// network-major — so building the same params with MORE networks appended
// leaves the earlier networks' ids, placements, and traffic bit-identical.
// The monotonicity properties depend on this.
inline World build_world(const CaseParams& p) {
  World world;
  world.deployment = std::make_unique<Deployment>(
      Region{Meters{1000.0}, Meters{1000.0}}, spectrum_1m6(), ChannelModelConfig{});
  GatewayProfile profile = default_profile();
  profile.decoders = p.decoders;
  const Rng root(p.seed);
  PacketIdSource ids;
  for (int n = 0; n < p.networks; ++n) {
    auto& network =
        world.deployment->add_network("net-" + std::to_string(n));
    Rng net_rng = root.substream("net").substream(static_cast<std::uint64_t>(n));
    const auto plan = standard_plan(world.deployment->spectrum(), 0);
    for (int g = 0; g < p.gateways_per_net; ++g) {
      // Spread gateways over the middle of the region deterministically.
      const Point pos{
          Meters{300.0 + 400.0 * g / std::max(1, p.gateways_per_net - 1)},
          Meters{400.0 + 120.0 * n}};
      auto& gw = network.add_gateway(world.deployment->next_gateway_id(), pos,
                                     profile);
      gw.apply_channels(GatewayChannelConfig{plan.channels});
    }
    auto& placed = world.nodes_by_network.emplace_back();
    for (int i = 0; i < p.nodes_per_net; ++i) {
      NodeRadioConfig cfg;
      cfg.channel = world.deployment->spectrum().grid_channel(
          static_cast<int>(net_rng.uniform_int(0, p.plan_channels - 1)));
      cfg.dr = static_cast<DataRate>(net_rng.uniform_int(0, 5));
      cfg.tx_power = Dbm{14.0};
      const Point pos{Meters{net_rng.uniform(250.0, 750.0)},
                      Meters{net_rng.uniform(250.0, 750.0)}};
      placed.push_back(&network.add_node(world.deployment->next_node_id(),
                                         pos, cfg));
    }
    // Per-network traffic: ids and draws never depend on later networks.
    Rng traffic_rng =
        root.substream("traffic").substream(static_cast<std::uint64_t>(n));
    // A dense window (0.8 s at 1.5 pkt/s/node) so Poisson worlds carry
    // real contention, not isolated packets.
    std::vector<Transmission> txs =
        p.burst ? concurrent_burst(placed, Seconds{0.0}, ids)
                : poisson_traffic(placed, Seconds{0.8}, 1.5, traffic_rng, ids);
    world.txs.insert(world.txs.end(), txs.begin(), txs.end());
  }
  return world;
}

// Worlds where gateways cannot read every packet: the same CaseParams as
// build_world (random_case draws are shared), built over spectrum_4m8 with
// operators on different channel plans — network n % 3 == 0 on standard
// plan 0, 1 on plan 0 shifted by 75 kHz (Strategy 8), 2 on six channels of
// plan 1 plus a 250 kHz chain. A node picks its own plan's channels (the
// first plan_channels of them), any grid channel (a third of the grid is
// monitored by no gateway), a 75 kHz-shifted grid channel, a 250 kHz
// channel on a grid center, a 500 kHz channel between two grid centers
// (covering both), or a channel at the outer edges of one network's plan,
// drawn once per world:
//   * a 500 kHz channel centered on the upper edge chain (detected there),
//     and a 125 kHz channel just past that chain, inside the 500 kHz band
//     but clear of every chain of the plan, in the next frequency bucket
//     up: what a capture policy hears beside a wide packet;
//   * the lower edge chain, and a 125 kHz channel 20 kHz into it from
//     below, in the next bucket down, sent at 20 dBm from beside one of
//     the plan's gateways: a partial overlapper that only couples energy,
//     loud enough to sink a packet on the chain.
// Besides its random nodes, the edge network gets eight nodes on these
// channels (the wide packets at one slow data rate, their neighbour at a
// faster one), so every world holds both arrangements. Tx powers
// otherwise mix 2-20 dBm.
inline World build_mixed_world(const CaseParams& p) {
  World world;
  world.deployment = std::make_unique<Deployment>(
      Region{Meters{1000.0}, Meters{1000.0}}, spectrum_4m8(), ChannelModelConfig{});
  const Spectrum& spectrum = world.deployment->spectrum();
  constexpr Hz kShift{75e3};
  GatewayProfile profile = default_profile();
  profile.decoders = p.decoders;
  const Rng root(p.seed);
  PacketIdSource ids;
  const auto gateway_pos = [&](int n, int g) {
    return Point{Meters{300.0 + 400.0 * g / std::max(1, p.gateways_per_net - 1)},
                 Meters{400.0 + 120.0 * n}};
  };
  std::vector<std::vector<Channel>> plans;
  for (int n = 0; n < p.networks; ++n) {
    std::vector<Channel> plan = standard_plan(spectrum, n % 3 == 2 ? 1 : 0).channels;
    if (n % 3 == 1) {
      for (Channel& ch : plan) ch.center += kShift;
    } else if (n % 3 == 2) {
      plan.resize(6);
      plan.push_back(Channel{spectrum.grid_center(15), kLoRaBandwidth250k});
    }
    plans.push_back(std::move(plan));
  }
  Rng edge_rng = root.substream("mixed-edge");
  const int edge_net = static_cast<int>(edge_rng.uniform_int(0, p.networks - 1));
  const std::vector<Channel>& edge_plan = plans[static_cast<std::size_t>(edge_net)];
  const auto wide_dr = static_cast<DataRate>(edge_rng.uniform_int(0, 2));
  const auto beside_dr = static_cast<DataRate>(edge_rng.uniform_int(3, 5));
  // A 125 kHz channel's offset from an edge chain's center when the two
  // are edge to edge.
  const auto clear = [](const Channel& chain) {
    return chain.bandwidth / 2 + kLoRaBandwidth125k / 2;
  };
  const Channel lower = edge_plan.front();
  const Channel upper = edge_plan.back();
  const Channel wide{upper.center, kLoRaBandwidth500k};
  const Channel beside{upper.center + clear(upper) + Hz{2.5e3}, kLoRaBandwidth125k};
  const Channel partial{lower.center - clear(lower) + Hz{20e3}, kLoRaBandwidth125k};
  int loud_next = 0;  // the loud partial overlappers go round the gateways
  for (int n = 0; n < p.networks; ++n) {
    auto& network =
        world.deployment->add_network("net-" + std::to_string(n));
    Rng net_rng =
        root.substream("mixed-net").substream(static_cast<std::uint64_t>(n));
    const std::vector<Channel>& plan = plans[static_cast<std::size_t>(n)];
    for (int g = 0; g < p.gateways_per_net; ++g) {
      auto& gw = network.add_gateway(world.deployment->next_gateway_id(),
                                     gateway_pos(n, g), profile);
      gw.apply_channels(GatewayChannelConfig{plan});
    }
    auto& placed = world.nodes_by_network.emplace_back();
    const int grid = spectrum.grid_size();
    // The edge network gets the fixed arrangement first: two wide packets
    // and one beside them, two packets on the lower edge chain and three
    // loud overlappers.
    constexpr int kConstruct[] = {5, 5, 6, 4, 4, 7, 7, 7};
    const int constructs = n == edge_net ? static_cast<int>(std::size(kConstruct)) : 0;
    for (int i = 0; i < constructs + p.nodes_per_net; ++i) {
      const int slot = static_cast<int>(net_rng.uniform_int(0, grid - 2));
      NodeRadioConfig cfg;
      cfg.dr = static_cast<DataRate>(net_rng.uniform_int(0, 5));
      cfg.tx_power = Dbm{2.0 + 6.0 * static_cast<double>(net_rng.uniform_int(0, 3))};
      Point pos{Meters{net_rng.uniform(250.0, 750.0)},
                Meters{net_rng.uniform(250.0, 750.0)}};
      const auto family =
          i < constructs ? kConstruct[i] : net_rng.uniform_int(0, 9);
      switch (family) {
        case 0:
          cfg.channel = spectrum.grid_channel(slot);
          break;
        case 1:
          cfg.channel = spectrum.grid_channel(slot);
          cfg.channel.center += kShift;
          break;
        case 2:
          cfg.channel = Channel{spectrum.grid_center(slot), kLoRaBandwidth250k};
          break;
        case 3:
          cfg.channel = Channel{spectrum.grid_center(slot) + kChannelSpacing / 2,
                                kLoRaBandwidth500k};
          break;
        case 4:
          cfg.channel = lower;
          break;
        case 5:
          cfg.channel = wide;
          cfg.dr = wide_dr;
          break;
        case 6:
          cfg.channel = beside;
          cfg.dr = beside_dr;
          break;
        case 7: {
          cfg.channel = partial;
          cfg.tx_power = Dbm{20.0};
          const Point gw = gateway_pos(edge_net, loud_next++ % p.gateways_per_net);
          pos = Point{gw.x + Meters{net_rng.uniform(-20.0, 20.0)},
                      gw.y + Meters{net_rng.uniform(-20.0, 20.0)}};
          break;
        }
        default:
          cfg.channel = plan[static_cast<std::size_t>(net_rng.uniform_int(
              0, std::min<int>(p.plan_channels, static_cast<int>(plan.size())) - 1))];
      }
      placed.push_back(&network.add_node(world.deployment->next_node_id(),
                                         pos, cfg));
    }
    Rng traffic_rng =
        root.substream("mixed-traffic").substream(static_cast<std::uint64_t>(n));
    std::vector<Transmission> txs =
        p.burst ? concurrent_burst(placed, Seconds{0.0}, ids)
                : poisson_traffic(placed, Seconds{0.8}, 1.5, traffic_rng, ids);
    world.txs.insert(world.txs.end(), txs.begin(), txs.end());
  }
  return world;
}

// The collector-versus-fate-stream recount: a collector that recorded one
// window holds exactly that window's offered and delivered counts.
inline std::optional<std::string> collector_matches_window(
    const MetricsCollector& metrics, const WindowResult& result) {
  const auto delivered_fates = static_cast<std::size_t>(
      std::count_if(result.fates.begin(), result.fates.end(),
                    [](const PacketFate& fate) { return fate.delivered; }));
  std::ostringstream msg;
  if (metrics.total_offered() != result.total_offered() ||
      metrics.total_offered() != result.fates.size()) {
    msg << "collector offered " << metrics.total_offered() << " != window "
        << result.total_offered() << " (" << result.fates.size()
        << " fates); ";
  }
  if (metrics.total_delivered() != result.total_delivered() ||
      metrics.total_delivered() != delivered_fates) {
    msg << "collector delivered " << metrics.total_delivered()
        << " != window " << result.total_delivered() << " ("
        << delivered_fates << " delivered fates)";
  }
  if (msg.str().empty()) return std::nullopt;
  return msg.str();
}

// A property maps params to nullopt (pass) or a failure message.
using Property = std::function<std::optional<std::string>(const CaseParams&)>;

inline CaseParams random_case(Rng& rng, const CaseParams& lo,
                              const CaseParams& hi) {
  CaseParams p;
  p.networks = static_cast<int>(rng.uniform_int(lo.networks, hi.networks));
  p.gateways_per_net = static_cast<int>(
      rng.uniform_int(lo.gateways_per_net, hi.gateways_per_net));
  p.nodes_per_net =
      static_cast<int>(rng.uniform_int(lo.nodes_per_net, hi.nodes_per_net));
  p.plan_channels =
      static_cast<int>(rng.uniform_int(lo.plan_channels, hi.plan_channels));
  p.decoders = static_cast<int>(rng.uniform_int(lo.decoders, hi.decoders));
  p.burst = rng.chance(0.5);
  p.seed = rng.next();
  return p;
}

// Walk each scalar toward its lo bound while the property keeps failing.
inline CaseParams shrink(CaseParams failing, const CaseParams& lo,
                         const Property& prop, int max_steps = 64) {
  const auto fields = {&CaseParams::networks, &CaseParams::gateways_per_net,
                       &CaseParams::nodes_per_net, &CaseParams::plan_channels,
                       &CaseParams::decoders};
  int steps = 0;
  bool shrunk = true;
  while (shrunk && steps < max_steps) {
    shrunk = false;
    for (const auto field : fields) {
      const int floor_value = lo.*field;
      while (failing.*field > floor_value && steps < max_steps) {
        CaseParams candidate = failing;
        // Halve the distance to the floor; final step is -1.
        const int distance = candidate.*field - floor_value;
        candidate.*field = floor_value + distance / 2;
        ++steps;
        if (prop(candidate).has_value()) {
          failing = candidate;
          shrunk = true;
        } else {
          break;
        }
      }
    }
  }
  return failing;
}

// Generate `cases` random cases between lo and hi and check `prop` on each;
// on the first failure, shrink and report via gtest.
inline void check_property(const char* name, int cases, std::uint64_t seed,
                           const CaseParams& lo, const CaseParams& hi,
                           const Property& prop) {
  Rng meta(seed);
  for (int c = 0; c < cases; ++c) {
    const CaseParams params = random_case(meta, lo, hi);
    const auto failure = prop(params);
    if (!failure.has_value()) continue;
    const CaseParams minimal = shrink(params, lo, prop);
    const auto minimal_failure = prop(minimal);
    ADD_FAILURE() << name << " (case " << c << "/" << cases
                  << "): " << *failure << "\n  failing: " << describe(params)
                  << "\n  shrunk:  " << describe(minimal) << " -> "
                  << minimal_failure.value_or("(no longer fails)");
    return;
  }
}

}  // namespace alphawan::prop
