// Pinned digests for the receive path. The batched PHY receive kernels
// (phy/batch_kernels.hpp) once ran next to a scalar reference pipeline,
// and a differential harness here required the two to agree bit for bit.
// The scalar pipeline is gone; its output survives as the digests below,
// recorded from it (batched == scalar held on every case at the time).
// Three layers:
//   - over 100 random worlds, the window fate digests fold to the pinned
//     value at every (shards, threads) in {1,8} x {1,8} — the kernels
//     compose with sharding and the thread fan-out without perturbing a
//     single fate;
//   - over mixed-spectrum worlds (prop::build_mixed_world: 75 kHz-shifted
//     plans, 125/250/500 kHz channels, wide packets and partial
//     overlappers at a plan's edges), the window fate digests fold to a
//     pinned value per capture policy — the stock pipeline and every
//     capture policy of the baseline table — at the same grid;
//   - every registered baseline scheme (MAC side and capture side,
//     including the capture schemes cic / ss5g / curvinglora, which the
//     radio asks about each collision drop) reproduces its pinned digest
//     over 5 randomized worlds at the same (shards, threads) grid;
//   - a same-seed rerun replays bit-for-bit (all randomness flows through
//     keyed substreams, never iteration order).
//
// A deliberate behaviour change re-records the pins with the same case
// generators (prop::random_case from the seeds below, each world's
// fate_digest folded in case order with fnv1a).
#include <gtest/gtest.h>

#include <map>

#include "baselines/registry.hpp"
#include "check/digest.hpp"
#include "proptest.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

// The (shards, threads) grid every pin must hold at.
constexpr int kGrid[][2] = {{1, 1}, {1, 8}, {8, 1}, {8, 8}};

std::uint64_t window_digest(const CaseParams& params, int threads,
                            int shards) {
  prop::World world = prop::build_world(params);
  RunOptions options;
  options.threads = threads;
  options.shards = shards;
  ScenarioRunner runner(*world.deployment, params.seed, options);
  return fate_digest(runner.run_window(world.txs).fates);
}

TEST(BatchDifferential, BatchedEqualsScalarAcrossRandomWorlds) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 4;
  hi.nodes_per_net = 40;
  hi.plan_channels = 8;
  hi.decoders = 16;
  std::vector<CaseParams> cases;
  Rng meta(20260811);
  for (int c = 0; c < 100; ++c) {
    cases.push_back(prop::random_case(meta, lo, hi));
  }

  for (const auto& [shards, threads] : kGrid) {
    std::uint64_t folded = kFnv1aOffset;
    for (const auto& params : cases) {
      const std::uint64_t digest = window_digest(params, threads, shards);
      folded = fnv1a(&digest, sizeof digest, folded);
    }
    EXPECT_EQ(digest_hex(folded), "90c3ea8710380e67")
        << "100-world digest moved at shards=" << shards
        << " threads=" << threads;
  }
}

TEST(BatchDifferential, SameSeedBatchedRunReplaysIdentically) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 2;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 24;
  hi.plan_channels = 8;
  hi.decoders = 16;
  prop::check_property(
      "same-seed window replays identically", /*cases=*/20,
      /*seed=*/20260812, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const std::uint64_t first =
            window_digest(params, /*threads=*/8, /*shards=*/8);
        const std::uint64_t replay =
            window_digest(params, /*threads=*/8, /*shards=*/8);
        if (first != replay) {
          return "replay digest " + digest_hex(replay) + " != first run " +
                 digest_hex(first);
        }
        return std::nullopt;
      });
}

// ---- mixed spectrum, every capture policy, pinned ------------------------

// Recorded by the receive path before it read overlaps and couplings from
// a per-window channel table.
TEST(BatchDifferential, MixedSpectrumWorldsPinnedUnderEveryCapturePolicy) {
  const std::map<std::string, std::string> pinned = {
      {"cic", "5c044a8b949dfed0"},
      {"curvinglora", "fa1647a5f9fe1753"},
      {"none", "d5618c83e5a73b33"},
      {"ss5g", "1c4ecbd8fcdbadde"},
  };
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 30;
  hi.plan_channels = 8;
  hi.decoders = 16;
  std::vector<CaseParams> cases;
  Rng meta(20261021);
  for (int c = 0; c < 30; ++c) {
    cases.push_back(prop::random_case(meta, lo, hi));
  }
  std::vector<std::shared_ptr<const CapturePolicy>> policies{nullptr};
  const auto& registry = BaselineRegistry::instance();
  for (const auto& name : registry.names()) {
    auto capture = registry.make(name).capture;
    if (capture) policies.push_back(std::move(capture));
  }
  for (const auto& capture : policies) {
    const std::string policy = capture ? std::string(capture->name()) : "none";
    const auto pin = pinned.find(policy);
    for (const auto& [shards, threads] : kGrid) {
      std::uint64_t folded = kFnv1aOffset;
      for (const auto& params : cases) {
        prop::World world = prop::build_mixed_world(params);
        ScenarioRunner runner(*world.deployment, params.seed,
                              RunOptions{capture, threads, shards});
        const std::uint64_t digest =
            fate_digest(runner.run_window(world.txs).fates);
        folded = fnv1a(&digest, sizeof digest, folded);
      }
      EXPECT_EQ(digest_hex(folded),
                pin == pinned.end() ? "unpinned" : pin->second)
          << "policy '" << policy << "' at shards=" << shards
          << " threads=" << threads;
    }
  }
}

// ---- every scheme, pinned ------------------------------------------------

// Registry tuning sized for property cheapness (same shape as
// test_prop_baselines.cpp).
BaselineTuning cheap_tuning() {
  BaselineTuning tuning;
  tuning.alphawan.controller.planner.ga.population = 8;
  tuning.alphawan.controller.planner.ga.generations = 2;
  tuning.alphawan.demand_per_node = 0.05;
  return tuning;
}

struct SchemeWorld {
  std::unique_ptr<Deployment> deployment;
  std::vector<Transmission> txs;
};

SchemeWorld build_scheme_world(const BaselineScheme& scheme,
                               const CaseParams& p) {
  SchemeWorld world;
  world.deployment = std::make_unique<Deployment>(
      Region{Meters{1000.0}, Meters{1000.0}}, spectrum_1m6(),
      ChannelModelConfig{});
  auto& network = world.deployment->add_network("op");
  GatewayProfile profile = default_profile();
  profile.decoders = p.decoders;
  Rng rng(p.seed);
  world.deployment->place_gateways(network, p.gateways_per_net, profile, rng);
  world.deployment->place_nodes(network, p.nodes_per_net, rng);
  scheme.configure(*world.deployment, network, rng);

  std::vector<EndNode*> nodes;
  for (auto& node : network.nodes()) nodes.push_back(&node);
  PacketIdSource ids;
  Rng traffic_rng = Rng(p.seed).substream("traffic");
  world.txs = p.burst
                  ? concurrent_burst(nodes, Seconds{0.0}, ids)
                  : poisson_traffic(nodes, Seconds{0.8}, 1.5, traffic_rng, ids);
  Rng shape_rng = Rng(p.seed).substream("mac-shape");
  world.txs = scheme.shape_window(std::move(world.txs), shape_rng);
  return world;
}

std::uint64_t scheme_digest(const BaselineScheme& scheme, const CaseParams& p,
                            int threads, int shards) {
  SchemeWorld world = build_scheme_world(scheme, p);
  RunOptions options;
  options.capture_policy = scheme.capture;
  options.threads = threads;
  options.shards = shards;
  ScenarioRunner runner(*world.deployment, p.seed, std::move(options));
  return fate_digest(runner.run_window(world.txs).fates);
}

TEST(BatchDifferential, EveryRegisteredSchemeBitIdenticalAcrossModes) {
  // Dense burst worlds differentiate the capture policies: heavy
  // collisions give cic / ss5g / curvinglora packets to rescue, so a
  // context-column slip in the radio would flip fates.
  const std::map<std::string, std::string> pinned = {
      {"alphawan", "98e589dbdccf237c"},
      {"cic", "bd1954df5b45015b"},
      {"curvinglora", "25458b6db20ad2c7"},
      {"lmac", "97805a0fbd84b49b"},
      {"random-cp", "a74b79c4b80376be"},
      {"saloha", "08fb4173aca11365"},
      {"ss5g", "16f1fc9e262f4ec7"},
      {"standard", "ff0444f8ba318258"},
      {"standard-no-adr", "1db6e2d73096ba30"},
  };
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 8;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 1;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 32;
  hi.plan_channels = 6;
  hi.decoders = 12;
  std::vector<CaseParams> cases;
  Rng meta(20260813);
  for (int c = 0; c < 5; ++c) {
    cases.push_back(prop::random_case(meta, lo, hi));
  }

  for (const auto& name : BaselineRegistry::instance().names()) {
    const auto pin = pinned.find(name);
    if (pin == pinned.end()) {
      ADD_FAILURE() << "scheme '" << name << "' has no pinned digest";
      continue;
    }
    const BaselineScheme scheme =
        BaselineRegistry::instance().make(name, cheap_tuning());
    for (const auto& [shards, threads] : kGrid) {
      std::uint64_t folded = kFnv1aOffset;
      for (const auto& params : cases) {
        const std::uint64_t digest =
            scheme_digest(scheme, params, threads, shards);
        folded = fnv1a(&digest, sizeof digest, folded);
      }
      EXPECT_EQ(digest_hex(folded), pin->second)
          << "scheme '" << name << "' at shards=" << shards
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace alphawan
