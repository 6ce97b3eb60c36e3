// Properties of every registered baseline scheme, MAC side and capture
// side alike:
//   - packet conservation and the invariant checker stay clean under any
//     random world the scheme provisions;
//   - the window fate digest is shard- and thread-count invariant
//     (shards {1,2,8} x threads {1,8}), so no scheme smuggles in
//     engine-order- or partition-dependent state;
//   - a same-seed rerun reproduces the digest bit-for-bit (all randomness
//     flows through the caller's Rng and its keyed substreams);
// plus a golden per-scheme digest pin for one fixed world
// (tests/golden/baseline_digests.txt; re-bless per docs/testing.md).
#include <fstream>
#include <map>

#include "baselines/registry.hpp"
#include "check/digest.hpp"
#include "proptest.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

// Registry tuning for the property worlds: real GA planning, sized down so
// the alphawan scheme stays property-test cheap.
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

// A random world provisioned by the scheme itself: place, configure
// (which may rewrite gateway plans and node configs), then generate
// traffic from the post-configuration node settings and run it through
// the scheme's MAC shaping. Every draw derives from p.seed.
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

std::optional<std::string> conservation_holds(const BaselineScheme& scheme,
                                              const CaseParams& p) {
  SchemeWorld world = build_scheme_world(scheme, p);
  SimInvariants checker;
  // Checked at threads 8 x shards 8: the checker reads outputs only, so it
  // runs in the configuration people ship.
  RunOptions options;
  options.capture_policy = scheme.capture;
  options.threads = 8;
  options.shards = 8;
  ScenarioRunner runner(*world.deployment, p.seed ^ 0xBEEF,
                        std::move(options));
  runner.set_invariants(&checker);
  MetricsCollector metrics;
  const auto result = runner.run_window(world.txs, metrics);
  checker.check_metrics(metrics);
  if (result.total_offered() != world.txs.size()) {
    return "offered != generated transmissions";
  }
  std::size_t losses = 0;
  for (const auto cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    losses += metrics.losses(cause);
  }
  if (metrics.total_offered() != metrics.total_delivered() + losses) {
    return "offered != delivered + sum(loss causes)";
  }
  if (!checker.ok()) {
    std::string joined;
    for (const auto& v : checker.violations()) {
      if (!joined.empty()) joined += "; ";
      joined += v;
    }
    return joined;
  }
  return std::nullopt;
}

std::optional<std::string> digests_invariant(const BaselineScheme& scheme,
                                             const CaseParams& p) {
  const std::uint64_t mono = scheme_digest(scheme, p, 1, 1);
  // Same seed, fresh world, monolithic rerun: replay equality.
  if (const std::uint64_t rerun = scheme_digest(scheme, p, 1, 1);
      rerun != mono) {
    return "same-seed rerun digest " + digest_hex(rerun) + " != " +
           digest_hex(mono);
  }
  for (const int shards : {2, 8}) {
    for (const int threads : {1, 8}) {
      const std::uint64_t sharded = scheme_digest(scheme, p, threads, shards);
      if (sharded != mono) {
        return "digest " + digest_hex(sharded) + " at shards=" +
               std::to_string(shards) + " threads=" +
               std::to_string(threads) + " != monolithic " + digest_hex(mono);
      }
    }
  }
  return std::nullopt;
}

// Bounds sized for breadth: enough gateways for sharding to matter, node
// counts that force decoder and channel contention.
const CaseParams kLo{1, 1, 4, 2, 2, false, 0};
const CaseParams kHi{1, 4, 24, 8, 16, false, 0};

class BaselineProperty : public testing::TestWithParam<std::string> {};

TEST_P(BaselineProperty, ConservationAndInvariantsHold) {
  const BaselineScheme scheme =
      BaselineRegistry::instance().make(GetParam(), cheap_tuning());
  prop::check_property(
      ("conservation[" + GetParam() + "]").c_str(), /*cases=*/25,
      /*seed=*/0xC0FFEE ^ std::hash<std::string>{}(GetParam()), kLo, kHi,
      [&](const CaseParams& p) { return conservation_holds(scheme, p); });
}

TEST_P(BaselineProperty, DigestInvariantAcrossShardsThreadsAndReruns) {
  const BaselineScheme scheme =
      BaselineRegistry::instance().make(GetParam(), cheap_tuning());
  prop::check_property(
      ("digest-invariance[" + GetParam() + "]").c_str(), /*cases=*/25,
      /*seed=*/0xD16E57 ^ std::hash<std::string>{}(GetParam()), kLo, kHi,
      [&](const CaseParams& p) { return digests_invariant(scheme, p); });
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BaselineProperty,
    testing::ValuesIn(BaselineRegistry::instance().names()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Golden digest pin: one fixed world per scheme. A mismatch means the
// scheme's provisioning, shaping, or capture behaviour changed — if
// intentional, update tests/golden/baseline_digests.txt with the digest
// printed below (same re-bless flow as digests.txt, docs/testing.md).
TEST(BaselineGoldenDigest, FixedWorldDigestsMatchCheckedIn) {
  std::ifstream in(std::string(ALPHAWAN_GOLDEN_DIR) +
                   "/baseline_digests.txt");
  ASSERT_TRUE(in.good()) << "missing tests/golden/baseline_digests.txt";
  std::map<std::string, std::string> golden;
  std::string name, hex;
  while (in >> name >> hex) golden[name] = hex;

  // A concurrent burst over few decoders: enough same-channel same-SF
  // overlap that every scheme's signature actually shows (capture rescues,
  // CSMA deferrals, slot alignment, planner re-homing).
  CaseParams p;
  p.gateways_per_net = 3;
  p.nodes_per_net = 24;
  p.decoders = 4;
  p.burst = true;
  p.seed = 0x5EED;
  for (const auto& scheme_name : BaselineRegistry::instance().names()) {
    const BaselineScheme scheme =
        BaselineRegistry::instance().make(scheme_name, cheap_tuning());
    const std::string digest = digest_hex(scheme_digest(scheme, p, 1, 1));
    const auto it = golden.find(scheme_name);
    ASSERT_NE(it, golden.end())
        << "no golden digest for scheme '" << scheme_name
        << "' — add: " << scheme_name << " " << digest;
    EXPECT_EQ(digest, it->second)
        << "behaviour change in baseline '" << scheme_name
        << "' — if intentional, re-bless with: " << scheme_name << " "
        << digest;
  }
}

}  // namespace
}  // namespace alphawan
