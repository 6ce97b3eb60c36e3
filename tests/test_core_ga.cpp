#include "core/ga_solver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "core/greedy_seed.hpp"

namespace alphawan {
namespace {

CpInstance make_instance(std::size_t num_gw, std::size_t num_nodes,
                         int decoders = 16, int num_channels = 8) {
  CpInstance inst;
  inst.spectrum = Spectrum{Hz{923.2e6}, num_channels * kChannelSpacing};
  inst.num_channels = num_channels;
  for (std::size_t j = 0; j < num_gw; ++j) {
    inst.gateways.push_back(
        {static_cast<GatewayId>(j + 1), decoders, 8, 8});
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = 1.0;
    node.min_level.assign(num_gw, 0);
    inst.nodes.push_back(node);
  }
  return inst;
}

GaConfig fast_config() {
  GaConfig cfg;
  cfg.population = 16;
  cfg.generations = 30;
  cfg.seed = 9;
  return cfg;
}

TEST(GaSolver, InvalidInstanceThrows) {
  CpInstance bad;
  EXPECT_THROW(solve_cp(bad), std::invalid_argument);
}

// solve_cp must reject `cfg` with an invalid_argument naming `field`.
void expect_rejected(const GaConfig& cfg, const std::string& field) {
  const auto inst = make_instance(3, 30);
  try {
    (void)solve_cp(inst, cfg);
    ADD_FAILURE() << "GaConfig::" << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("GaConfig::" + field),
              std::string::npos)
        << e.what();
  }
}

TEST(GaSolver, RejectsNonPositivePopulation) {
  GaConfig cfg = fast_config();
  for (const int population : {0, -1}) {
    cfg.population = population;
    expect_rejected(cfg, "population");
  }
}

TEST(GaSolver, SolutionAlwaysFeasible) {
  const auto inst = make_instance(3, 40);
  const auto result = solve_cp(inst, fast_config());
  EXPECT_TRUE(feasible(inst, result.best));
}

TEST(GaSolver, PerfectPlanForOracleScenario) {
  // 5 GW x 16 decoders = 80 decoders for 48 users over 8 channels: the
  // Fig. 5a setting. The solver should find a zero-risk plan.
  const auto inst = make_instance(5, 48);
  const auto result = solve_cp(inst, fast_config());
  EXPECT_DOUBLE_EQ(result.best_eval.overload_risk, 0.0);
  EXPECT_DOUBLE_EQ(result.best_eval.disconnected, 0.0);
  EXPECT_DOUBLE_EQ(result.best_eval.pair_overload, 0.0);
}

TEST(GaSolver, NeverWorseThanGreedySeed) {
  const auto inst = make_instance(4, 60, /*decoders=*/8);
  const auto greedy_eval = evaluate(inst, greedy_seed(inst));
  const auto result = solve_cp(inst, fast_config());
  EXPECT_LE(result.best_eval.objective, greedy_eval.objective + 1e-9);
}

TEST(GaSolver, DeterministicUnderSeed) {
  const auto inst = make_instance(3, 30);
  const auto a = solve_cp(inst, fast_config());
  const auto b = solve_cp(inst, fast_config());
  EXPECT_DOUBLE_EQ(a.best_eval.objective, b.best_eval.objective);
  EXPECT_EQ(a.best.node_channel, b.best.node_channel);
}

TEST(GaSolver, EarlyStopOnPerfectPlan) {
  const auto inst = make_instance(5, 10);
  GaConfig cfg = fast_config();
  cfg.generations = 1000;
  const auto result = solve_cp(inst, cfg);
  EXPECT_LT(result.generations_run, 1000);
  EXPECT_DOUBLE_EQ(result.best_eval.objective,
                   evaluate(inst, result.best).objective);
}

TEST(GaSolver, ForcedChannelCountPropagates) {
  const auto inst = make_instance(3, 20);
  GaConfig cfg = fast_config();
  cfg.forced_channel_count = 8;
  const auto result = solve_cp(inst, cfg);
  for (const auto& chans : result.best.gateway_channels) {
    EXPECT_EQ(chans.size(), 8u);
  }
}

TEST(GaSolver, FrozenNodesKeepsAssignments) {
  const auto inst = make_instance(3, 20);
  CpSolution initial = greedy_seed(inst);
  GaConfig cfg = fast_config();
  cfg.frozen_nodes = FrozenNodes{initial};
  const auto result = solve_cp(inst, cfg);
  EXPECT_EQ(result.best.node_channel, initial.node_channel);
  EXPECT_EQ(result.best.node_level, initial.node_level);
}

TEST(GaSolver, OverloadedInstanceReportsResidualRisk) {
  // 100 users, 1 gateway x 16 decoders: whatever the plan, most packets
  // are at risk (phi ~ (k-16)/k for every connected user) or nodes are
  // disconnected outright.
  const auto inst = make_instance(1, 100);
  const auto result = solve_cp(inst, fast_config());
  EXPECT_GT(result.best_eval.objective, 10.0);
}

TEST(GaSolver, EvaluationCountTracked) {
  const auto inst = make_instance(2, 10);
  GaConfig cfg = fast_config();
  cfg.early_stop = false;
  const auto result = solve_cp(inst, cfg);
  EXPECT_GE(result.evaluations,
            static_cast<std::size_t>(cfg.population));
}

// Fixed-seed solve digest: 12 gateways x 2k nodes, the GA run to its full
// generation budget. The objective (as a hex float) and a hash of the best
// plan were recorded before CP scoring moved to precomputed reach masks, so
// any change to a single bit of scoring, repair or the GA's draw order
// moves one of them.
std::uint64_t plan_hash(const CpSolution& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& chans : s.gateway_channels) {
    mix(static_cast<std::int64_t>(chans.size()));
    for (const auto c : chans) mix(c);
  }
  for (const auto c : s.node_channel) mix(c);
  for (const auto l : s.node_level) mix(l);
  return h;
}

// The digest instance: `gateways` gateways on a 16-channel grid, `nodes`
// nodes with random traffic and ~40% of their links unreachable.
CpInstance digest_instance(int gateways, int nodes = 2000) {
  Rng rng(42);
  CpInstance inst;
  inst.num_channels = 16;
  inst.spectrum = Spectrum{Hz{916.8e6}, inst.num_channels * kChannelSpacing};
  inst.pair_capacity.assign(kNumDataRates, 4.0);
  for (int j = 0; j < gateways; ++j) {
    inst.gateways.push_back({static_cast<GatewayId>(j + 1), 16, 8, 8});
  }
  for (int i = 0; i < nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = rng.uniform(0.2, 2.0);
    node.min_level.resize(inst.gateways.size());
    for (auto& level : node.min_level) {
      const auto roll = rng.uniform_int(0, 9);
      level = roll >= 6 ? kUnreachable : static_cast<std::uint8_t>(roll);
    }
    inst.nodes.push_back(std::move(node));
  }
  return inst;
}

// A full-budget, serial, fixed-seed solve.
GaConfig digest_config(int generations) {
  GaConfig cfg;
  cfg.population = 24;
  cfg.generations = generations;
  cfg.seed = 42;
  cfg.early_stop = false;
  cfg.threads = 1;
  return cfg;
}

void expect_digest(const GaResult& result, const char* objective_hex,
                   std::uint64_t hash, std::size_t evaluations) {
  char objective[64];
  std::snprintf(objective, sizeof objective, "%a",
                result.best_eval.objective);
  EXPECT_STREQ(objective, objective_hex);
  EXPECT_EQ(plan_hash(result.best), hash);
  EXPECT_EQ(result.evaluations, evaluations);
}

TEST(GaSolver, FixedSeedSolveDigest) {
  const auto result = solve_cp(digest_instance(12), digest_config(30));
  expect_digest(result, "0x1.b496414a3ee65p+12", 0x3bdc9580d7916fa8ULL, 684);
}

// The pins below reach what FixedSeedSolveDigest does not: gateway sets of
// two bitset words, Strategy 1 disabled (a forced channel count), and
// Strategy 7 disabled (frozen node genes). On the two 400-node instances
// the GA improves on its seeds, so their best plan depends on every draw
// of the generation loop. Each pin was recorded before the scorer was
// specialised per word count and the GA reused its buffers.
TEST(GaSolver, TwoWordSolveDigest) {
  const auto result = solve_cp(digest_instance(70), digest_config(12));
  expect_digest(result, "0x1.92b2f0c537853p+12", 0xea504fac22719c0cULL, 288);
}

TEST(GaSolver, ForcedChannelCountSolveDigest) {
  GaConfig cfg = digest_config(20);
  cfg.forced_channel_count = 2;
  const auto result = solve_cp(digest_instance(70, 400), cfg);
  expect_digest(result, "0x1.e41bda694216cp+7", 0x2b47cb4d2816a163ULL, 464);
}

TEST(GaSolver, FrozenNodesSolveDigest) {
  const CpInstance inst = digest_instance(12, 400);
  GaConfig cfg = digest_config(20);
  cfg.frozen_nodes = FrozenNodes{greedy_seed(inst)};
  const auto result = solve_cp(inst, cfg);
  expect_digest(result, "0x1.f12b22cc22fdp+8", 0x1bfcf6ddfb53ae0aULL, 464);
}

// The two pins below were recorded before the GA reused greedy seeds it
// had already built and stopped clamping the node genes of its children.
//
// Two gateway profiles: a RAK7246G (8 decoders, greedy width
// lround(8/6) = 1) next to each RAK7289CV2 (32 decoders, 16 chains,
// 3.2 MHz: greedy width 5). No fixed width 1-4 gives every gateway its
// default width, so each of the five greedy seeds is its own plan. The
// generations improve on the seeds here, so a seed copied where it should
// have been built moves the pin.
TEST(GaSolver, MixedProfileSolveDigest) {
  CpInstance inst = digest_instance(4, 400);
  for (std::size_t j = 0; j < inst.gateways.size(); ++j) {
    auto& gw = inst.gateways[j];
    if (j % 2 == 0) {
      gw.decoders = 8;
    } else {
      gw.decoders = 32;
      gw.max_channels = 16;
      gw.max_span_channels = 16;
    }
  }
  const auto result = solve_cp(inst, digest_config(20));
  expect_digest(result, "0x1.221a6e547c245p+9", 0x1aeaa67810a0fcafULL, 464);
}

// ga_gain is what the generations earned over the initial population:
// never negative while elites survive, and exactly 0 when none ran.
TEST(GaSolver, GaGainNonNegativeAndZeroWithoutGenerations) {
  for (const int gateways : {1, 12, 70}) {
    const CpInstance inst = digest_instance(gateways, 400);
    for (const int generations : {0, 15}) {
      GaConfig cfg = digest_config(generations);
      const auto free = solve_cp(inst, cfg);
      cfg.forced_channel_count = 2;
      const auto forced = solve_cp(inst, cfg);
      cfg.forced_channel_count.reset();
      cfg.frozen_nodes = FrozenNodes{greedy_seed(inst)};
      const auto frozen = solve_cp(inst, cfg);
      for (const GaResult* r : {&free, &forced, &frozen}) {
        SCOPED_TRACE(::testing::Message() << gateways << " gateways, "
                                          << generations << " generations");
        EXPECT_LE(r->best_eval.objective, r->seed_objective);
        EXPECT_GE(r->ga_gain(), 0.0);
        if (generations == 0) {
          EXPECT_EQ(r->ga_gain(), 0.0);
          EXPECT_EQ(r->best_eval.objective, r->seed_objective);
        }
      }
    }
  }
  // FrozenNodesSolveDigest's solve improves on its seeds: a gain above 0.
  const CpInstance inst = digest_instance(12, 400);
  GaConfig cfg = digest_config(20);
  cfg.frozen_nodes = FrozenNodes{greedy_seed(inst)};
  EXPECT_GT(solve_cp(inst, cfg).ga_gain(), 0.0);
}

// Property sweep: for random instance shapes, the solver's best solution
// is always structurally feasible and its reported evaluation is exactly
// reproducible by re-evaluating the solution.
class GaRandomInstances : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaRandomInstances, FeasibleAndSelfConsistent) {
  Rng rng(GetParam());
  CpInstance inst;
  const int num_channels = static_cast<int>(rng.uniform_int(4, 32));
  inst.spectrum = Spectrum{Hz{916.8e6}, num_channels * kChannelSpacing};
  inst.num_channels = num_channels;
  const int num_gw = static_cast<int>(rng.uniform_int(1, 8));
  for (int j = 0; j < num_gw; ++j) {
    CpGateway gw;
    gw.id = static_cast<GatewayId>(j + 1);
    gw.decoders = static_cast<int>(rng.uniform_int(4, 32));
    gw.max_channels = static_cast<int>(rng.uniform_int(1, 8));
    gw.max_span_channels = static_cast<int>(rng.uniform_int(2, 16));
    inst.gateways.push_back(gw);
  }
  const int num_nodes = static_cast<int>(rng.uniform_int(1, 120));
  for (int i = 0; i < num_nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = rng.uniform(0.2, 3.0);
    node.min_level.resize(static_cast<std::size_t>(num_gw));
    for (auto& level : node.min_level) {
      const auto roll = rng.uniform_int(0, 7);
      level = roll >= 6 ? kUnreachable : static_cast<std::uint8_t>(roll);
    }
    inst.nodes.push_back(std::move(node));
  }
  GaConfig cfg;
  cfg.population = 12;
  cfg.generations = 10;
  cfg.seed = GetParam() * 3 + 1;
  const auto result = solve_cp(inst, cfg);
  EXPECT_TRUE(feasible(inst, result.best));
  const auto re_eval = evaluate(inst, result.best);
  EXPECT_DOUBLE_EQ(re_eval.objective, result.best_eval.objective);
  EXPECT_GE(result.best_eval.disconnected, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaRandomInstances,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace alphawan
