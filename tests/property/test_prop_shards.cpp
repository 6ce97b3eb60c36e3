// Property: spatial sharding is bit-identical to the monolithic engine.
// For random worlds, the ordered fate stream of a window (its FNV-1a
// digest) must not depend on the shard count — alone or composed with any
// thread count — and a boundary node's audible-shard set must cover every
// shard holding one of its candidate gateways, so no reception can be lost
// at a stripe border (docs/sharding.md).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"
#include "proptest.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

std::uint64_t window_digest(const CaseParams& params, int threads,
                            int shards) {
  prop::World world = prop::build_world(params);
  RunOptions options;
  options.threads = threads;
  options.shards = shards;
  ScenarioRunner runner(*world.deployment, params.seed, options);
  return fate_digest(runner.run_window(world.txs).fates);
}

TEST(ShardDeterminism, WindowDigestIdenticalAcrossShardCounts) {
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
  prop::check_property(
      "window digest is shard-count invariant", /*cases=*/50,
      /*seed=*/20260808, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const std::uint64_t mono = window_digest(params, /*threads=*/1,
                                                 /*shards=*/1);
        for (const int shards : {2, 8}) {
          for (const int threads : {1, 8}) {
            const std::uint64_t sharded =
                window_digest(params, threads, shards);
            if (sharded != mono) {
              return "digest " + digest_hex(sharded) + " at shards=" +
                     std::to_string(shards) + " threads=" +
                     std::to_string(threads) + " != monolithic digest " +
                     digest_hex(mono);
            }
          }
        }
        return std::nullopt;
      });
}

TEST(ShardDeterminism, SameSeedReplaysIdenticallyUnderSharding) {
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
      "same-seed window replays identically under sharding", /*cases=*/20,
      /*seed=*/20260809, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        for (const int shards : {2, 8}) {
          const std::uint64_t first = window_digest(params, /*threads=*/8,
                                                    shards);
          const std::uint64_t replay = window_digest(params, /*threads=*/8,
                                                     shards);
          if (first != replay) {
            return "replay digest " + digest_hex(replay) + " at shards=" +
                   std::to_string(shards) + " != first run " +
                   digest_hex(first);
          }
        }
        return std::nullopt;
      });
}

// Candidate gateway ids of every transmitter in a monolithic cache,
// registered the way the runner does it.
std::map<NodeId, std::set<GatewayId>> monolithic_candidates(
    prop::World& world, Dbm floor) {
  auto& caches = world.deployment->shard_caches(1);
  LinkCache& cache = caches.slice(0);
  std::vector<GatewayId> column_ids;
  for (auto& network : world.deployment->networks()) {
    for (auto& gw : network.gateways()) column_ids.push_back(gw.id());
  }
  std::map<NodeId, std::set<GatewayId>> candidates;
  for (const auto& tx : world.txs) {
    const std::uint32_t row = cache.ensure_row(tx.node, tx.origin);
    auto& set = candidates[tx.node];
    const auto mask = cache.candidate_mask(row, floor, kMaxTxPower);
    for (std::uint32_t col = 0; col < cache.column_count(); ++col) {
      if ((mask[col / 64] >> (col % 64)) & 1U) set.insert(column_ids[col]);
    }
  }
  return candidates;
}

TEST(ShardDeterminism, BoundaryAudibilityCoversEveryCandidateShard) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 4;
  hi.nodes_per_net = 32;
  hi.plan_channels = 8;
  hi.decoders = 16;
  prop::check_property(
      "audible-shard set is a superset of the candidate-gateway shards",
      /*cases=*/25, /*seed=*/20260810, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const Dbm floor =
            noise_floor_dbm(kLoRaBandwidth125k) - ScenarioRunner::prune_margin();
        // Ground truth from a monolithic cache on a fresh world.
        prop::World mono_world = prop::build_world(params);
        const auto candidates = monolithic_candidates(mono_world, floor);

        // Sharded run on an identically built world: the runner registers
        // each transmitter only where audible.
        const int shards = 4;
        prop::World world = prop::build_world(params);
        RunOptions options;
        options.shards = shards;
        ScenarioRunner runner(*world.deployment, params.seed, options);
        (void)runner.run_window(world.txs);
        auto& caches = world.deployment->shard_caches(shards);
        const ShardLayout layout = world.deployment->shard_layout(shards);

        for (auto& network : world.deployment->networks()) {
          for (auto& gw : network.gateways()) {
            const auto home =
                static_cast<std::size_t>(layout.shard_of(gw.position()));
            for (const auto& [node, gws] : candidates) {
              if (!gws.contains(gw.id())) continue;
              // This gateway is a candidate for the node, so the node must
              // be resident in the gateway's shard slice.
              if (caches.slice(home).row_of(node) == LinkCache::kInvalidRow) {
                return "node " + std::to_string(node) +
                       " missing from shard " + std::to_string(home) +
                       " holding candidate gateway " + std::to_string(gw.id());
              }
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace alphawan
