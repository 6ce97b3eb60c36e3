// Property: the runner's window — candidates routed by the shard prepass,
// own-power prune, skip of channels a gateway cannot read, threads and
// shards — assigns every packet the fate the unpruned per-gateway
// reference (replay_packet) gives it, and hands radios across shard
// borders exactly the replay's unpruned events on channels they can read.
// The worlds (prop::build_mixed_world) put operators on disjoint and on
// 75 kHz-shifted plans, mix 125/250/500 kHz channels and tx powers, send on
// channels no gateway monitors, and always place wide packets with a
// neighbour clear of every chain, and loud partial overlappers in the next
// bucket out, at one plan's edges; each world runs under every capture
// policy of the baseline table. Dropping either the detectable-overlap or
// the partial-overlap clause of GatewayRadio::readable_channels moves a
// fate within the default case count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "baselines/registry.hpp"
#include "check/replay.hpp"
#include "phy/overlap.hpp"
#include "proptest.hpp"
#include "sim/shard.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

// The stock pipeline plus every distinct capture policy of the table.
std::vector<std::shared_ptr<const CapturePolicy>> table_capture_policies() {
  std::vector<std::shared_ptr<const CapturePolicy>> policies{nullptr};
  const auto& registry = BaselineRegistry::instance();
  for (const auto& name : registry.names()) {
    auto capture = registry.make(name).capture;
    if (capture) policies.push_back(std::move(capture));
  }
  return policies;
}

CaseParams lo_case() {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  return lo;
}

CaseParams hi_case() {
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 30;
  hi.plan_channels = 8;
  hi.decoders = 16;
  return hi;
}

constexpr int kCases = 24;
constexpr std::uint64_t kMetaSeed = 20261020;

std::optional<std::string> runner_matches_replay(const CaseParams& params) {
  for (const auto& capture : table_capture_policies()) {
    const std::string policy = capture ? std::string(capture->name()) : "none";
    std::vector<PacketFate> reference;
    for (const int threads : {1, 8}) {
      for (const int shards : {1, 8}) {
        prop::World world = prop::build_mixed_world(params);
        ScenarioRunner runner(*world.deployment, params.seed,
                              RunOptions{capture, threads, shards});
        const WindowResult result = runner.run_window(world.txs);
        if (reference.empty()) {
          // The replay runs each radio as the window left it attached.
          for (const auto& fate : result.fates) {
            reference.push_back(replay_packet(*world.deployment, params.seed,
                                              world.txs, fate.packet)
                                    .fate);
          }
        }
        for (std::size_t k = 0; k < result.fates.size(); ++k) {
          const PacketFate& got = result.fates[k];
          if (got.delivered != reference[k].delivered ||
              got.cause != reference[k].cause) {
            return "packet " + std::to_string(got.packet) + " under policy " +
                   policy + " at threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards) + ": runner " +
                   std::string(loss_cause_name(got.cause)) + ", replay " +
                   std::string(loss_cause_name(reference[k].cause));
          }
        }
      }
    }
  }
  return std::nullopt;
}

TEST(ReplayEquivalence, RunnerFatesEqualUnprunedReplayInMixedSpectrum) {
  prop::check_property("runner fates equal the unpruned replay", kCases,
                       kMetaSeed, lo_case(), hi_case(), runner_matches_replay);
}

// ShardWindowStats::boundary_events counts the events handed to a radio
// outside the transmitter's home stripe. At shards 8 it must equal the
// count rebuilt from the unpruned replay: every (packet, gateway) pair at or
// above the prune floor on a channel the gateway's radio can read, homed in
// different stripes. Handing a radio an event on a channel it cannot read
// moves no fate, so only this count shows a prepass that routes one.
std::optional<std::string> runner_routes_only_readable_events(
    const CaseParams& params) {
  constexpr int kShards = 8;
  for (const int threads : {1, 8}) {
    prop::World world = prop::build_mixed_world(params);
    Deployment& deployment = *world.deployment;
    ScenarioRunner runner(deployment, params.seed,
                          RunOptions{nullptr, threads, kShards});
    const WindowResult result = runner.run_window(world.txs);
    const ShardLayout layout = deployment.shard_layout(kShards);
    WindowTxTable table;
    table.build(world.txs);
    std::map<GatewayId, std::pair<int, std::vector<std::uint8_t>>> gateways;
    for (const auto& network : deployment.networks()) {
      for (const auto& gw : network.gateways()) {
        auto& [home, readable] = gateways[gw.id()];
        home = layout.shard_of(gw.position());
        gw.radio().readable_channels(table.channels, readable);
      }
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < world.txs.size(); ++i) {
      const Transmission& tx = world.txs[i];
      const ReplayReport replay =
          replay_packet(deployment, params.seed, world.txs, tx.id);
      for (const GatewayObservation& obs : replay.observations) {
        const auto& [home, readable] = gateways.at(obs.gateway);
        expected += !obs.pruned && readable[table.channel_id[i]] != 0 &&
                    layout.shard_of(tx.origin) != home;
      }
    }
    const std::size_t got = runner.shard_stats().boundary_events;
    if (got != expected) {
      return "threads=" + std::to_string(threads) + ": runner handed " +
             std::to_string(got) + " boundary events to radios, replay has " +
             std::to_string(expected) + " (of " +
             std::to_string(result.fates.size()) + " packets)";
    }
  }
  return std::nullopt;
}

TEST(ReplayEquivalence, BoundaryEventsAreReadableUnprunedReplayPairs) {
  prop::check_property("boundary events equal the readable replay pairs",
                       kCases, kMetaSeed, lo_case(), hi_case(),
                       runner_routes_only_readable_events);
}

// 66 gateways in one slice (shards 1) give every candidate mask a second
// word. Every fate matches the unpruned replay, and every server log holds
// exactly the (gateway, packet) uplinks the replay delivers, some of them
// at a column of the second word.
TEST(ReplayEquivalence, MultiWordMasksMatchReplay) {
  CaseParams params = hi_case();
  params.gateways_per_net = 22;
  params.nodes_per_net = 20;
  params.seed = 65;
  for (const int threads : {1, 8}) {
    prop::World world = prop::build_mixed_world(params);
    Deployment& deployment = *world.deployment;
    ScenarioRunner runner(deployment, params.seed,
                          RunOptions{nullptr, threads, 1});
    const WindowResult result = runner.run_window(world.txs);
    const LinkCache& slice = deployment.shard_caches(1).slice(0);
    ASSERT_GE(slice.mask_words(), 2u);
    std::set<std::pair<GatewayId, PacketId>> logged;
    for (const auto& network : deployment.networks()) {
      for (const UplinkRecord& rec : network.server().log()) {
        ASSERT_TRUE(logged.emplace(rec.gateway, rec.packet).second);
      }
    }
    std::set<std::pair<GatewayId, PacketId>> replayed;
    std::size_t second_word = 0;
    for (const PacketFate& fate : result.fates) {
      const ReplayReport replay =
          replay_packet(deployment, params.seed, world.txs, fate.packet);
      EXPECT_EQ(fate.delivered, replay.fate.delivered) << fate.packet;
      EXPECT_EQ(fate.cause, replay.fate.cause) << fate.packet;
      for (const GatewayObservation& obs : replay.observations) {
        if (obs.disposition != RxDisposition::kDelivered) continue;
        replayed.emplace(obs.gateway, fate.packet);
        second_word += slice.column_of(obs.gateway) >= 64;
      }
    }
    EXPECT_EQ(logged, replayed) << "threads=" << threads;
    EXPECT_GT(second_word, 0u) << "threads=" << threads;
  }
}

// The generator reaches both sides of GatewayRadio::readable_channels:
// (gateway, window channel) pairs the runner skips, and pairs that overlap
// no chain but fully overlap a channel detectable on one (the
// capture-policy clause).
TEST(ReplayEquivalence, MixedWorldsSkipAndKeepOffChainChannels) {
  Rng meta(kMetaSeed);
  std::size_t skipped = 0;
  std::size_t kept_for_policy = 0;
  std::vector<std::uint8_t> readable;
  for (int c = 0; c < kCases; ++c) {
    const prop::World world =
        prop::build_mixed_world(prop::random_case(meta, lo_case(), hi_case()));
    WindowTxTable table;
    table.build(world.txs);
    for (const auto& network : world.deployment->networks()) {
      for (const auto& gw : network.gateways()) {
        const auto& chains = gw.radio().channels();
        const auto best_overlap = [&](const Channel& ch) {
          double best = 0.0;
          for (const Channel& chain : chains) {
            best = std::max(best, overlap_ratio(ch, chain));
          }
          return best;
        };
        gw.radio().readable_channels(table.channels, readable);
        for (std::size_t w = 0; w < table.channels.size(); ++w) {
          skipped += readable[w] == 0;
          if (readable[w] == 0 || best_overlap(table.channels[w]) > 0.0) {
            continue;
          }
          for (const Channel& d : table.channels) {
            if (best_overlap(d) >= kDetectOverlapThreshold &&
                overlap_ratio(table.channels[w], d) >= kDetectOverlapThreshold) {
              ++kept_for_policy;
              break;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(kept_for_policy, 0u);
}

}  // namespace
}  // namespace alphawan
