#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

TEST(ShardLayout, StripesPartitionTheRegion) {
  const Region region{Meters{1000.0}, Meters{500.0}};
  const ShardLayout layout(region, 4);
  EXPECT_EQ(layout.shards(), 4);
  EXPECT_EQ(layout.shard_of(Point{Meters{0.0}, Meters{10.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{249.0}, Meters{10.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{250.0}, Meters{10.0}}), 1);
  EXPECT_EQ(layout.shard_of(Point{Meters{999.0}, Meters{10.0}}), 3);
}

TEST(ShardLayout, OutOfRegionPointsClampToNearestStripe) {
  const ShardLayout layout(Region{Meters{1000.0}, Meters{500.0}}, 2);
  EXPECT_EQ(layout.shard_of(Point{Meters{-50.0}, Meters{0.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{5000.0}, Meters{0.0}}), 1);
}

// Origins whose stripe index is no int at all: a NaN x lands in stripe 0,
// and an x far beyond either edge clamps to the edge stripe.
TEST(ShardLayout, NanAndFarAwayOriginsGetAStripe) {
  const ShardLayout layout(Region{Meters{1000.0}, Meters{500.0}}, 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(layout.shard_of(Point{Meters{nan}, Meters{10.0}}), 0);
  for (const double x : {4e12, 1e300, inf}) {
    EXPECT_EQ(layout.shard_of(Point{Meters{x}, Meters{0.0}}), 3) << x;
    EXPECT_EQ(layout.shard_of(Point{Meters{-x}, Meters{0.0}}), 0) << -x;
  }
}

TEST(ShardLayout, SingleShardOwnsEverything) {
  const ShardLayout layout(Region{Meters{1000.0}, Meters{500.0}}, 1);
  EXPECT_EQ(layout.shard_of(Point{Meters{999.0}, Meters{499.0}}), 0);
}

TEST(ShardCount, ParseMirrorsThreadCountRules) {
  EXPECT_EQ(parse_shard_count(nullptr), 1);
  EXPECT_EQ(parse_shard_count(""), 1);
  EXPECT_EQ(parse_shard_count("garbage"), 1);
  EXPECT_EQ(parse_shard_count("0"), 1);
  EXPECT_EQ(parse_shard_count("-3"), 1);
  EXPECT_EQ(parse_shard_count("8"), 8);
  EXPECT_EQ(parse_shard_count("8x"), 1);
}

TEST(ShardCount, ParseRejectsValuesAboveTheCap) {
  // Values that overflow int must not wrap into a negative shard count.
  EXPECT_EQ(parse_shard_count("3000000000"), 1);
  EXPECT_EQ(parse_shard_count("4097"), 1);
  EXPECT_EQ(parse_shard_count("4096"), kMaxShards);
}

TEST(ShardCount, ResolvePicksDefaultForZero) {
  EXPECT_EQ(resolve_shard_count(4), 4);
  EXPECT_EQ(resolve_shard_count(-2), 1);
  EXPECT_EQ(resolve_shard_count(kMaxShards + 1), kMaxShards);
  EXPECT_GE(resolve_shard_count(0), 1);
  EXPECT_LE(resolve_shard_count(0), kMaxShards);
}

// A region wide enough that audibility genuinely differs per stripe: with
// the default channel model the conservative audibility radius is ~6.6 km,
// so gateways 100 km apart cannot both hear one node.
struct WideFixture {
  Deployment deployment{Region{Meters{200000.0}, Meters{1000.0}},
                        spectrum_1m6()};
  Network* network = nullptr;
  PacketIdSource ids;

  // Gateways: one deep in each half, plus a pair straddling the border.
  Point gw_west{Meters{50000.0}, Meters{500.0}};
  Point gw_border_west{Meters{99000.0}, Meters{500.0}};
  Point gw_border_east{Meters{101000.0}, Meters{500.0}};
  Point gw_east{Meters{150000.0}, Meters{500.0}};

  WideFixture() {
    network = &deployment.add_network("op");
    const auto plan = standard_plan(deployment.spectrum(), 0);
    for (const auto& pos :
         {gw_west, gw_border_west, gw_border_east, gw_east}) {
      auto& gw = network->add_gateway(deployment.next_gateway_id(), pos,
                                      default_profile());
      gw.apply_channels(GatewayChannelConfig{plan.channels});
    }
  }

  EndNode& add_node(Point pos) {
    NodeRadioConfig cfg;
    cfg.channel = deployment.spectrum().grid_channel(0);
    cfg.dr = DataRate::kDR0;
    cfg.tx_power = Dbm{14.0};
    return network->add_node(deployment.next_node_id(), pos, cfg);
  }

  [[nodiscard]] Dbm prune_floor() const {
    return noise_floor_dbm(kLoRaBandwidth125k) - ScenarioRunner::prune_margin();
  }
};

TEST(ShardMembership, NodeAudibleInOneShardOnly) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1000;
  const Point near_west{Meters{50100.0}, Meters{500.0}};
  EXPECT_NE(caches.slice(0).ensure_row_if_audible(node, near_west,
                                                  f.prune_floor(), kMaxTxPower),
            LinkCache::kInvalidRow);
  EXPECT_EQ(caches.slice(1).ensure_row_if_audible(node, near_west,
                                                  f.prune_floor(), kMaxTxPower),
            LinkCache::kInvalidRow);
}

TEST(ShardMembership, BoundaryNodeAudibleInAllShards) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1001;
  // Mid-border: ~1 km from both straddling gateways, one per stripe.
  const Point border{Meters{100000.0}, Meters{500.0}};
  EXPECT_NE(caches.slice(0).ensure_row_if_audible(node, border,
                                                  f.prune_floor(), kMaxTxPower),
            LinkCache::kInvalidRow);
  EXPECT_NE(caches.slice(1).ensure_row_if_audible(node, border,
                                                  f.prune_floor(), kMaxTxPower),
            LinkCache::kInvalidRow);
}

TEST(ShardMembership, DeadZoneNodeAudibleNowhere) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1002;
  // ~49 km past the easternmost gateway.
  const Point dead{Meters{199000.0}, Meters{500.0}};
  EXPECT_EQ(caches.slice(0).ensure_row_if_audible(node, dead, f.prune_floor(),
                                                  kMaxTxPower),
            LinkCache::kInvalidRow);
  EXPECT_EQ(caches.slice(1).ensure_row_if_audible(node, dead, f.prune_floor(),
                                                  kMaxTxPower),
            LinkCache::kInvalidRow);
  // The rejection is memoized: same origin and structure, same answer.
  EXPECT_EQ(caches.slice(1).ensure_row_if_audible(node, dead, f.prune_floor(),
                                                  kMaxTxPower),
            LinkCache::kInvalidRow);
  EXPECT_EQ(caches.slice(1).row_of(node), LinkCache::kInvalidRow);
}

TEST(ShardMembership, NewGatewayInvalidatesRejectionMemo) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1003;
  const Point dead{Meters{199000.0}, Meters{500.0}};
  LinkCache& east = caches.slice(1);
  ASSERT_EQ(east.ensure_row_if_audible(node, dead, f.prune_floor(),
                                       kMaxTxPower),
            LinkCache::kInvalidRow);
  const std::uint32_t epoch_before = east.audibility_epoch();
  // A gateway appears next to the dead zone; the memo must not mask it.
  auto& gw = f.network->add_gateway(f.deployment.next_gateway_id(),
                                    Point{Meters{198500.0}, Meters{500.0}},
                                    default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(f.deployment.spectrum(), 0).channels});
  auto& refreshed = f.deployment.shard_caches(2);
  EXPECT_GT(refreshed.slice(1).audibility_epoch(), epoch_before);
  EXPECT_NE(refreshed.slice(1).ensure_row_if_audible(node, dead,
                                                     f.prune_floor(),
                                                     kMaxTxPower),
            LinkCache::kInvalidRow);
}

TEST(ShardMembership, MovedOriginReprobesRejectedNode) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1004;
  const Point dead{Meters{199000.0}, Meters{500.0}};
  LinkCache& east = caches.slice(1);
  ASSERT_EQ(east.ensure_row_if_audible(node, dead, f.prune_floor(),
                                       kMaxTxPower),
            LinkCache::kInvalidRow);
  // The same virtual id reappears near a gateway (id reuse by traffic
  // generators): the stale rejection must not stick.
  const Point near_east{Meters{150100.0}, Meters{500.0}};
  EXPECT_NE(east.ensure_row_if_audible(node, near_east, f.prune_floor(),
                                       kMaxTxPower),
            LinkCache::kInvalidRow);
}

TEST(ShardRunner, WideWorldDigestIsShardInvariant) {
  auto run_digest = [](int shards) {
    WideFixture f;
    std::vector<EndNode*> nodes;
    // Nodes spread across both stripes, the border, and the dead zone.
    for (const double x : {49800.0, 50300.0, 99500.0, 100000.0, 100600.0,
                           149700.0, 150400.0, 199000.0}) {
      nodes.push_back(&f.add_node(Point{Meters{x}, Meters{480.0}}));
    }
    RunOptions options;
    options.shards = shards;
    ScenarioRunner runner(f.deployment, /*seed=*/7, options);
    const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
    return fate_digest(runner.run_window(txs).fates);
  };
  const std::uint64_t mono = run_digest(1);
  EXPECT_EQ(run_digest(2), mono);
  EXPECT_EQ(run_digest(8), mono);
}

TEST(ShardRunner, StatsReportBoundaryAndResidency) {
  WideFixture f;
  std::vector<EndNode*> nodes;
  nodes.push_back(&f.add_node(Point{Meters{50300.0}, Meters{480.0}}));
  nodes.push_back(&f.add_node(Point{Meters{99800.0}, Meters{480.0}}));
  nodes.push_back(&f.add_node(Point{Meters{199000.0}, Meters{480.0}}));
  RunOptions options;
  options.shards = 2;
  ScenarioRunner runner(f.deployment, /*seed=*/7, options);
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  (void)runner.run_window(txs);
  const ShardWindowStats& stats = runner.shard_stats();
  EXPECT_EQ(stats.shards, 2);
  // The west node is resident only in shard 0, the border node in both,
  // and the dead-zone node nowhere: three rows total, one of them across
  // the border from its home stripe.
  EXPECT_EQ(stats.resident_rows, 3u);
  EXPECT_EQ(stats.boundary_rows, 1u);
}

// The shard telemetry is a pure function of the window and the partition:
// the parallel prepass sums its per-shard terms in shard order, so the
// thread count cannot move it.
TEST(ShardRunner, StatsAreThreadInvariant) {
  auto stats_at = [](int threads, int shards) {
    WideFixture f;
    std::vector<EndNode*> nodes;
    for (const double x : {49800.0, 50300.0, 99500.0, 100000.0, 100600.0,
                           149700.0, 150400.0, 199000.0}) {
      nodes.push_back(&f.add_node(Point{Meters{x}, Meters{480.0}}));
    }
    ScenarioRunner runner(f.deployment, /*seed=*/7,
                          RunOptions{.threads = threads, .shards = shards});
    (void)runner.run_window(concurrent_burst(nodes, Seconds{0.0}, f.ids));
    return runner.shard_stats();
  };
  for (const int shards : {2, 8}) {
    const ShardWindowStats serial = stats_at(1, shards);
    const ShardWindowStats parallel = stats_at(8, shards);
    EXPECT_EQ(parallel.shards, serial.shards);
    EXPECT_EQ(parallel.resident_rows, serial.resident_rows) << shards;
    EXPECT_EQ(parallel.boundary_rows, serial.boundary_rows) << shards;
    EXPECT_EQ(parallel.boundary_events, serial.boundary_events) << shards;
    EXPECT_GT(serial.boundary_events, 0u) << shards;
  }
}

// Memo invalidation through the runner. Each slice memoizes rows and
// rejections per node across windows, so a runner's second window starts
// from the first window's memo. Whatever changed in between, it must give
// the fates a fresh deployment gives that window alone.
const RunOptions kMemoOptions{.threads = 4, .shards = 8};
constexpr double kNodeY = 480.0;

Point at_x(double x) { return Point{Meters{x}, Meters{kNodeY}}; }

// The wide fixture with one node per x position (plus `setup`), and a
// burst with one transmission per node.
struct MemoWorld {
  WideFixture f;
  std::vector<Transmission> txs;

  MemoWorld(std::initializer_list<double> xs,
            const std::function<void(WideFixture&)>& setup = {}) {
    std::vector<EndNode*> nodes;
    for (const double x : xs) nodes.push_back(&f.add_node(at_x(x)));
    if (setup) setup(f);
    txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  }
};

std::uint64_t fresh_digest(const std::vector<Transmission>& txs,
                           std::initializer_list<double> xs,
                           const std::function<void(WideFixture&)>& setup,
                           RunOptions options = kMemoOptions) {
  MemoWorld fresh(xs, setup);
  ScenarioRunner runner(fresh.f.deployment, /*seed=*/7, options);
  return fate_digest(runner.run_window(txs).fates);
}

bool delivered(const WindowResult& result, NodeId node) {
  for (const PacketFate& fate : result.fates) {
    if (fate.node == node) return fate.delivered;
  }
  return false;
}

void add_dead_zone_gateway(WideFixture& f) {
  auto& gw = f.network->add_gateway(f.deployment.next_gateway_id(),
                                    Point{Meters{198500.0}, Meters{500.0}},
                                    default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(f.deployment.spectrum(), 0).channels});
}

TEST(ShardMemo, GatewayAddedBetweenWindows) {
  const auto xs = {50300.0, 199000.0};
  MemoWorld world(xs);
  ScenarioRunner runner(world.f.deployment, /*seed=*/7, kMemoOptions);
  ASSERT_FALSE(delivered(runner.run_window(world.txs), world.txs[1].node));
  add_dead_zone_gateway(world.f);
  const WindowResult second = runner.run_window(world.txs);
  EXPECT_TRUE(delivered(second, world.txs[1].node));
  EXPECT_EQ(fate_digest(second.fates),
            fresh_digest(world.txs, xs, add_dead_zone_gateway));
}

TEST(ShardMemo, AntennaChangedBetweenWindows) {
  // 12 km east of the east gateway: beyond an omni antenna's reach, inside
  // a 12 dBi panel's when it points east.
  const auto xs = {50300.0, 162000.0};
  const auto point_east = [](WideFixture& f) {
    for (auto& gw : f.network->gateways()) {
      if (gw.position() == f.gw_east) {
        gw.set_antenna(std::make_unique<DirectionalAntenna>(), 0.0);
      }
    }
  };
  MemoWorld world(xs);
  ScenarioRunner runner(world.f.deployment, /*seed=*/7, kMemoOptions);
  (void)runner.run_window(world.txs);
  const std::size_t rows_before = runner.shard_stats().resident_rows;
  point_east(world.f);
  const WindowResult second = runner.run_window(world.txs);
  EXPECT_GT(runner.shard_stats().resident_rows, rows_before);
  EXPECT_EQ(fate_digest(second.fates), fresh_digest(world.txs, xs, point_east));
}

TEST(ShardMemo, NodeIdReusedAtNewOrigin) {
  // A resident node moves into the dead zone and a rejected one next to a
  // gateway, both under their old ids.
  const auto xs = {50300.0, 199000.0};
  MemoWorld world(xs);
  ScenarioRunner runner(world.f.deployment, /*seed=*/7, kMemoOptions);
  (void)runner.run_window(world.txs);
  std::vector<Transmission> moved = world.txs;
  moved[0].origin = at_x(199000.0);
  moved[1].origin = at_x(99800.0);
  const WindowResult second = runner.run_window(moved);
  EXPECT_FALSE(delivered(second, moved[0].node));
  EXPECT_TRUE(delivered(second, moved[1].node));
  EXPECT_EQ(fate_digest(second.fates), fresh_digest(moved, xs, {}));
}

TEST(ShardMemo, ShardCountSwitchRebuildsSlices) {
  const auto xs = {49800.0, 99500.0, 100600.0, 150400.0, 199000.0};
  MemoWorld world(xs);
  ScenarioRunner runner(world.f.deployment, /*seed=*/7, kMemoOptions);
  const std::uint64_t first = fate_digest(runner.run_window(world.txs).fates);
  const ShardWindowStats eight = runner.shard_stats();
  runner.set_options(RunOptions{.threads = 4, .shards = 4});
  EXPECT_EQ(fate_digest(runner.run_window(world.txs).fates), first);
  runner.set_options(kMemoOptions);
  EXPECT_EQ(fate_digest(runner.run_window(world.txs).fates), first);
  // The slices were rebuilt, so residency is the fresh run's again.
  EXPECT_EQ(runner.shard_stats().resident_rows, eight.resident_rows);
  EXPECT_EQ(runner.shard_stats().boundary_rows, eight.boundary_rows);
  EXPECT_EQ(first, fresh_digest(world.txs, xs, {}));
}

TEST(ShardMemo, OutOfSpecPowerFromRejectedNode) {
  // 10 km east of the east gateway: rejected at legal powers, heard when it
  // transmits far above kMaxTxPower (which bypasses the audibility gate).
  const auto xs = {50300.0, 160000.0};
  MemoWorld world(xs);
  ScenarioRunner runner(world.f.deployment, /*seed=*/7, kMemoOptions);
  ASSERT_FALSE(delivered(runner.run_window(world.txs), world.txs[1].node));
  std::vector<Transmission> loud = world.txs;
  loud[1].tx_power = Dbm{40.0};
  const WindowResult second = runner.run_window(loud);
  EXPECT_TRUE(delivered(second, loud[1].node));
  EXPECT_EQ(fate_digest(second.fates), fresh_digest(loud, xs, {}));
}

TEST(ShardMemo, TwoRunnersShareVirtualIdsAtDifferentOrigins) {
  // Two traffic sources on one deployment emit the same virtual ids from
  // different places: runner `a` next to the west and east gateways,
  // runner `b` from the dead zone and next to the west gateway. Each moves
  // the other's rows between windows; the memo lives in the shared cache,
  // so neither runner may trust a row it resolved itself a window earlier.
  const auto xs = {50300.0, 150300.0};
  MemoWorld world(xs);
  std::vector<Transmission> a_txs = world.txs;
  for (std::size_t k = 0; k < a_txs.size(); ++k) {
    a_txs[k].node = static_cast<NodeId>(900'000 + k);
  }
  std::vector<Transmission> b_txs = a_txs;
  b_txs[0].origin = at_x(199000.0);
  b_txs[1].origin = at_x(50300.0);
  for (auto& tx : b_txs) tx.id += 100;
  ScenarioRunner a(world.f.deployment, /*seed=*/7, kMemoOptions);
  ScenarioRunner b(world.f.deployment, /*seed=*/7, kMemoOptions);
  (void)a.run_window(a_txs);
  (void)b.run_window(b_txs);
  const WindowResult a_second = a.run_window(a_txs);
  const WindowResult b_second = b.run_window(b_txs);
  EXPECT_EQ(a_second.total_delivered(), 2u);
  EXPECT_EQ(b_second.total_delivered(), 1u);
  EXPECT_EQ(fate_digest(a_second.fates), fresh_digest(a_txs, xs, {}));
  EXPECT_EQ(fate_digest(b_second.fates), fresh_digest(b_txs, xs, {}));
}

// Emulated users share their physical node's origin (10 per node here), so
// consecutive first contacts in a slice often come from one position: the
// path where a slice reuses the origin's geometry. The window grows every
// slice inside the parallel prepass; its fates must not depend on the
// thread or shard count, and equal a digest pinned before that reuse
// existed.
TEST(ShardRunner, CoLocatedUsersDigestIsShardAndThreadInvariant) {
  const auto xs = {49800.0, 50300.0, 99500.0, 100000.0,
                   100600.0, 149700.0, 150400.0, 199000.0};
  auto run_digest = [&xs](int threads, int shards) {
    WideFixture f;
    std::vector<EndNode*> nodes;
    for (const double x : xs) nodes.push_back(&f.add_node(at_x(x)));
    Rng rng(29);
    const auto txs = emulated_user_traffic(nodes, /*users_per_node=*/10,
                                           Seconds{120.0}, 0.05, rng, f.ids);
    // The hit path is exercised: some first contacts follow a sibling's.
    std::size_t sibling_pairs = 0;
    for (std::size_t i = 1; i < txs.size(); ++i) {
      sibling_pairs += txs[i].origin == txs[i - 1].origin &&
                       txs[i].node != txs[i - 1].node;
    }
    EXPECT_GT(sibling_pairs, 0u);
    ScenarioRunner runner(f.deployment, /*seed=*/7,
                          RunOptions{.threads = threads, .shards = shards});
    const WindowResult result = runner.run_window(txs);
    EXPECT_GT(result.total_delivered(), 0u);
    return fate_digest(result.fates);
  };
  for (const int threads : {1, 4}) {
    for (const int shards : {1, 2, 8}) {
      const std::uint64_t digest = run_digest(threads, shards);
      EXPECT_EQ(digest, 0x0e331327bf080abaULL)
          << "threads " << threads << ", shards " << shards << ": "
          << digest_hex(digest);
    }
  }
}

// Nodes near the audibility edge at mixed tx powers: the candidate masks
// assume every transmitter sends at kMaxTxPower, so most (transmission,
// gateway) candidates here cannot reach the prune floor at the power the
// node actually uses. One node sends above kMaxTxPower (out of spec, so it
// is a candidate everywhere). Fates must not depend on the thread or shard
// count, and equal a digest pinned before candidates were tested at their
// own tx power.
TEST(ShardRunner, MixedTxPowerWindowDigestIsShardAndThreadInvariant) {
  const double offsets[] = {300.0, 4500.0, 5000.0, 5500.0,
                            5900.0, 6200.0, 6500.0, 6800.0};
  const double powers[] = {2.0, 5.0, 8.0, 14.0, 20.0};
  auto run_digest = [&](int threads, int shards) {
    WideFixture f;
    std::vector<EndNode*> nodes;
    std::size_t k = 0;
    for (const double gw_x : {50000.0, 100000.0, 150000.0}) {
      for (const double offset : offsets) {
        for (const double sign : {-1.0, 1.0}) {
          NodeRadioConfig cfg;
          cfg.channel = f.deployment.spectrum().grid_channel(0);
          cfg.dr = static_cast<DataRate>(k % 6);
          cfg.tx_power = Dbm{powers[k % 5]};
          nodes.push_back(&f.network->add_node(
              f.deployment.next_node_id(), at_x(gw_x + sign * offset), cfg));
          ++k;
        }
      }
    }
    NodeRadioConfig loud;
    loud.channel = f.deployment.spectrum().grid_channel(0);
    loud.tx_power = Dbm{23.0};
    nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                         at_x(148500.0), loud));
    Rng rng(31);
    const auto txs = emulated_user_traffic(nodes, /*users_per_node=*/4,
                                           Seconds{120.0}, 0.05, rng, f.ids);
    ScenarioRunner runner(f.deployment, /*seed=*/7,
                          RunOptions{.threads = threads, .shards = shards});
    const WindowResult result = runner.run_window(txs);
    EXPECT_GT(result.total_delivered(), 0u);
    EXPECT_LT(result.total_delivered(), result.total_offered());
    if (shards == 1) {
      // Most (transmission, gateway) candidates fail the bound at their
      // own power, so the window exercises the prune.
      LinkCache& slice = f.deployment.shard_caches(1).slice(0);
      const Db sigma =
          f.deployment.channel_model().config().fast_fading_sigma_db;
      std::size_t candidates = 0;
      std::size_t audible = 0;
      for (const Transmission& tx : txs) {
        const std::uint32_t row = slice.row_of(tx.node);
        if (row == LinkCache::kInvalidRow) continue;
        const auto mask =
            slice.candidate_mask(row, f.prune_floor(), kMaxTxPower);
        for (std::size_t c = 0; c < slice.column_count(); ++c) {
          if (((mask[c / 64] >> (c % 64)) & 1U) == 0) continue;
          ++candidates;
          const LinkGain g = slice.gains(c)[row];
          audible += g.antenna_gain.value() - g.path_loss.value() >=
                     min_audible_gain(f.prune_floor(), tx.tx_power, sigma);
        }
      }
      EXPECT_LT(2 * audible, candidates);
      EXPECT_GT(audible, 0u);
    }
    return fate_digest(result.fates);
  };
  for (const int threads : {1, 2}) {
    for (const int shards : {1, 8}) {
      const std::uint64_t digest = run_digest(threads, shards);
      EXPECT_EQ(digest, 0xe604f997d5c65a15ULL)
          << "threads " << threads << ", shards " << shards << ": "
          << digest_hex(digest);
    }
  }
}

}  // namespace
}  // namespace alphawan
