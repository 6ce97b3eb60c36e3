#include "phy/link_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "phy/sensitivity.hpp"
#include "radio/profiles.hpp"

namespace alphawan {
namespace {

constexpr std::uint64_t kRxKeyBase = 1ULL << 32;

// A deterministic, position-dependent stand-in for a gateway antenna.
Db toy_antenna_gain(const Point& origin) {
  return Db{-(origin.x.value() + origin.y.value()) / 1000.0};
}

struct Site {
  GatewayId id;
  Point position;
};

struct Tx {
  NodeId node;
  Point origin;
};

std::vector<Site> test_sites() {
  return {{1, Point{Meters{0.0}, Meters{0.0}}},
          {2, Point{Meters{1200.0}, Meters{300.0}}},
          {7, Point{Meters{-400.0}, Meters{900.0}}}};
}

std::vector<Tx> test_nodes() {
  return {{0, Point{Meters{50.0}, Meters{80.0}}},
          {3, Point{Meters{700.0}, Meters{-200.0}}},
          {11, Point{Meters{1500.0}, Meters{1500.0}}},
          {42, Point{Meters{-900.0}, Meters{400.0}}}};
}

bool has_column(std::span<const std::uint64_t> mask, std::uint32_t col) {
  return (mask[col / 64] >> (col % 64)) & 1U;
}

void upsert(LinkCache& cache, const Site& site, std::uint64_t epoch = 0) {
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, epoch,
                       toy_antenna_gain);
}

// Two caches over identically configured models (frozen shadowing draws are
// keyed by (node, rx_key) and the config seed, so both see the same links)
// must agree gain for gain no matter the registration order.
TEST(LinkCache, IncrementalAddMatchesFromScratchRebuild) {
  ChannelModelConfig cfg;
  cfg.seed = 7;
  ChannelModel model_a(cfg), model_b(cfg);
  LinkCache incremental(model_a);
  LinkCache rebuilt(model_b);

  const auto sites = test_sites();
  const auto nodes = test_nodes();

  // Interleave: one gateway, two rows, the remaining gateways (which must
  // backfill existing rows), then the remaining rows.
  upsert(incremental, sites[0]);
  incremental.ensure_row(nodes[0].node, nodes[0].origin);
  incremental.ensure_row(nodes[1].node, nodes[1].origin);
  upsert(incremental, sites[1]);
  upsert(incremental, sites[2]);
  incremental.ensure_row(nodes[2].node, nodes[2].origin);
  incremental.ensure_row(nodes[3].node, nodes[3].origin);

  // From scratch: all gateways first, then all rows.
  for (const auto& site : sites) upsert(rebuilt, site);
  for (const auto& tx : nodes) rebuilt.ensure_row(tx.node, tx.origin);

  ASSERT_EQ(incremental.column_count(), rebuilt.column_count());
  ASSERT_EQ(incremental.row_count(), rebuilt.row_count());
  for (const auto& site : sites) {
    const auto col_a = incremental.column_of(site.id);
    const auto col_b = rebuilt.column_of(site.id);
    ASSERT_NE(col_a, LinkCache::kInvalidColumn);
    ASSERT_NE(col_b, LinkCache::kInvalidColumn);
    const auto gains_a = incremental.gains(col_a);
    const auto gains_b = rebuilt.gains(col_b);
    ASSERT_EQ(gains_a.size(), gains_b.size());
    for (std::size_t row = 0; row < gains_a.size(); ++row) {
      EXPECT_DOUBLE_EQ(gains_a[row].path_loss.value(),
                       gains_b[row].path_loss.value());
      EXPECT_DOUBLE_EQ(gains_a[row].antenna_gain.value(),
                       gains_b[row].antenna_gain.value());
    }
  }
}

TEST(LinkCache, EnsureRowIsIdempotent) {
  ChannelModel model;
  LinkCache cache(model);
  upsert(cache, test_sites()[0]);
  const auto tx = test_nodes()[0];
  const auto row = cache.ensure_row(tx.node, tx.origin);
  EXPECT_EQ(cache.ensure_row(tx.node, tx.origin), row);
  EXPECT_EQ(cache.row_count(), 1u);
}

TEST(LinkCache, ReusedNodeIdWithNewOriginIsRecomputedInPlace) {
  ChannelModelConfig cfg;
  cfg.seed = 3;
  ChannelModel model(cfg), fresh_model(cfg);
  LinkCache cache(model);
  const auto site = test_sites()[0];
  upsert(cache, site);

  const NodeId node = 1'000'123;  // virtual id, reused across positions
  const Point p1{Meters{100.0}, Meters{100.0}};
  const Point p2{Meters{2000.0}, Meters{-500.0}};
  const auto row = cache.ensure_row(node, p1);
  ASSERT_EQ(cache.ensure_row(node, p2), row);

  // The recomputed row must equal a cache that only ever saw p2.
  LinkCache fresh(fresh_model);
  upsert(fresh, site);
  fresh.ensure_row(node, p2);
  const auto got = cache.gains(cache.column_of(site.id))[row];
  const auto want = fresh.gains(fresh.column_of(site.id))[0];
  EXPECT_DOUBLE_EQ(got.path_loss.value(), want.path_loss.value());
  EXPECT_DOUBLE_EQ(got.antenna_gain.value(), want.antenna_gain.value());
}

TEST(LinkCache, AntennaEpochRefreshesGainsButNotPathLoss) {
  ChannelModel model;
  LinkCache cache(model);
  const auto site = test_sites()[0];
  upsert(cache, site, 0);
  const auto tx = test_nodes()[0];
  const auto row = cache.ensure_row(tx.node, tx.origin);
  const auto col = cache.column_of(site.id);
  const LinkGain before = cache.gains(col)[row];

  // Same epoch: the new gain function must be ignored.
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, 0,
                       [](const Point&) { return Db{9.0}; });
  EXPECT_DOUBLE_EQ(cache.gains(col)[row].antenna_gain.value(),
                   before.antenna_gain.value());

  // Advanced epoch: antenna gain refreshes, path loss stays frozen.
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, 1,
                       [](const Point&) { return Db{9.0}; });
  const LinkGain after = cache.gains(col)[row];
  EXPECT_DOUBLE_EQ(after.antenna_gain.value(), 9.0);
  EXPECT_DOUBLE_EQ(after.path_loss.value(), before.path_loss.value());
}

TEST(LinkCache, ColumnOfUnknownGatewayIsInvalid) {
  ChannelModel model;
  LinkCache cache(model);
  EXPECT_EQ(cache.column_of(99), LinkCache::kInvalidColumn);
}

// The candidate lists are a conservative superset: a pruned (row, column)
// pair must be undeliverable for EVERY fading draw the Rng can produce.
// kNormalTailSigmas bounds |normal()|, so the worst case is tx at the power
// bound plus that many sigmas of constructive fading.
TEST(LinkCache, CandidateListsAreConservativeSuperset) {
  ChannelModelConfig cfg;
  cfg.seed = 11;
  ChannelModel model(cfg);
  LinkCache cache(model);
  for (const auto& site : test_sites()) upsert(cache, site);
  // Spread rows from close-in to far beyond plausible reach so both
  // candidate and pruned pairs exist.
  std::vector<std::uint32_t> rows;
  for (int k = 0; k < 8; ++k) {
    const double d = 100.0 * std::pow(4.0, k);  // 100 m .. ~1638 km
    rows.push_back(
        cache.ensure_row(100 + k, Point{Meters{d}, Meters{0.0}}));
  }

  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  const Dbm power_bound{20.0};
  const double sigma = model.config().fast_fading_sigma_db.value();

  bool saw_pruned = false;
  for (const auto row : rows) {
    const auto candidates = cache.candidate_mask(row, floor, power_bound);
    for (std::uint32_t col = 0; col < cache.column_count(); ++col) {
      if (has_column(candidates, col)) continue;
      saw_pruned = true;
      // Best case a pruned pair could ever realize must stay below floor.
      const LinkGain g = cache.gains(col)[row];
      const Db max_fading{kNormalTailSigmas * sigma};
      const Dbm best =
          power_bound - g.path_loss + max_fading + g.antenna_gain;
      EXPECT_LT(best.value(), floor.value())
          << "pruned pair (row " << row << ", col " << col
          << ") could have cleared the floor";
    }
  }
  EXPECT_TRUE(saw_pruned) << "test topology produced no pruned pairs";
}

// Rows added after the candidate layout is built extend it incrementally;
// the result must match a cold rebuild over the same rows.
TEST(LinkCache, IncrementalCandidatesMatchRebuild) {
  ChannelModelConfig cfg;
  cfg.seed = 13;
  ChannelModel model_a(cfg), model_b(cfg);
  LinkCache warm(model_a);
  LinkCache cold(model_b);
  for (const auto& site : test_sites()) {
    upsert(warm, site);
    upsert(cold, site);
  }

  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  const Dbm power_bound{20.0};

  const Point near{Meters{200.0}, Meters{0.0}};
  const Point far{Meters{3.0e6}, Meters{0.0}};
  warm.ensure_row(1, near);
  (void)warm.candidate_mask(0, floor, power_bound);  // build layout
  warm.ensure_row(2, far);                           // incremental append
  warm.ensure_row(3, near);

  cold.ensure_row(1, near);
  cold.ensure_row(2, far);
  cold.ensure_row(3, near);

  for (std::uint32_t row = 0; row < 3; ++row) {
    const auto a = warm.candidate_mask(row, floor, power_bound);
    const auto b = cold.candidate_mask(row, floor, power_bound);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

// A floor lowered after a rejection re-probes the node: the runner prunes
// at 25 dB below the noise floor, but the cache may be handed another
// floor (perfbench preregisters at its own). A node rejected at the
// runner's floor materializes at one 15 dB lower, and the warm cache then
// holds exactly the rows and candidate masks a fresh cache builds there.
TEST(LinkCache, LowerFloorMaterializesRejectedNode) {
  ChannelModelConfig cfg;
  cfg.seed = 17;
  cfg.shadowing_sigma_db = Db{0.0};  // deterministic reach
  ChannelModel model_a(cfg), model_b(cfg);
  LinkCache warm(model_a);
  LinkCache fresh(model_b);
  for (const auto& site : test_sites()) {
    upsert(warm, site);
    upsert(fresh, site);
  }
  const Dbm noise = noise_floor_dbm(kLoRaBandwidth125k);
  const Dbm runner_floor = noise - Db{25.0};
  const Dbm low_floor = noise - Db{40.0};
  const Point near{Meters{200.0}, Meters{0.0}};
  const Point far{Meters{8000.0}, Meters{0.0}};  // ~7 km past the sites

  ASSERT_EQ(warm.ensure_row_if_audible(1, near, runner_floor, kMaxTxPower),
            0u);
  (void)warm.candidate_mask(0, runner_floor, kMaxTxPower);
  EXPECT_EQ(warm.ensure_row_if_audible(2, far, runner_floor, kMaxTxPower),
            LinkCache::kInvalidRow);
  ASSERT_EQ(warm.ensure_row_if_audible(2, far, low_floor, kMaxTxPower), 1u);

  ASSERT_EQ(fresh.ensure_row_if_audible(1, near, low_floor, kMaxTxPower), 0u);
  ASSERT_EQ(fresh.ensure_row_if_audible(2, far, low_floor, kMaxTxPower), 1u);
  const auto bits = [](Db v) { return std::bit_cast<std::uint64_t>(v.value()); };
  for (std::uint32_t row = 0; row < 2; ++row) {
    for (std::uint32_t col = 0; col < warm.column_count(); ++col) {
      EXPECT_EQ(bits(warm.gains(col)[row].path_loss),
                bits(fresh.gains(col)[row].path_loss));
      EXPECT_EQ(bits(warm.gains(col)[row].antenna_gain),
                bits(fresh.gains(col)[row].antenna_gain));
    }
    const auto a = warm.candidate_mask(row, low_floor, kMaxTxPower);
    const auto b = fresh.candidate_mask(row, low_floor, kMaxTxPower);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
  EXPECT_NE(warm.candidate_mask(1, low_floor, kMaxTxPower)[0], 0U);
}

// First contact of co-located users (emulated users share their physical
// node's position): every gain a slice computes must equal the uncached
// expressions bit for bit — link_path_loss over the same distance, and the
// gateway's own antenna_gain_towards. Two slices share one NodeSlots; the
// setup covers a directional gateway, an antenna swap between
// registrations (epoch bump) at the origin probed last, and a row
// re-registered at a new origin.
TEST(LinkCache, CoLocatedFirstContactMatchesUncached) {
  ChannelModelConfig cfg;
  cfg.seed = 21;
  ChannelModel model(cfg);
  Network net(0, "t");
  std::vector<Gateway*> gws;
  for (const auto& site : test_sites()) {
    gws.push_back(&net.add_gateway(site.id, site.position, default_profile()));
  }
  gws[2]->set_antenna(std::make_unique<DirectionalAntenna>(), 0.4);
  ShardedLinkCache caches(model);
  caches.reset(2);
  // Gateways 1 and 2 live in slice 0, gateway 7 in slice 1.
  const auto slice_of = [](std::size_t g) -> std::size_t { return g < 2 ? 0 : 1; };
  const auto upsert_all = [&] {
    for (std::size_t g = 0; g < gws.size(); ++g) {
      const Gateway* gw = gws[g];
      caches.slice(slice_of(g))
          .upsert_gateway(gw->id(), kGatewayKeyBase + gw->id(), gw->position(),
                          gw->antenna_epoch(), [gw](const Point& origin) {
                            return gw->antenna_gain_towards(origin);
                          });
    }
  };

  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  std::vector<Tx> users;
  // Slice 0 materializes every row; slice 1 gates on audibility.
  const auto add_users = [&](NodeId first, int count, const Point& origin) {
    for (int u = 0; u < count; ++u) {
      const NodeId node = first + static_cast<NodeId>(u);
      caches.slice(0).ensure_row(node, origin);
      (void)caches.slice(1).ensure_row_if_audible(node, origin, floor,
                                                  kMaxTxPower);
      users.push_back({node, origin});
    }
  };
  const auto bits = [](Db v) { return std::bit_cast<std::uint64_t>(v.value()); };
  const auto check = [&](const char* stage) {
    std::size_t checked[2] = {0, 0};
    for (std::size_t g = 0; g < gws.size(); ++g) {
      const Gateway& gw = *gws[g];
      const LinkCache& slice = caches.slice(slice_of(g));
      const auto gains = slice.gains(slice.column_of(gw.id()));
      for (const Tx& user : users) {
        const std::uint32_t row = slice.row_of(user.node);
        if (row == LinkCache::kInvalidRow) continue;
        ++checked[slice_of(g)];
        const Db want_loss = model.link_path_loss(
            user.node, kGatewayKeyBase + gw.id(),
            distance(user.origin, gw.position()));
        EXPECT_EQ(bits(gains[row].path_loss), bits(want_loss))
            << stage << ": node " << user.node << ", gateway " << gw.id();
        EXPECT_EQ(bits(gains[row].antenna_gain),
                  bits(gw.antenna_gain_towards(user.origin)))
            << stage << ": node " << user.node << ", gateway " << gw.id();
      }
    }
    // Every user is resident in slice 0 (two columns); slice 1 (one
    // column, a directional antenna) hears only some of them.
    EXPECT_EQ(checked[0], 2 * users.size()) << stage;
    EXPECT_GT(checked[1], 0u) << stage;
    EXPECT_LT(checked[1], users.size()) << stage;
  };

  const Point a{Meters{50.0}, Meters{80.0}};
  const Point b{Meters{700.0}, Meters{-200.0}};
  const Point on_gateway = test_sites()[1].position;  // below 1 m
  upsert_all();
  add_users(1000, 5, a);
  add_users(2000, 5, b);
  add_users(1005, 3, a);
  add_users(3000, 4, on_gateway);
  add_users(2005, 5, b);
  check("first contact");

  // Swap gateway 1's antenna for one facing away from `b`, the origin both
  // slices probed last: users first heard afterwards at `b` must see the
  // new antenna, not a geometry remembered from before the swap.
  gws[0]->set_antenna(std::make_unique<DirectionalAntenna>(),
                      std::numbers::pi);
  upsert_all();
  add_users(4000, 5, b);
  check("after antenna swap");

  // A registered id moves: its row is recomputed in place, and the users
  // first heard at the new origin afterwards match too.
  const Point moved{Meters{300.0}, Meters{400.0}};
  for (std::size_t s = 0; s < 2; ++s) caches.slice(s).ensure_row(1000, moved);
  users[0].origin = moved;
  add_users(5000, 3, moved);
  check("after move");
}

}  // namespace
}  // namespace alphawan
