// Kernel-level differential tests of the batched PHY receive kernels
// (phy/batch_kernels.hpp) against their scalar references, on synthetic
// SoA buckets the tests control exactly — the property suite
// (tests/property/test_prop_kernels.cpp) covers whole-pipeline worlds;
// here each kernel is driven in isolation, including the edge shapes:
// empty buckets, a single event, and the monotone-cursor protocol.
#include "phy/batch_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "phy/band_plan.hpp"
#include "phy/lora_params.hpp"

namespace alphawan {
namespace {

const Spectrum kSpec = spectrum_1m6();

// ---- keyed substream batching --------------------------------------------

TEST(SubstreamBatch, MatchesTwoKeySubstreamBitForBit) {
  const Rng root(0xFEED5EEDULL);
  const std::uint64_t a = 0xFAD1'F0E5'7A7EULL ^ (std::uint64_t{7} << 40);
  const SubstreamBatch batch(root, a);
  for (const std::uint64_t b : {0ULL, 1ULL, 42ULL, 0xFFFF'FFFF'FFFFULL}) {
    Rng direct = root.substream(a, b);
    Rng batched = batch.at(b);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(direct.next(), batched.next()) << "key " << b << " draw " << i;
    }
  }
}

TEST(BatchFadingDraws, MatchesScalarNormalOnceDraws) {
  const Rng root(20260808ULL);
  const std::uint64_t domain = 0xFAD1'F0E5'7A7EULL ^ (std::uint64_t{3} << 40);
  const SubstreamBatch stream(root, domain);
  const double sigma = 2.5;

  std::vector<PacketId> packets = {901, 17, 17, 5000, 1, 902};
  std::vector<std::uint32_t> tx_index = {5, 0, 2, 3};  // arbitrary subset
  std::vector<double> out(tx_index.size());
  batch_fading_draws(stream, packets.data(), tx_index.data(), tx_index.size(),
                     sigma, out.data());
  for (std::size_t k = 0; k < tx_index.size(); ++k) {
    Rng scalar = root.substream(domain, packets[tx_index[k]]);
    EXPECT_EQ(out[k], scalar.normal_once(0.0, sigma)) << "draw " << k;
  }
}

TEST(BatchFadingDraws, EmptyBatchWritesNothing) {
  const Rng root(1ULL);
  const SubstreamBatch stream(root, 99);
  double sentinel = 123.0;
  batch_fading_draws(stream, nullptr, nullptr, 0, 1.0, &sentinel);
  EXPECT_EQ(sentinel, 123.0);
}

// ---- candidate rx-power filter -------------------------------------------

TEST(BatchRxPowerFilter, MatchesScalarExpressionAndCompacts) {
  std::vector<LinkGain> gains = {
      LinkGain{Db{70.0}, Db{2.0}},
      LinkGain{Db{120.0}, Db{0.0}},
      LinkGain{Db{95.5}, Db{-1.5}},
  };
  std::vector<std::uint32_t> row_of_tx = {0, 1, 2, 1, 0};
  std::vector<Dbm> tx_power = {Dbm{14.0}, Dbm{14.0}, Dbm{12.0}, Dbm{20.0},
                               Dbm{2.0}};
  std::vector<std::uint32_t> idx = {0, 1, 2, 3, 4};
  std::vector<double> fading = {0.5, -3.0, 1.25, 4.0, -0.75};
  const Dbm floor{-100.0};

  std::vector<std::uint32_t> expect_idx;
  std::vector<Dbm> expect_power;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const LinkGain g = gains[row_of_tx[idx[k]]];
    const Dbm rx =
        tx_power[idx[k]] - g.path_loss + Db{fading[k]} + g.antenna_gain;
    if (rx < floor) continue;
    expect_idx.push_back(idx[k]);
    expect_power.push_back(rx);
  }
  ASSERT_FALSE(expect_idx.empty());
  ASSERT_LT(expect_idx.size(), idx.size());  // the case exercises both fates

  std::vector<Dbm> out_power(idx.size(), Dbm{-400.0});
  const std::size_t kept = batch_rx_power_filter(
      gains, row_of_tx.data(), tx_power.data(), fading.data(), floor,
      idx.data(), idx.size(), out_power.data());
  ASSERT_EQ(kept, expect_idx.size());
  for (std::size_t k = 0; k < kept; ++k) {
    EXPECT_EQ(idx[k], expect_idx[k]);
    EXPECT_EQ(out_power[k].value(), expect_power[k].value());
  }
}

TEST(BatchRxPowerFilter, EmptyBatchKeepsNothing) {
  std::vector<LinkGain> gains = {LinkGain{}};
  EXPECT_EQ(batch_rx_power_filter(gains, nullptr, nullptr, nullptr,
                                  Dbm{-100.0}, nullptr, 0, nullptr),
            0u);
}

// ---- own-power candidate prune -------------------------------------------

// The events batch_rx_power_filter keeps from candidate list `idx`, with
// fading looked up per transmission (fading is keyed per packet, so a
// candidate's draw does not depend on which others are in the list).
struct Filtered {
  std::vector<std::uint32_t> idx;
  std::vector<Dbm> power;
};

Filtered filter_list(std::span<const LinkGain> gains,
                     const std::vector<std::uint32_t>& row_of_tx,
                     const std::vector<Dbm>& tx_power,
                     const std::vector<double>& fade_of_tx, Dbm floor,
                     std::vector<std::uint32_t> idx) {
  std::vector<double> fading;
  for (const std::uint32_t i : idx) fading.push_back(fade_of_tx[i]);
  Filtered out;
  out.power.resize(idx.size());
  const std::size_t kept = batch_rx_power_filter(
      gains, row_of_tx.data(), tx_power.data(), fading.data(), floor,
      idx.data(), idx.size(), out.power.data());
  idx.resize(kept);
  out.power.resize(kept);
  out.idx = std::move(idx);
  return out;
}

void expect_same_events(const Filtered& full, const Filtered& pruned) {
  ASSERT_EQ(full.idx, pruned.idx);
  for (std::size_t k = 0; k < full.idx.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(full.power[k].value()),
              std::bit_cast<std::uint64_t>(pruned.power[k].value()))
        << "event " << k;
  }
}

// Random static gains around the audibility edge, tx powers of 2, 8, 14, 20
// and one above kMaxTxPower, and per-packet fading both from the keyed
// draws the runner makes and pinned at the largest draw the Rng allows: the
// filter keeps exactly the same events, bit for bit, from the pruned list
// as from the full one, and the prune does drop candidates at every power.
TEST(BatchPruneCandidates, FilterOverPrunedListEqualsFullList) {
  const Dbm floor{-142.0};
  const double powers[] = {2.0, 8.0, 14.0, 20.0, 23.0};
  for (const double sigma : {1.0, 3.0, 0.0}) {
    Rng rng(0x9E3779B9ULL + static_cast<std::uint64_t>(sigma * 10.0));
    const std::size_t n = 4000;
    std::vector<LinkGain> gains;
    std::vector<std::uint32_t> row_of_tx;
    std::vector<Dbm> tx_power;
    std::vector<PacketId> packets;
    for (std::size_t i = 0; i < n; ++i) {
      gains.push_back(LinkGain{Db{rng.uniform(120.0, 190.0)},
                               Db{rng.uniform(-3.0, 3.0)}});
      row_of_tx.push_back(static_cast<std::uint32_t>(n - 1 - i));
      tx_power.push_back(Dbm{powers[i % 5]});
      packets.push_back(1000 + i);
    }
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0U);
    std::vector<std::uint32_t> pruned = all;
    pruned.resize(batch_prune_candidates(gains, row_of_tx.data(),
                                         tx_power.data(), floor, Db{sigma},
                                         pruned.data(), pruned.size()));
    ASSERT_TRUE(std::is_sorted(pruned.begin(), pruned.end()));
    for (std::size_t p = 0; p < 5; ++p) {
      std::size_t kept_here = 0;
      for (const std::uint32_t i : pruned) kept_here += i % 5 == p;
      EXPECT_GT(kept_here, 0u) << "sigma " << sigma << ", power " << powers[p];
      EXPECT_LT(kept_here, n / 5) << "sigma " << sigma << ", power "
                                  << powers[p];
    }

    std::vector<double> drawn(n);
    const SubstreamBatch stream(Rng(77), 0xFAD1'F0E5'7A7EULL);
    batch_fading_draws(stream, packets.data(), all.data(), n, sigma,
                       drawn.data());
    std::vector<double> worst(n, kNormalTailSigmas * sigma);
    for (const auto* fade : {&drawn, &worst}) {
      const Filtered full =
          filter_list(gains, row_of_tx, tx_power, *fade, floor, all);
      EXPECT_FALSE(full.idx.empty());
      expect_same_events(full, filter_list(gains, row_of_tx, tx_power, *fade,
                                           floor, pruned));
    }
  }
}

// A candidate whose static gain equals the bound exactly is kept; one ulp
// less is pruned.
TEST(BatchPruneCandidates, KeepsACandidateExactlyAtTheBound) {
  const Dbm floor{-142.0};
  const Db sigma{1.0};
  const Dbm power{14.0};
  const double bound = min_audible_gain(floor, power, sigma);
  const double at = -bound;  // antenna_gain 0: 0 - (-bound) == bound
  std::vector<LinkGain> gains = {
      LinkGain{Db{at}, Db{0.0}},
      LinkGain{Db{std::nextafter(at, 1e9)}, Db{0.0}},
  };
  ASSERT_EQ(gains[0].antenna_gain.value() - gains[0].path_loss.value(), bound);
  ASSERT_LT(gains[1].antenna_gain.value() - gains[1].path_loss.value(), bound);
  const std::vector<std::uint32_t> row_of_tx = {0, 1};
  const std::vector<Dbm> tx_power = {power, power};
  std::vector<std::uint32_t> idx = {0, 1};
  ASSERT_EQ(batch_prune_candidates(gains, row_of_tx.data(), tx_power.data(),
                                   floor, sigma, idx.data(), idx.size()),
            1u);
  EXPECT_EQ(idx[0], 0u);
}

TEST(BatchPruneCandidates, EmptyListKeepsNothing) {
  std::vector<LinkGain> gains = {LinkGain{}};
  EXPECT_EQ(batch_prune_candidates(gains, nullptr, nullptr, Dbm{-142.0},
                                   Db{1.0}, nullptr, 0),
            0u);
}

// ---- synthetic buckets for the scan kernels -------------------------------

struct SyntheticBucket {
  std::vector<Seconds> start;
  std::vector<Seconds> end;
  std::vector<double> lin_power;
  std::vector<std::uint32_t> channel;  // window channel id
  std::vector<Channel> channels;       // the window's distinct channels
  std::vector<ChannelLink> toward;     // per window channel, toward the chain
  std::vector<Dbm> power;
  std::vector<SpreadingFactor> sf;
  std::vector<NetworkId> net;
  std::vector<std::uint32_t> order;     // start-sorted event indices
  std::vector<std::uint32_t> order_sf;  // stable SF regrouping of `order`
  std::vector<std::uint32_t> pos_sf;    // bucket rank of each order_sf entry
  std::vector<SfGroup> groups;
  Seconds lookback{0.0};

  [[nodiscard]] RxScanSoA soa() const {
    return RxScanSoA{start.data(), end.data(),   lin_power.data(),
                     channel.data(), power.data(), sf.data(),
                     net.data()};
  }
};

// Links every window channel of `b` toward a receive chain on `rx`, as
// GatewayRadio's channel table holds them.
void link_toward(SyntheticBucket& b, const Channel& rx) {
  b.toward.clear();
  for (const Channel& w : b.channels) {
    const double rho = overlap_ratio(w, rx);
    b.toward.push_back(ChannelLink{
        rho, rho > 0.0 && rho < kDetectOverlapThreshold ? coupling_db(w, rx)
                                                        : Db{-400.0}});
  }
}

// A random bucket on one channel, received on a chain tuned to it, grouped
// exactly the way GatewayRadio::build_sf_groups does it (stable counting
// sort by SF over the start-sorted order).
SyntheticBucket make_bucket(Rng& rng, std::size_t count, const Channel& ch) {
  SyntheticBucket b;
  b.channels = {ch};
  link_toward(b, ch);
  for (std::size_t i = 0; i < count; ++i) {
    const Seconds start{rng.uniform(0.0, 0.8)};
    const Seconds dur{rng.uniform(0.02, 0.2)};
    const Dbm power{rng.uniform(-135.0, -55.0)};
    b.start.push_back(start);
    b.end.push_back(start + dur);
    b.power.push_back(power);
    b.lin_power.push_back(batch_detail::dbm_to_lin(power));
    b.channel.push_back(0);
    b.sf.push_back(sf_from_index(
        static_cast<int>(rng.uniform_int(0, kNumSpreadingFactors - 1))));
    b.net.push_back(static_cast<NetworkId>(rng.uniform_int(0, 2)));
  }
  b.order.resize(count);
  std::iota(b.order.begin(), b.order.end(), 0u);
  std::sort(b.order.begin(), b.order.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (b.start[x] != b.start[y]) return b.start[x] < b.start[y];
              return x < y;
            });
  Seconds longest{0.0};
  for (std::size_t i = 0; i < count; ++i) {
    longest = std::max(longest, b.end[i] - b.start[i]);
  }
  b.lookback = longest;

  // Stable counting sort by SF, mirroring build_sf_groups.
  std::uint32_t counts[kNumSpreadingFactors] = {};
  Dbm max_power[kNumSpreadingFactors];
  for (auto& p : max_power) p = Dbm{-400.0};
  for (const std::uint32_t j : b.order) {
    const int s = sf_index(b.sf[j]);
    ++counts[s];
    if (b.power[j] > max_power[s]) max_power[s] = b.power[j];
  }
  std::uint32_t cursor[kNumSpreadingFactors];
  std::uint32_t running = 0;
  for (int s = 0; s < kNumSpreadingFactors; ++s) {
    cursor[s] = running;
    if (counts[s] > 0) {
      b.groups.push_back(
          SfGroup{running, running + counts[s], sf_from_index(s), max_power[s]});
    }
    running += counts[s];
  }
  b.order_sf.resize(count);
  b.pos_sf.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t j = b.order[k];
    auto& cur = cursor[sf_index(b.sf[j])];
    b.order_sf[cur] = j;
    b.pos_sf[cur] = k;
    ++cur;
  }
  return b;
}

// Decoded events in ascending (start, index) order — the visit order the
// batched pipeline guarantees the cursor kernels.
std::vector<std::uint32_t> decoded_ascending(const SyntheticBucket& b) {
  std::vector<std::uint32_t> decoded(b.start.size());
  std::iota(decoded.begin(), decoded.end(), 0u);
  std::sort(decoded.begin(), decoded.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (b.start[x] != b.start[y]) return b.start[x] < b.start[y];
              return x < y;
            });
  return decoded;
}

ScanEvent event_of(const SyntheticBucket& b, std::uint32_t i) {
  return ScanEvent{i,       b.start[i], b.end[i],       b.power[i],
                   b.sf[i], b.net[i],   b.toward.data()};
}

// Scalar-vs-batched comparison contract: the collision verdict and its
// attribution always match; the interference sums only while no collision
// occurred (they are dead values afterwards — the pipeline drops the event
// before reading them, and the batched kernels stop maintaining them).
void expect_equivalent(const ScanAccum& scalar, const ScanAccum& batched,
                       std::uint32_t i) {
  ASSERT_EQ(scalar.collided, batched.collided) << "event " << i;
  if (scalar.collided) {
    EXPECT_EQ(scalar.foreign_fatal, batched.foreign_fatal) << "event " << i;
  } else {
    EXPECT_EQ(scalar.aligned_same_sf_lin, batched.aligned_same_sf_lin)
        << "event " << i;
    EXPECT_EQ(scalar.misaligned_intf_lin, batched.misaligned_intf_lin)
        << "event " << i;
  }
}

// Whether every event of the bucket belongs to one network — the flag
// GatewayRadio's bucket index hands the aligned kernel.
bool one_network(const SyntheticBucket& b) {
  return std::all_of(b.net.begin(), b.net.end(),
                     [&](NetworkId n) { return n == b.net.front(); });
}

// Runs every decoded event of `b` through the scalar and the aligned
// kernel, each starting from `carried` (the state earlier buckets left),
// and returns how many collided.
int check_aligned_against_scalar(const SyntheticBucket& b,
                                 const ScanAccum& carried,
                                 NetworkId event_net_offset = 0) {
  const bool single = one_network(b);
  std::vector<std::uint32_t> cursors;
  for (const auto& g : b.groups) cursors.push_back(g.begin);
  int collided = 0;
  for (const std::uint32_t i : decoded_ascending(b)) {
    ScanEvent ev = event_of(b, i);
    ev.net += event_net_offset;
    ScanAccum scalar = carried;
    scan_bucket_scalar(b.soa(), b.order.data(),
                       b.order.data() + b.order.size(), b.lookback, ev,
                       scalar);
    ScanAccum batched = carried;
    scan_bucket_aligned_grouped(b.soa(), b.order_sf.data(), b.pos_sf.data(),
                                b.groups.data(),
                                b.groups.data() + b.groups.size(),
                                cursors.data(), b.lookback, single, ev,
                                batched);
    expect_equivalent(scalar, batched, i);
    collided += scalar.collided ? 1 : 0;
  }
  return collided;
}

TEST(ScanBucketAligned, MatchesScalarOnRandomBuckets) {
  Rng rng(0xA11C0DEULL);
  const Channel ch = kSpec.grid_channel(0);
  for (int trial = 0; trial < 50; ++trial) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 80));
    check_aligned_against_scalar(make_bucket(rng, count, ch), ScanAccum{});
  }
}

// The first-collider exit: on one-network buckets — the decoded event's
// own network or another one — it must give the scalar's verdict and
// attribution, also when an earlier bucket already established a
// collision of either attribution; on mixed-network buckets the kernel
// keeps the full scan.
TEST(ScanBucketAligned, FirstColliderExitMatchesScalar) {
  Rng rng(0xF1257C01ULL);
  const Channel ch = kSpec.grid_channel(1);
  ScanAccum carried_own;
  carried_own.collided = true;
  ScanAccum carried_foreign = carried_own;
  carried_foreign.foreign_fatal = true;
  int collided_single = 0;
  int collided_mixed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(2, 80));
    SyntheticBucket single = make_bucket(rng, count, ch);
    std::fill(single.net.begin(), single.net.end(),
              static_cast<NetworkId>(rng.uniform_int(0, 2)));
    SyntheticBucket mixed = make_bucket(rng, count, ch);
    mixed.net.front() = 0;
    mixed.net.back() = 1;
    ASSERT_FALSE(one_network(mixed));
    for (const ScanAccum& carried :
         {ScanAccum{}, carried_own, carried_foreign}) {
      collided_single += check_aligned_against_scalar(single, carried);
      collided_single += check_aligned_against_scalar(single, carried,
                                                      /*event_net_offset=*/1);
      collided_mixed += check_aligned_against_scalar(mixed, carried);
    }
  }
  EXPECT_GT(collided_single, 0);
  EXPECT_GT(collided_mixed, 0);
}

// A mixed-network bucket whose first collider is the decoded event's own
// network and whose last is foreign: the attribution stays foreign (the
// scalar overwrite chain ends at the last collider).
TEST(ScanBucketAligned, LastForeignColliderOutranksFirstOwnOne) {
  const Channel ch = kSpec.grid_channel(2);
  SyntheticBucket b;
  b.channels = {ch};
  link_toward(b, ch);
  // Event 0 is decoded; events 1 (own) and 2 (foreign) both overlap it and
  // are 10 dB louder at its SF, so both collide; event 1 starts first.
  const double starts[] = {0.10, 0.05, 0.12};
  const NetworkId nets[] = {0, 0, 1};
  const double powers[] = {-100.0, -90.0, -90.0};
  for (int k = 0; k < 3; ++k) {
    b.start.push_back(Seconds{starts[k]});
    b.end.push_back(Seconds{starts[k] + 0.1});
    b.power.push_back(Dbm{powers[k]});
    b.lin_power.push_back(batch_detail::dbm_to_lin(Dbm{powers[k]}));
    b.channel.push_back(0);
    b.sf.push_back(SpreadingFactor::kSF9);
    b.net.push_back(nets[k]);
  }
  b.order = {1, 0, 2};  // start order
  b.order_sf = b.order;
  b.pos_sf = {0, 1, 2};
  b.groups = {SfGroup{0, 3, SpreadingFactor::kSF9, Dbm{-90.0}}};
  b.lookback = Seconds{0.1};
  ASSERT_FALSE(one_network(b));
  const ScanEvent ev = event_of(b, 0);
  ScanAccum scalar;
  scan_bucket_scalar(b.soa(), b.order.data(), b.order.data() + 3, b.lookback,
                     ev, scalar);
  std::vector<std::uint32_t> cursors = {0};
  ScanAccum batched;
  scan_bucket_aligned_grouped(b.soa(), b.order_sf.data(), b.pos_sf.data(),
                              b.groups.data(), b.groups.data() + 1,
                              cursors.data(), b.lookback, one_network(b), ev,
                              batched);
  EXPECT_TRUE(scalar.collided);
  EXPECT_TRUE(scalar.foreign_fatal);
  EXPECT_TRUE(batched.collided);
  EXPECT_TRUE(batched.foreign_fatal);
}

TEST(ScanBucketAligned, SingleEventBucketSeesNoInterferer) {
  Rng rng(7ULL);
  const Channel ch = kSpec.grid_channel(1);
  SyntheticBucket b = make_bucket(rng, 1, ch);
  std::vector<std::uint32_t> cursors = {b.groups[0].begin};
  const ScanEvent ev = event_of(b, 0);
  ScanAccum acc;
  scan_bucket_aligned_grouped(b.soa(), b.order_sf.data(), b.pos_sf.data(),
                              b.groups.data(), b.groups.data() + 1,
                              cursors.data(), b.lookback,
                              /*one_network=*/false, ev, acc);
  EXPECT_FALSE(acc.collided);
  EXPECT_EQ(acc.aligned_same_sf_lin, 0.0);
  EXPECT_EQ(acc.misaligned_intf_lin, 0.0);
}

TEST(ScanBucketAligned, EmptyGroupSpanIsANoOp) {
  Rng rng(8ULL);
  const Channel ch = kSpec.grid_channel(2);
  SyntheticBucket b = make_bucket(rng, 4, ch);
  const ScanEvent ev = event_of(b, 0);
  ScanAccum acc;
  // groups_begin == groups_end: the mixed-bucket / empty-bucket shape.
  scan_bucket_aligned_grouped(b.soa(), b.order_sf.data(), b.pos_sf.data(),
                              b.groups.data(), b.groups.data(), nullptr,
                              b.lookback, /*one_network=*/false, ev, acc);
  EXPECT_FALSE(acc.collided);
  EXPECT_EQ(acc.aligned_same_sf_lin, 0.0);
}

// The original per-event scan, on the interferer's and the chain's
// channels instead of table links: the per-pair formulas the reference scan
// must reproduce.
ScanAccum per_pair_scan(const SyntheticBucket& b, std::uint32_t i,
                        const Channel& rx, ScanAccum acc) {
  for (const std::uint32_t j : b.order) {
    if (!(b.start[j] >= b.start[i] - b.lookback)) continue;
    if (b.start[j] >= b.end[i]) break;
    if (j == i || !(b.start[i] < b.end[j])) continue;
    const Channel& src = b.channels[b.channel[j]];
    const double rho = overlap_ratio(src, rx);
    if (rho <= 0.0) continue;
    const bool same_sf = b.sf[j] == b.sf[i];
    if (rho >= kDetectOverlapThreshold) {
      if (same_sf) {
        acc.aligned_same_sf_lin += batch_detail::dbm_to_lin(b.power[j]);
      }
      if (b.power[i] - b.power[j] < capture_sir_threshold(b.sf[i], b.sf[j])) {
        acc.collided = true;
        acc.foreign_fatal = b.net[j] != b.net[i];
      }
    } else {
      Dbm eff = effective_interference_dbm(b.power[j], src, rx);
      if (!same_sf) eff -= kCrossSfMisalignedRejection;
      if (eff > Dbm{-250.0}) {
        acc.misaligned_intf_lin += batch_detail::dbm_to_lin(eff);
      }
    }
  }
  return acc;
}

// Random mixed buckets — a grid channel, neighbours shifted 20 and 75 kHz
// either way, 250 and 500 kHz channels on and beside it, and one clear of
// it — received on 125, 250 and 500 kHz chains: the reference scan,
// reading each interferer's overlap and coupling from the chain's links by
// window channel id, equals the per-pair formulas bit for bit, every sum
// included, from a clean and from a carried-in collision.
TEST(ScanBucketScalar, TableLinksMatchPerPairFormulas) {
  Rng rng(0x7AB1E5ULL);
  const Channel grid = kSpec.grid_channel(3);
  const auto shifted = [&](double khz, Hz bandwidth) {
    return Channel{grid.center + Hz{khz * 1e3}, bandwidth};
  };
  const std::vector<Channel> family = {
      grid,
      shifted(75.0, kLoRaBandwidth125k),
      shifted(-75.0, kLoRaBandwidth125k),
      shifted(-105.0, kLoRaBandwidth125k),
      shifted(20.0, kLoRaBandwidth125k),
      shifted(0.0, kLoRaBandwidth250k),
      shifted(100.0, kLoRaBandwidth500k),
      shifted(160.0, kLoRaBandwidth250k),
      shifted(400.0, kLoRaBandwidth125k)};
  const std::vector<Channel> chains = {grid, shifted(75.0, kLoRaBandwidth125k),
                                       shifted(0.0, kLoRaBandwidth250k),
                                       shifted(100.0, kLoRaBandwidth500k)};
  ScanAccum carried;
  carried.collided = true;
  carried.foreign_fatal = true;
  int misaligned = 0;
  int collided = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(2, 60));
    SyntheticBucket b = make_bucket(rng, count, grid);
    b.channels = family;
    for (auto& id : b.channel) {
      id = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(family.size()) - 1));
    }
    for (const Channel& rx : chains) {
      link_toward(b, rx);
      for (const std::uint32_t i : decoded_ascending(b)) {
        for (const ScanAccum& from : {ScanAccum{}, carried}) {
          ScanAccum table = from;
          scan_bucket_scalar(b.soa(), b.order.data(),
                             b.order.data() + b.order.size(), b.lookback,
                             event_of(b, i), table);
          const ScanAccum formulas = per_pair_scan(b, i, rx, from);
          ASSERT_EQ(table.collided, formulas.collided) << "event " << i;
          EXPECT_EQ(table.foreign_fatal, formulas.foreign_fatal);
          EXPECT_EQ(table.aligned_same_sf_lin, formulas.aligned_same_sf_lin);
          EXPECT_EQ(table.misaligned_intf_lin, formulas.misaligned_intf_lin);
          misaligned += formulas.misaligned_intf_lin > 0.0 ? 1 : 0;
          collided += formulas.collided && !from.collided ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(misaligned, 0);
  EXPECT_GT(collided, 0);
}

}  // namespace
}  // namespace alphawan
