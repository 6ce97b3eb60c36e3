#include "phy/channel_model.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

TEST(ChannelModel, PathLossMonotoneInDistance) {
  ChannelModel model;
  Db prev = model.mean_path_loss(Meters{1.0});
  for (Meters d{10.0}; d < Meters{5000.0}; d *= 2.0) {
    const Db pl = model.mean_path_loss(d);
    EXPECT_GT(pl, prev);
    prev = pl;
  }
}

TEST(ChannelModel, BelowReferenceDistanceClamped) {
  ChannelModel model;
  EXPECT_DOUBLE_EQ(model.mean_path_loss(Meters{0.1}).value(),
                   model.mean_path_loss(Meters{1.0}).value());
}

TEST(ChannelModel, ShadowingFrozenPerLink) {
  ChannelModel model;
  const Db a1 = model.link_path_loss(1, 2, Meters{500.0});
  const Db a2 = model.link_path_loss(1, 2, Meters{500.0});
  EXPECT_DOUBLE_EQ(a1.value(), a2.value());
}

TEST(ChannelModel, ShadowingDiffersAcrossLinks) {
  ChannelModel model;
  const Db a = model.link_path_loss(1, 2, Meters{500.0});
  const Db b = model.link_path_loss(3, 2, Meters{500.0});
  EXPECT_NE(a, b);
}

TEST(ChannelModel, ShadowingKeyDoesNotAliasHighRxIds) {
  // Regression: the old `(tx_id << 20) ^ rx_id` cache key aliased once rx
  // ids carried bits >= 20. The runner keys gateways at 1 << 32 upward, so
  // e.g. (node 4096, gateway key 2^32 + 7) collided with (node 0, rx 7) —
  // two unrelated links sharing one frozen shadowing draw.
  ChannelModel model;
  constexpr std::uint64_t kGatewayKeyBase = 1ULL << 32;
  const Db a = model.link_path_loss(4096, kGatewayKeyBase + 7, Meters{500.0});
  const Db b = model.link_path_loss(0, 7, Meters{500.0});
  EXPECT_NE(a, b);
  // And distinct gateways seen from one node must not share draws either.
  const Db g1 = model.link_path_loss(42, kGatewayKeyBase + 1, Meters{500.0});
  const Db g2 = model.link_path_loss(42, kGatewayKeyBase + 2, Meters{500.0});
  EXPECT_NE(g1, g2);
}

TEST(ChannelModel, ShadowingDeterministicAcrossInstances) {
  ChannelModelConfig cfg;
  cfg.seed = 99;
  ChannelModel m1(cfg), m2(cfg);
  EXPECT_DOUBLE_EQ(m1.link_path_loss(5, 6, Meters{800.0}).value(),
                   m2.link_path_loss(5, 6, Meters{800.0}).value());
}

TEST(ChannelModel, FastFadingVariesPerPacket) {
  ChannelModel model;
  Rng rng(3);
  const Dbm p1 = model.received_power(1, 2, Meters{300.0}, Dbm{14.0}, rng);
  const Dbm p2 = model.received_power(1, 2, Meters{300.0}, Dbm{14.0}, rng);
  EXPECT_NE(p1, p2);
  EXPECT_NEAR(p1.value(), p2.value(), 10.0);  // but they stay close (sigma ~1 dB)
}

TEST(ChannelModel, UrbanRangesRealistic) {
  // With 14 dBm + 2 dBi, SF7 should reach hundreds of meters and SF12
  // over a kilometer (the paper's testbed exercises all DRs over
  // 2.1 x 1.6 km): the mean SNR clears each threshold inside the band
  // and misses it beyond.
  ChannelModel model;
  const auto mean_snr = [&](Meters dist) {
    return (Dbm{14.0 + 2.0} - model.mean_path_loss(dist)) -
           noise_floor_dbm(kLoRaBandwidth125k);
  };
  const Db sf7 = demod_snr_threshold(SpreadingFactor::kSF7);
  const Db sf12 = demod_snr_threshold(SpreadingFactor::kSF12);
  EXPECT_GT(mean_snr(Meters{300.0}), sf7);
  EXPECT_LT(mean_snr(Meters{1500.0}), sf7);
  EXPECT_GT(mean_snr(Meters{1000.0}), sf12);
  EXPECT_LT(mean_snr(Meters{4000.0}), sf12);
}

TEST(ChannelModel, MeanSnrDropsWithDistance) {
  ChannelModel model;
  EXPECT_GT(model.mean_link_snr(1, 2, Meters{100.0}, Dbm{14.0}),
            model.mean_link_snr(1, 2, Meters{1000.0}, Dbm{14.0}));
}

TEST(ChannelModel, HigherPowerHigherSnr) {
  ChannelModel model;
  EXPECT_GT(model.mean_link_snr(1, 2, Meters{500.0}, Dbm{20.0}),
            model.mean_link_snr(1, 2, Meters{500.0}, Dbm{8.0}));
}

// Bit pin of the static link terms every cache and planner reads: one
// FNV-1a digest over the bit patterns of link_path_loss and mean_link_snr
// for 2,000 (tx, rx, distance) triples. The triples cover small and
// 64-bit tx ids, rx keys on both sides of kGatewayKeyBase (2^32),
// distances below the reference distance (clamped) and several shadowing
// sigmas, so any change to the shadowing draw or the path-loss arithmetic
// moves the digest, however small.
TEST(ChannelModel, LinkPathLossBitsPinned) {
  std::uint64_t digest = kFnv1aOffset;
  const auto fold = [&digest](double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    digest = fnv1a(&bits, sizeof bits, digest);
  };
  for (const double sigma : {0.0, 3.0, 4.0, 9.5}) {
    ChannelModelConfig cfg;
    cfg.shadowing_sigma_db = Db{sigma};
    cfg.seed = 5 + static_cast<std::uint64_t>(sigma * 2.0);
    const ChannelModel model(cfg);
    for (std::uint64_t k = 0; k < 500; ++k) {
      const std::uint64_t tx =
          k % 4 == 3 ? k * 0x9E3779B97F4A7C15ULL : 1'000'000 + k;
      const std::uint64_t rx = k % 3 == 0   ? kGatewayKeyBase + k % 64
                               : k % 3 == 1 ? k % 7
                                            : (kGatewayKeyBase << 8) + k;
      // Every fifth distance sits below the 1 m reference distance.
      const Meters dist{k % 5 == 0 ? 0.002 * static_cast<double>(k)
                                   : 1.0 + 37.3 * static_cast<double>(k)};
      fold(model.link_path_loss(tx, rx, dist).value());
      fold(model.mean_link_snr(tx, rx, dist, Dbm{14.0}).value());
    }
  }
  EXPECT_EQ(digest, 0x918b1e2ffc3a730eULL) << digest_hex(digest);
}

}  // namespace
}  // namespace alphawan
