#include "phy/airtime.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace alphawan {
namespace {

TEST(Airtime, SymbolDuration) {
  EXPECT_NEAR(symbol_duration(SpreadingFactor::kSF7, Hz{125e3}).value(),
              1.024e-3, 1e-9);
  EXPECT_NEAR(symbol_duration(SpreadingFactor::kSF12, Hz{125e3}).value(),
              32.768e-3, 1e-9);
  EXPECT_NEAR(symbol_duration(SpreadingFactor::kSF7, Hz{250e3}).value(),
              0.512e-3, 1e-9);
}

TEST(Airtime, PreambleDuration) {
  TxParams p;
  p.sf = SpreadingFactor::kSF7;
  // (8 + 4.25) * 1.024 ms = 12.544 ms
  EXPECT_NEAR(preamble_duration(p).value(), 12.544e-3, 1e-7);
}

TEST(Airtime, LowDataRateOptimizeOnlyForSlowSymbols) {
  EXPECT_FALSE(low_data_rate_optimize(SpreadingFactor::kSF10, Hz{125e3}));
  EXPECT_TRUE(low_data_rate_optimize(SpreadingFactor::kSF11, Hz{125e3}));
  EXPECT_TRUE(low_data_rate_optimize(SpreadingFactor::kSF12, Hz{125e3}));
  EXPECT_FALSE(low_data_rate_optimize(SpreadingFactor::kSF12, Hz{500e3}));
}

TEST(Airtime, KnownReferenceValueSf7) {
  // Semtech formula: SF7/125k, CR4/5, explicit header, CRC, 10-byte
  // payload -> 8 + ceil((80 - 28 + 28 + 16) / 28) * 5 = 8 + 4*5 symbols.
  TxParams p;
  p.sf = SpreadingFactor::kSF7;
  EXPECT_EQ(payload_symbols(p, 10), 8u + 4u * 5u);
}

TEST(Airtime, KnownReferenceValueSf12) {
  TxParams p;
  p.sf = SpreadingFactor::kSF12;
  // DE=1: denominator 4*(12-2)=40; numerator 8*10-48+28+16=76 -> 2 blocks.
  EXPECT_EQ(payload_symbols(p, 10), 8u + 2u * 5u);
}

TEST(Airtime, ImplicitHeaderSavesSymbols) {
  TxParams expl;
  expl.sf = SpreadingFactor::kSF8;
  TxParams impl = expl;
  impl.explicit_header = false;
  EXPECT_LE(payload_symbols(impl, 20), payload_symbols(expl, 20));
}

TEST(Airtime, ZeroPayloadStillHasEightSymbols) {
  TxParams p;
  p.sf = SpreadingFactor::kSF9;
  EXPECT_GE(payload_symbols(p, 0), 8u);
}

// Property sweep: airtime is monotone in payload size and spreading factor.
class AirtimeMonotone
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AirtimeMonotone, IncreasesWithPayload) {
  const auto [sf_idx, payload] = GetParam();
  TxParams p;
  p.sf = sf_from_index(sf_idx);
  EXPECT_LE(time_on_air(p, payload), time_on_air(p, payload + 16));
}

TEST_P(AirtimeMonotone, IncreasesWithSpreadingFactor) {
  const auto [sf_idx, payload] = GetParam();
  if (sf_idx >= kNumSpreadingFactors - 1) GTEST_SKIP();
  TxParams lo, hi;
  lo.sf = sf_from_index(sf_idx);
  hi.sf = sf_from_index(sf_idx + 1);
  EXPECT_LT(time_on_air(lo, payload), time_on_air(hi, payload));
}

TEST_P(AirtimeMonotone, PreamblePlusPayloadEqualsTotal) {
  const auto [sf_idx, payload] = GetParam();
  TxParams p;
  p.sf = sf_from_index(sf_idx);
  EXPECT_DOUBLE_EQ(time_on_air(p, payload).value(),
                   (preamble_duration(p) + payload_duration(p, payload)).value());
}

INSTANTIATE_TEST_SUITE_P(
    AllSfPayloads, AirtimeMonotone,
    ::testing::Combine(::testing::Range(0, kNumSpreadingFactors),
                       ::testing::Values<std::size_t>(0, 1, 10, 51, 222)));

}  // namespace
}  // namespace alphawan
