#include "phy/sensitivity.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(Sensitivity, ThresholdsDecreaseWithSf) {
  for (int i = 0; i + 1 < kNumSpreadingFactors; ++i) {
    EXPECT_GT(demod_snr_threshold(sf_from_index(i)),
              demod_snr_threshold(sf_from_index(i + 1)));
  }
}

TEST(Sensitivity, KnownThresholds) {
  EXPECT_DOUBLE_EQ(demod_snr_threshold(SpreadingFactor::kSF7).value(), -7.5);
  EXPECT_DOUBLE_EQ(demod_snr_threshold(SpreadingFactor::kSF12).value(),
                   -20.0);
}

TEST(Sensitivity, SensitivityMatchesDatasheetBallpark) {
  // SX1276-class sensitivity at SF12/125k is around -137 dBm.
  const Dbm s = sensitivity_dbm(SpreadingFactor::kSF12, Hz{125e3});
  EXPECT_LT(s, Dbm{-130.0});
  EXPECT_GT(s, Dbm{-142.0});
}

TEST(Sensitivity, BestDataRatePicksFastestFeasible) {
  // SNR 0 dB clears every threshold: DR5 expected.
  EXPECT_EQ(best_data_rate_for_snr(Db{0.0}), DataRate::kDR5);
  // -11 dB: SF9 (-12.5) ok but SF8 (-10) not -> DR3.
  EXPECT_EQ(best_data_rate_for_snr(Db{-11.0}), DataRate::kDR3);
  // -19 dB: only SF12 -> DR0.
  EXPECT_EQ(best_data_rate_for_snr(Db{-19.0}), DataRate::kDR0);
}

TEST(Sensitivity, BestDataRateRespectsMargin) {
  // -6 with margin 3 must fail SF7 (-7.5+3 = -4.5) -> falls to DR4.
  EXPECT_EQ(best_data_rate_for_snr(Db{-6.0}, Db{3.0}), DataRate::kDR4);
}

TEST(Sensitivity, BestDataRateNulloptBelowSf12) {
  EXPECT_FALSE(best_data_rate_for_snr(Db{-25.0}).has_value());
}

TEST(Sensitivity, DrSfMappingRoundTrips) {
  for (const auto dr : kAllDataRates) {
    EXPECT_EQ(sf_to_dr(dr_to_sf(dr)), dr);
  }
  for (const auto sf : kAllSpreadingFactors) {
    EXPECT_EQ(dr_to_sf(sf_to_dr(sf)), sf);
  }
}

TEST(Sensitivity, NoiseFloor125k) {
  EXPECT_NEAR(noise_floor_dbm(kLoRaBandwidth125k).value(), -117.0, 0.1);
}

}  // namespace
}  // namespace alphawan
