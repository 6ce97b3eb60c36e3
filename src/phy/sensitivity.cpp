#include "phy/sensitivity.hpp"

namespace alphawan {

std::optional<DataRate> best_data_rate_for_snr(Db snr, Db margin) {
  // DR5 (SF7) is fastest; walk from fastest to slowest.
  for (int dr = kNumDataRates - 1; dr >= 0; --dr) {
    const auto rate = static_cast<DataRate>(dr);
    if (snr >= demod_snr_threshold(dr_to_sf(rate)) + margin) {
      return rate;
    }
  }
  return std::nullopt;
}

}  // namespace alphawan
