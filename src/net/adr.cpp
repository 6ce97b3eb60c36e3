#include "net/adr.hpp"

#include <cmath>

#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

// One DR step is worth ~2.5-3 dB of demod threshold.
constexpr Db kStep{3.0};

}  // namespace

NodeRadioConfig standard_adr(const NodeRadioConfig& current, Db best_snr,
                             const AdrConfig& adr) {
  const Db required = demod_snr_threshold(dr_to_sf(current.dr));
  Db margin = best_snr - required - adr.installation_margin;
  int steps = static_cast<int>(std::floor(margin / kStep));

  NodeRadioConfig next = current;
  // Raise data rate while steps remain (each DR step needs one margin
  // step); DR5 is the ceiling.
  while (steps > 0 && next.dr != DataRate::kDR5) {
    next.dr = static_cast<DataRate>(dr_value(next.dr) + 1);
    --steps;
  }
  // Remaining steps reduce transmit power.
  while (steps > 0 && next.tx_power - kStep >= adr.min_tx_power) {
    next.tx_power -= kStep;
    --steps;
  }
  // Negative margin: back the data rate off / restore power.
  while (steps < 0 && next.tx_power + kStep <= kDefaultTxPower) {
    next.tx_power += kStep;
    ++steps;
  }
  while (steps < 0 && next.dr != DataRate::kDR0) {
    next.dr = static_cast<DataRate>(dr_value(next.dr) - 1);
    ++steps;
  }
  return next;
}

}  // namespace alphawan
