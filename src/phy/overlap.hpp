// Partial channel overlap: front-end frequency selectivity and
// inter-channel interference coupling.
//
// This is the physical mechanism behind AlphaWAN's Strategy 8 (inter-network
// isolation via misaligned channel plans, Sec. 4.2.4): a radio tuned to
// channel A truncates a packet transmitted on a misaligned channel B before
// the decoding pipeline — the packet never consumes a decoder. The residual
// energy that does fall in-band acts as interference; the coupling model
// below is calibrated to reproduce the measured PRR-vs-overlap curve of
// Fig. 8 and the SNR-threshold shifts of Fig. 16.
//
// The receive path asks these questions once per (window channel, chain)
// pair per window, in GatewayRadio's channel table, and reads the answers
// per candidate interferer pair (phy/batch_kernels.hpp).
#pragma once

#include <algorithm>
#include <cmath>

#include "phy/band_plan.hpp"
#include "phy/lora_params.hpp"

namespace alphawan {

// Fractional bandwidth overlap between two channels, in [0, 1]:
// overlap_width / min(bandwidths).
[[nodiscard]] inline double overlap_ratio(const Channel& a, const Channel& b) {
  const Hz lo = std::max(a.low(), b.low());
  const Hz hi = std::min(a.high(), b.high());
  const Hz width = std::max(Hz{0.0}, hi - lo);
  const Hz denom = std::min(a.bandwidth, b.bandwidth);
  if (denom <= Hz{0.0}) return 0.0;
  return std::clamp(width / denom, 0.0, 1.0);
}

// Minimum overlap for a packet to be detectable/lockable by a receiver
// tuned to a given channel. COTS LoRa radios need near-alignment to
// correlate the preamble; anything below this is truncated by the
// front-end and never reaches the dispatcher.
inline constexpr double kDetectOverlapThreshold = 0.95;

[[nodiscard]] inline bool detectable(const Channel& packet_channel,
                                     const Channel& rx_channel) {
  return overlap_ratio(packet_channel, rx_channel) >= kDetectOverlapThreshold;
}

// Interference coupling (dB, <= 0): how much of an interferer's power on
// channel `src` leaks into a receiver tuned to `dst`. Two effects:
//   * only the overlapping band fraction couples (10*log10(rho)),
//   * the receiver's channel filter attenuates misaligned energy by
//     kSelectivitySlope dB per unit of misalignment.
// Calibration (see bench_fig08_overlap): with equal powers and
// non-orthogonal DRs, reception survives up to ~60-70% overlap; with a
// strong (+15 dB) non-orthogonal interferer the cliff moves to ~45%;
// orthogonal DRs survive essentially all overlaps — matching Fig. 8.
inline constexpr Db kSelectivitySlope{35.0};

[[nodiscard]] inline Db coupling_db(const Channel& src, const Channel& dst) {
  const double rho = overlap_ratio(src, dst);
  if (rho <= 0.0) return Db{-400.0};
  return Db{10.0 * std::log10(rho) - (1.0 - rho) * kSelectivitySlope.value()};
}

// Interferer power through a precomputed coupling — the hoisted form of
// effective_interference_dbm the interferer scan uses (phy/batch_kernels.hpp):
// coupling_db runs once per (window channel, chain) pair per window, and
// each interferer pays only the addition. Bit-identical to the per-event
// form because `power + coupling` is the exact expression
// effective_interference_dbm evaluates after its own coupling_db call.
[[nodiscard]] inline Dbm effective_interference_from_coupling(Dbm power,
                                                              Db coupling) {
  if (coupling <= Db{-399.0}) return Dbm{-400.0};
  return power + coupling;
}

// Effective in-band power (dBm) at a receiver on `dst` of an interferer
// with received power `power` on channel `src`. Returns -infinity-ish
// (-400 dBm) for disjoint channels.
[[nodiscard]] inline Dbm effective_interference_dbm(Dbm power,
                                                    const Channel& src,
                                                    const Channel& dst) {
  return effective_interference_from_coupling(power, coupling_db(src, dst));
}

// Extra rejection (dB) applied to a *misaligned* interferer using a
// different spreading factor: partial-band energy of an orthogonal chirp is
// further suppressed by despreading. Same-SF misaligned energy keeps some
// chirp structure and is only suppressed by the channel filter. This split
// is what makes non-orthogonal DRs on overlapping channels measurably worse
// (paper Figs. 8 and 16).
inline constexpr Db kCrossSfMisalignedRejection{12.0};

}  // namespace alphawan
