// Receiver sensitivity / demodulation thresholds and the DR <-> range
// mapping used by the CP problem's discrete transmission-distance set.
#pragma once

#include <array>
#include <optional>

#include "phy/lora_params.hpp"

namespace alphawan {

// Minimum SNR (dB) required to demodulate each spreading factor at 125 kHz
// (Semtech SX1276/SX1302 datasheet values). SF12 decodes ~20 dB below the
// noise floor — this is why directional antennas fail to isolate users
// (paper Fig. 7): even signals attenuated 40 dB can remain decodable.
[[nodiscard]] constexpr Db demod_snr_threshold(SpreadingFactor sf) {
  switch (sf) {
    case SpreadingFactor::kSF7: return Db{-7.5};
    case SpreadingFactor::kSF8: return Db{-10.0};
    case SpreadingFactor::kSF9: return Db{-12.5};
    case SpreadingFactor::kSF10: return Db{-15.0};
    case SpreadingFactor::kSF11: return Db{-17.5};
    case SpreadingFactor::kSF12: return Db{-20.0};
  }
  return Db{0.0};
}

// Receiver sensitivity in dBm = noise floor + demod threshold.
[[nodiscard]] constexpr Dbm sensitivity_dbm(SpreadingFactor sf, Hz bandwidth) {
  return noise_floor_dbm(bandwidth) + demod_snr_threshold(sf);
}

// Extra SNR (dB) above the bare demodulation limit that the packet
// detector needs to lock onto a preamble reliably.
inline constexpr Db kDetectionMargin{0.0};

// Best (fastest) data rate whose threshold the given SNR satisfies with
// `margin` dB to spare; nullopt if even SF12 cannot be demodulated.
// ALPHAWAN-LINT-ALLOW(units-swappable-pair: margin is defaulted and only
// ever passed by name at the two call sites)
[[nodiscard]] std::optional<DataRate> best_data_rate_for_snr(
    Db snr, Db margin = Db{0.0});

// Transmit power ladder available to end nodes (LoRaWAN TXPower steps).
inline constexpr std::array<Dbm, 6> kTxPowerLadder = {
    Dbm{2.0}, Dbm{5.0}, Dbm{8.0}, Dbm{11.0}, Dbm{14.0}, Dbm{20.0}};
inline constexpr Dbm kDefaultTxPower{14.0};
inline constexpr Dbm kMaxTxPower{20.0};

}  // namespace alphawan
