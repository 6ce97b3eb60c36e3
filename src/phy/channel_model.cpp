#include "phy/channel_model.hpp"

#include <cmath>

namespace alphawan {
namespace {

// SplitMix64 finalizer: a full-avalanche 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Log-distance parameters typical of dense urban 900 MHz measurements
// (e.g. Rademacher et al., VTC'21 LoRa path loss study). With these values
// and 14 dBm + 2 dBi, SF7 reaches ~600 m and SF12 ~1.4 km — consistent with
// the paper's 2.1 km x 1.6 km urban testbed where all six data rates are
// exercised (Fig. 11).
constexpr double kPathLossExponent = 3.5;
constexpr Db kReferenceLoss{38.0};  // at kReferenceDistance
constexpr Meters kReferenceDistance{1.0};

// Collision-resistant (tx, rx) -> key combine. The previous
// `(tx_id << 20) ^ rx_id` scheme aliased as soon as rx ids carried bits
// >= 20 — which the runner's gateway keyspace (kGatewayKeyBase = 1 << 32)
// guarantees — silently giving distinct links the same shadowing draw.
constexpr std::uint64_t link_key(std::uint64_t tx_id, std::uint64_t rx_id) {
  return mix64(mix64(tx_id ^ 0x9E3779B97F4A7C15ULL) ^ rx_id);
}

}  // namespace

ChannelModel::ChannelModel(ChannelModelConfig config)
    : config_(config), shadow_seed_(config.seed * 0xA24BAED4963EE407ULL + 1) {}

Db ChannelModel::mean_path_loss(Meters dist) const {
  const Meters d = std::max(dist, kReferenceDistance);
  return kReferenceLoss +
         Db{10.0 * kPathLossExponent * std::log10(d / kReferenceDistance)};
}

Db ChannelModel::shadowing(std::uint64_t tx_id, std::uint64_t rx_id) const {
  // Pure in the key alone: any caller, on any thread, recomputes the
  // identical draw. The generator is thrown away after one draw, so
  // normal_once skips the companion sample normal() would cache.
  const std::uint64_t key = link_key(tx_id, rx_id);
  Rng link_rng(shadow_seed_ ^ (key * 0x9E3779B97F4A7C15ULL));
  return Db{link_rng.normal_once(0.0, config_.shadowing_sigma_db.value())};
}

Db ChannelModel::link_path_loss(std::uint64_t tx_id, std::uint64_t rx_id,
                                Meters dist) const {
  return mean_path_loss(dist) + shadowing(tx_id, rx_id);
}

Dbm ChannelModel::received_power(std::uint64_t tx_id, std::uint64_t rx_id,
                                 Meters dist, Dbm tx_power,
                                 Rng& packet_rng) const {
  const Db fading{packet_rng.normal(0.0, config_.fast_fading_sigma_db.value())};
  return tx_power - link_path_loss(tx_id, rx_id, dist) + fading;
}

Db ChannelModel::mean_link_snr(std::uint64_t tx_id, std::uint64_t rx_id,
                               Meters dist, Dbm tx_power, Hz bandwidth) const {
  return tx_power - link_path_loss(tx_id, rx_id, dist) -
         noise_floor_dbm(bandwidth);
}

}  // namespace alphawan
