#include "phy/batch_kernels.hpp"

namespace alphawan {

void batch_fading_draws(const SubstreamBatch& stream, const PacketId* packets,
                        const std::uint32_t* tx_index, std::size_t count,
                        double sigma, double* out) {
  for (std::size_t k = 0; k < count; ++k) {
    Rng link_rng = stream.at(packets[tx_index[k]]);
    out[k] = link_rng.normal_once(0.0, sigma);
  }
}

std::size_t batch_prune_candidates(std::span<const LinkGain> gains,
                                   const std::uint32_t* row_of_tx,
                                   const Dbm* tx_power, Dbm floor,
                                   Db fading_sigma, std::uint32_t* tx_index,
                                   std::size_t count) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = tx_index[k];
    const LinkGain g = gains[row_of_tx[i]];
    // Written unconditionally and kept only by the increment; kept <= k, so
    // the slot overwritten was already read.
    tx_index[kept] = i;
    kept += static_cast<std::size_t>(
        g.antenna_gain.value() - g.path_loss.value() >=
        min_audible_gain(floor, tx_power[i], fading_sigma));
  }
  return kept;
}

std::size_t batch_rx_power_filter(std::span<const LinkGain> gains,
                                  const std::uint32_t* row_of_tx,
                                  const Dbm* tx_power, const double* fading,
                                  Dbm floor, std::uint32_t* tx_index,
                                  std::size_t count, Dbm* out_power) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = tx_index[k];
    const LinkGain g = gains[row_of_tx[i]];
    const Dbm rx_power =
        tx_power[i] - g.path_loss + Db{fading[k]} + g.antenna_gain;
    if (rx_power < floor) continue;
    // kept <= k always, so the in-place compaction never clobbers an
    // unread input slot.
    tx_index[kept] = i;
    out_power[kept] = rx_power;
    ++kept;
  }
  return kept;
}

}  // namespace alphawan
