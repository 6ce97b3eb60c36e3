// Conversion of CP solutions into deployable LoRaWAN channel
// configurations, including the inter-network frequency offset assigned by
// the AlphaWAN Master (Strategy 8): every channel of the network — gateway
// and node side alike — is shifted off the standard grid by the same
// offset, creating the misalignment that isolates coexisting networks.
#pragma once

#include "core/cp_problem.hpp"
#include "net/channel_plan.hpp"

namespace alphawan {

// Materialize a solution as gateway/node radio configurations.
// `frequency_offset` displaces all channels from the standard grid.
[[nodiscard]] NetworkChannelConfig to_network_config(
    const CpInstance& instance, const CpSolution& solution,
    Hz frequency_offset = Hz{0.0});

// Transmit power for a distance level (paper: derived from the required
// transmission distance via a mapping table).
[[nodiscard]] Dbm level_tx_power(int level);

}  // namespace alphawan
