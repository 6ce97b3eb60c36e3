// LoRa time-on-air computation (Semtech SX127x/AN1200.13 formula).
//
// The gateway radio model uses these durations for preamble lock-on timing
// (when a decoder is claimed) and payload end (when it is released), which
// together determine the FCFS dispatch order at the heart of the decoder
// contention problem.
#pragma once

#include <cstddef>

#include "phy/lora_params.hpp"

namespace alphawan {

// Duration of one LoRa symbol: 2^SF / BW.
[[nodiscard]] Seconds symbol_duration(SpreadingFactor sf, Hz bandwidth);

// Duration of the preamble (n_preamble + 4.25 symbols).
[[nodiscard]] Seconds preamble_duration(const TxParams& params);

// Number of payload symbols per the Semtech formula (includes header/CRC
// overhead and low-data-rate optimization for SF11/SF12 @ 125 kHz).
[[nodiscard]] std::size_t payload_symbols(const TxParams& params,
                                          std::size_t payload_bytes);

// Duration of the payload part (symbols * symbol time).
[[nodiscard]] Seconds payload_duration(const TxParams& params,
                                       std::size_t payload_bytes);

// Complete time on air: preamble + payload.
[[nodiscard]] Seconds time_on_air(const TxParams& params,
                                  std::size_t payload_bytes);

// Whether the low-data-rate optimization is mandated (symbol time > 16 ms).
[[nodiscard]] bool low_data_rate_optimize(SpreadingFactor sf, Hz bandwidth);

}  // namespace alphawan
