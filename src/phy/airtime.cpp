#include "phy/airtime.hpp"

#include <algorithm>
#include <cmath>

namespace alphawan {

Seconds symbol_duration(SpreadingFactor sf, Hz bandwidth) {
  return Seconds{static_cast<double>(1u << sf_value(sf)) / bandwidth.value()};
}

Seconds preamble_duration(const TxParams& params) {
  return (static_cast<double>(params.preamble_symbols) + 4.25) *
         symbol_duration(params.sf, params.bandwidth);
}

bool low_data_rate_optimize(SpreadingFactor sf, Hz bandwidth) {
  return symbol_duration(sf, bandwidth) > Seconds{16e-3};
}

std::size_t payload_symbols(const TxParams& params,
                            std::size_t payload_bytes) {
  const int sf = sf_value(params.sf);
  const int de = low_data_rate_optimize(params.sf, params.bandwidth) ? 1 : 0;
  const int ih = params.explicit_header ? 0 : 1;
  const int crc = params.crc_enabled ? 1 : 0;
  const int cr = static_cast<int>(params.coding_rate);
  const double numerator =
      8.0 * static_cast<double>(payload_bytes) - 4.0 * sf + 28.0 + 16.0 * crc -
      20.0 * ih;
  const double denominator = 4.0 * (sf - 2 * de);
  const double blocks = std::ceil(std::max(numerator, 0.0) / denominator);
  return 8 + static_cast<std::size_t>(blocks * (cr + 4));
}

Seconds payload_duration(const TxParams& params, std::size_t payload_bytes) {
  return static_cast<double>(payload_symbols(params, payload_bytes)) *
         symbol_duration(params.sf, params.bandwidth);
}

Seconds time_on_air(const TxParams& params, std::size_t payload_bytes) {
  return preamble_duration(params) + payload_duration(params, payload_bytes);
}

}  // namespace alphawan
