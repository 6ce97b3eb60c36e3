#include "baselines/policy.hpp"

#include <stdexcept>

namespace alphawan {

void require_option(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

void NodeMacPolicy::configure(Deployment& /*deployment*/,
                              Network& /*network*/, Rng& /*rng*/) const {}

std::vector<Transmission> NodeMacPolicy::shape_window(
    std::vector<Transmission> txs, Rng& /*rng*/) const {
  return txs;
}

}  // namespace alphawan
