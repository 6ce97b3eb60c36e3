#include "core/master.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace alphawan {

MasterNode::MasterNode(MasterConfig config) : config_(config) {
  // Written so NaN fails too: a NaN overlap would give an empty plan (one
  // network) or an undefined int conversion in plan_offset_step (several).
  if (!(config_.desired_overlap >= 0.0 && config_.desired_overlap <= 0.95)) {
    throw std::invalid_argument(
        "MasterConfig::desired_overlap must be in [0, 0.95], got " +
        std::to_string(config_.desired_overlap));
  }
  if (config_.expected_networks < 1) {
    throw std::invalid_argument(
        "MasterConfig::expected_networks must be >= 1, got " +
        std::to_string(config_.expected_networks));
  }
}

Hz MasterNode::plan_offset_step() const {
  const Hz desired_delta =
      (1.0 - config_.desired_overlap) * kLoRaBandwidth125k;
  const int networks =
      std::max<int>(config_.expected_networks,
                    static_cast<int>(slots_.size()));
  if (networks <= 1) return desired_delta;
  // Plans repeat every grid spacing; compress the step when the desired
  // misalignment cannot host everyone.
  const int capacity =
      std::max(1, static_cast<int>(kChannelSpacing / desired_delta));
  if (networks <= capacity) return desired_delta;
  return kChannelSpacing / static_cast<double>(networks);
}

double MasterNode::effective_overlap() const {
  const Hz step = plan_offset_step();
  return std::max(0.0, 1.0 - step / kLoRaBandwidth125k);
}

void MasterNode::handle_register(NetworkId operator_id) {
  slots_.try_emplace(operator_id, static_cast<int>(slots_.size()));
}

std::optional<Hz> MasterNode::offset_of(NetworkId operator_id) const {
  const auto it = slots_.find(operator_id);
  if (it == slots_.end()) return std::nullopt;
  return config_.base_offset +
         plan_offset_step() * static_cast<double>(it->second);
}

PlanAssignMsg MasterNode::handle_plan_request(NetworkId operator_id,
                                              int requested_channels) {
  const auto offset = offset_of(operator_id);
  if (!offset) {
    throw std::invalid_argument(
        "MasterNode: plan request from unregistered operator " +
        std::to_string(operator_id));
  }
  PlanAssignMsg assign;
  assign.frequency_offset = *offset;
  assign.overlap_ratio = effective_overlap();
  // Channels: the requested count of grid channels, shifted by the
  // operator's offset, kept inside the spectrum.
  const Spectrum& spec = config_.spectrum;
  const int want = std::max(1, requested_channels);
  for (int k = 0; k < spec.grid_size() && static_cast<int>(
                                              assign.channels.size()) < want;
       ++k) {
    Channel ch = spec.grid_channel(k);
    ch.center += *offset;
    if (spec.contains(ch)) assign.channels.push_back(ch);
  }
  return assign;
}

}  // namespace alphawan
