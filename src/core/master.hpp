// The AlphaWAN Master node (paper Sec. 4.3.2): a centralized spectrum
// coordinator. Operators register before deploying; the Master divides the
// shared spectrum into frequency-misaligned sub-channel plans and assigns
// one per operator, keeping an up-to-date occupancy record.
//
// Misalignment policy: with a desired pairwise overlap ratio rho, adjacent
// plans are offset by delta = (1 - rho) * 125 kHz. The 200 kHz grid
// spacing bounds how many distinct plans fit (floor(spacing / delta));
// when more operators register than fit, the Master compresses delta to
// spacing / N, trading overlap for operator count — exactly the "optimal
// misalignment depends on the number of coexisting networks" tradeoff.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "phy/band_plan.hpp"

namespace alphawan {

// The operator <-> Master exchange: an operator registers, then requests
// its channel plan. In the paper the exchange runs over TCP; here callers
// invoke MasterNode directly and time it with
// LatencyModel::master_round_trip.
struct PlanAssignMsg {
  double overlap_ratio = 0.0;  // with the nearest coexisting plan
  Hz frequency_offset{0.0};   // applied to the standard grid
  std::vector<Channel> channels;
};

struct MasterConfig {
  Spectrum spectrum{};
  // Desired pairwise channel overlap between adjacent operator plans.
  double desired_overlap = 0.4;
  // Expected number of coexisting networks in the region (used to pick
  // the misalignment before everyone has registered).
  int expected_networks = 2;
  // Extra offset applied to every plan — used to keep AlphaWAN adopters
  // misaligned from legacy networks that squat on the standard grid
  // (partial-adoption deployments, Fig. 14).
  Hz base_offset{0.0};
};

class MasterNode {
 public:
  // Throws std::invalid_argument when desired_overlap is not in [0, 0.95]
  // (NaN included) or expected_networks < 1.
  explicit MasterNode(MasterConfig config);

  // Gives a new operator the next misalignment slot; registering again
  // keeps the slot.
  void handle_register(NetworkId operator_id);
  // Plans `requested_channels` (at least 1) channels in config().spectrum.
  // Throws std::invalid_argument, naming the id, for an operator that has
  // not registered.
  [[nodiscard]] PlanAssignMsg handle_plan_request(NetworkId operator_id,
                                                  int requested_channels);

  // The frequency offset assigned to an operator (registered order).
  [[nodiscard]] std::optional<Hz> offset_of(NetworkId operator_id) const;
  // Effective per-step offset under the current policy.
  [[nodiscard]] Hz plan_offset_step() const;
  // Worst-case overlap ratio between any two assigned plans.
  [[nodiscard]] double effective_overlap() const;

  [[nodiscard]] const MasterConfig& config() const { return config_; }

 private:
  MasterConfig config_;
  std::map<NetworkId, int> slots_;  // operator -> misalignment slot
};

}  // namespace alphawan
