// AlphaWanController: the end-to-end capacity-upgrade pipeline of Fig. 10.
// For one network it (1) optionally obtains a misaligned channel plan from
// the Master (inter-network channel planning), (2) runs the intra-network
// CP solve, (3) distributes configurations to gateways and end nodes, and
// (4) accounts for every latency component the way Fig. 17 reports them.
#pragma once

#include "backhaul/latency_model.hpp"
#include "core/intra_planner.hpp"
#include "core/master.hpp"

namespace alphawan {

struct AlphaWanConfig {
  IntraPlannerConfig planner{};
  // Strategy 8: coordinate spectrum with the Master.
  bool strategy8_spectrum_sharing = true;
};

// Latency breakdown of one capacity-upgrade operation (Fig. 17).
struct UpgradeReport {
  Seconds cp_solve{0.0};
  Seconds master_communication{0.0};
  Seconds config_distribution{0.0};
  Seconds gateway_reboot{0.0};  // max across gateways (they reboot in parallel)
  [[nodiscard]] Seconds total() const {
    return cp_solve + master_communication + config_distribution +
           gateway_reboot;
  }
  CpEvaluation eval{};
  double ga_gain = 0.0;  // PlanOutcome::ga_gain
  ConfigDelta delta{};
  Hz frequency_offset{0.0};
  double overlap_ratio = 0.0;
};

class AlphaWanController {
 public:
  // Throws std::invalid_argument on an invalid config.planner.ga (see
  // validate(const GaConfig&)), so bad configuration fails here rather
  // than inside the first upgrade.
  AlphaWanController(AlphaWanConfig config, LatencyModel& latency)
      : config_(config), latency_(latency) {
    validate(config_.planner.ga);
  }

  // Plan and apply a capacity upgrade for `network`. When spectrum
  // sharing is enabled a `master` must be supplied; the controller
  // registers the operator and plans at the offset the Master assigns.
  UpgradeReport upgrade(Network& network, const Spectrum& spectrum,
                        const LinkEstimates& links,
                        const std::map<NodeId, double>& traffic,
                        MasterNode* master = nullptr);

  [[nodiscard]] const AlphaWanConfig& config() const { return config_; }

 private:
  AlphaWanConfig config_;
  LatencyModel& latency_;
};

}  // namespace alphawan
