// Intra-network channel planning (paper Sec. 4.3.1): builds a CP instance
// from a network's link estimates and traffic demand, solves it with the
// evolutionary algorithm, and emits a deployable NetworkChannelConfig.
// Implements Strategies 1 (adaptive channel count), 2 (heterogeneous
// gateway channels) and 7 (joint node-side steering).
#pragma once

#include <map>

#include "common/clock.hpp"
#include "core/cp_solution.hpp"
#include "core/ga_solver.hpp"
#include "core/log_parser.hpp"
#include "net/network.hpp"
#include "sim/topology.hpp"

namespace alphawan {

struct IntraPlannerConfig {
  // Strategy 1: adapt the number of operating channels per gateway.
  bool strategy1_adapt_channel_count = true;
  // Strategy 7: steer node channels / data rates / powers.
  bool strategy7_node_side = true;
  // Capacity of a (channel, DR) pair in packets per window (1.0 for pure
  // concurrency planning).
  double pair_capacity = 1.0;
  GaConfig ga{};
  // Clock for the solve_seconds telemetry (never simulation state).
  // Null means the process steady clock; tests inject a ManualClock to
  // keep PlanOutcome fully deterministic.
  const MonotonicClock* clock = nullptr;
};

struct PlanOutcome {
  NetworkChannelConfig config;
  CpEvaluation eval;
  CpInstance instance;
  int ga_generations = 0;
  double ga_gain = 0.0;        // GaResult::ga_gain of the solve
  Seconds solve_seconds{0.0};  // measured wall-clock of the CP solve
};

class IntraPlanner {
 public:
  explicit IntraPlanner(IntraPlannerConfig config = {}) : config_(config) {}

  // Build the CP instance for a network. Nodes absent from `links` (never
  // heard) are skipped and keep their configuration.
  [[nodiscard]] CpInstance build_instance(
      const Network& network, const Spectrum& spectrum,
      const LinkEstimates& links,
      const std::map<NodeId, double>& traffic) const;

  // Full plan: build, solve, convert. `frequency_offset` is the Master's
  // inter-network misalignment (0 when not sharing spectrum).
  [[nodiscard]] PlanOutcome plan(const Network& network,
                                 const Spectrum& spectrum,
                                 const LinkEstimates& links,
                                 const std::map<NodeId, double>& traffic,
                                 Hz frequency_offset = Hz{0.0}) const;

  [[nodiscard]] const IntraPlannerConfig& config() const { return config_; }

 private:
  // Current node assignments as a CpSolution (seed / frozen genes).
  [[nodiscard]] CpSolution snapshot_solution(const Network& network,
                                             const CpInstance& instance) const;

  IntraPlannerConfig config_;
};

// Ground-truth link estimates straight from deployment geometry: what an
// operator's long-running logs converge to. Benches use this to skip the
// measurement campaign; the end-to-end tests exercise the log-driven path.
[[nodiscard]] LinkEstimates oracle_link_estimates(Deployment& deployment,
                                                  const Network& network);

// Uniform traffic demand (u_i = `packets_per_window` for every node).
[[nodiscard]] std::map<NodeId, double> uniform_traffic(
    const Network& network, double packets_per_window = 1.0);

}  // namespace alphawan
