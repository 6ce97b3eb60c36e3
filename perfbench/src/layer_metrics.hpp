// Per-layer metrics of the traced run. Every workload emits the same list;
// a layer the workload never enters reports 0 (the core.* planning stages
// on the window workloads, the backhaul components outside coexist_plan).
//
// Times are medians over operations (or over replays); counts are totals
// over the workload's fixed windows, so they repeat exactly per seed.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

// One planning round's deterministic outputs, summed over the operators.
struct RoundFigures {
  std::size_t cp_nodes = 0;
  std::size_t ga_evaluations = 0;
  double objective = 0.0;
  // Simulated Fig. 17 components; operators upgrade in parallel, so each
  // is the slowest operator's.
  double master_sim_s = 0.0;
  double push_sim_s = 0.0;
  double reboot_sim_s = 0.0;
};

class LayerSamples {
 public:
  // Host time of one operation, recorded with spans on (`traced`) or off.
  void op_ms(bool traced, double ms);

  // One replayed window `op`. `traced`: the window's own sim.* spans were
  // recorded. `fixed`: the window counts toward the deterministic totals.
  void window(const Tracer& tracer, std::uint64_t op, bool traced,
              const ReplayResult& replay, bool fixed);
  void shard_stats(const alphawan::ShardWindowStats& stats,
                   std::size_t link_rows);
  void configure_ms(double ms) { configure_ms_ = ms; }
  void campaign_prr(double prr) { campaign_prr_ = prr; }

  // One planning round `op` (traced or not) and its replayed solve.
  void round(const Tracer& tracer, std::uint64_t op, bool traced,
             const RoundFigures& figures);

  // Append every per-layer metric to `report`.
  void emit(Report& report, const Summary& ops) const;

 private:
  std::vector<double> traced_ms_;
  std::vector<double> untraced_ms_;

  std::vector<double> receive_ms_;
  std::vector<double> ns_per_event_;
  std::vector<double> ingest_ms_;
  std::vector<double> window_ms_;
  std::vector<double> self_ms_;
  std::vector<double> record_ms_;
  std::vector<double> radio_share_;
  RadioCounts fixed_counts_;
  alphawan::ShardWindowStats shard_stats_{};
  std::size_t link_rows_ = 0;
  double configure_ms_ = 0.0;
  double campaign_prr_ = 0.0;

  std::vector<double> parse_ms_;
  std::vector<double> estimate_ms_;
  std::vector<double> upgrade_ms_;
  std::vector<double> build_ms_;
  std::vector<double> solve_ms_;
  std::vector<double> evals_per_s_;
  std::vector<double> solve_share_;
  RoundFigures figures_{};
};

}  // namespace perfbench
