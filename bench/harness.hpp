// Shared scaffolding for the reproduction benches: canonical deployments
// (lab-bench clustered gateways, testbed-style grids), orthogonal user
// populations, and table printing. Each bench binary regenerates one table
// or figure of the paper and prints the paper's reported values alongside
// the measured ones (see EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <set>
#include <numbers>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/standard_lorawan.hpp"
#include "common/parallel.hpp"
#include "core/controller.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

#ifndef ALPHAWAN_GIT_SHA
#define ALPHAWAN_GIT_SHA "unknown"
#endif

namespace alphawan::bench {

// ---- perf telemetry -------------------------------------------------------
// Machine-readable throughput records, written as JSON so the perf
// trajectory is tracked across PRs (BENCH_PR4.json onward; see
// docs/performance.md). A bench accumulates (packets, wall seconds) for a
// named hot path and the recorder writes every record at process exit.
//
// Output path: $ALPHAWAN_BENCH_JSON. Nothing is written when the variable
// is unset or empty, or when no record was made, so a local bench run never
// overwrites a committed BENCH_PR<N>.json baseline (CI sets the variable on
// every bench step it keeps the JSON of).

struct PerfRecord {
  std::string name;
  double packets = 0;
  double wall_seconds = 0;
  int threads = 1;

  [[nodiscard]] double packets_per_sec() const {
    return wall_seconds > 0 ? packets / wall_seconds : 0.0;
  }
};

class PerfRecorder {
 public:
  static PerfRecorder& instance() {
    static PerfRecorder recorder;
    return recorder;
  }

  void record(std::string name, double packets, double wall_seconds,
              int threads) {
    records_.push_back(
        PerfRecord{std::move(name), packets, wall_seconds, threads});
  }

  // The telemetry destination, "" when nothing should be written.
  [[nodiscard]] static std::string output_path() {
    const char* env = std::getenv("ALPHAWAN_BENCH_JSON");
    return env != nullptr ? env : "";
  }

  ~PerfRecorder() {
    if (records_.empty()) return;
    const std::string path = output_path();
    if (path.empty()) return;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    }
    std::fprintf(out,
                 "{\n  \"schema\": \"alphawan-bench-v1\",\n"
                 "  \"git_sha\": \"%s\",\n  \"generated\": \"%s\",\n"
                 "  \"benchmarks\": [\n",
                 ALPHAWAN_GIT_SHA, stamp);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"packets\": %.0f, "
                   "\"wall_s\": %.6f, \"packets_per_sec\": %.1f, "
                   "\"threads\": %d}%s\n",
                   r.name.c_str(), r.packets, r.wall_seconds,
                   r.packets_per_sec(), r.threads,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

 private:
  std::vector<PerfRecord> records_;
};

// Accumulates wall time over the timed sections of one named hot path.
// Destructor-free usage: call add() around each timed region, then
// report() once (typically at the end of main).
class PerfAccumulator {
 public:
  explicit PerfAccumulator(std::string name) : name_(std::move(name)) {}

  template <typename Fn>
  auto time(std::size_t packets, Fn&& fn) {
    const auto begin = std::chrono::steady_clock::now();
    auto result = fn();
    const auto end = std::chrono::steady_clock::now();
    packets_ += static_cast<double>(packets);
    wall_seconds_ += std::chrono::duration<double>(end - begin).count();
    return result;
  }

  void report(int threads = default_thread_count()) const {
    if (packets_ <= 0) return;
    PerfRecorder::instance().record(name_, packets_, wall_seconds_, threads);
    std::printf("  [perf] %s: %.0f packets in %.3f s = %.0f packets/sec\n",
                name_.c_str(), packets_, wall_seconds_,
                packets_ > 0 && wall_seconds_ > 0 ? packets_ / wall_seconds_
                                                  : 0.0);
  }

 private:
  std::string name_;
  double packets_ = 0;
  double wall_seconds_ = 0;
};

// True when the reduced perf-smoke configuration is requested (CI runs the
// benches this way to track regressions without paying full-figure cost).
inline bool perf_smoke_mode() {
  const char* env = std::getenv("ALPHAWAN_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Evaluate one independent data point per input concurrently and return
// the results in input order. Sweep bodies must be self-contained: build a
// fresh Deployment (and runner, id source, rng) per point — points share
// nothing, so any ALPHAWAN_THREADS value yields the same table.
template <typename Input, typename Fn>
auto parallel_sweep(const std::vector<Input>& inputs, Fn&& fn) {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Input&>>;
  std::vector<Result> out(inputs.size());
  parallel_for(inputs.size(),
               [&](std::size_t i) { out[i] = fn(inputs[i]); });
  return out;
}

// Stable links: the paper's controlled capacity experiments pick placements
// with clear margins, so decoder contention is not confounded by fading.
inline ChannelModelConfig quiet_channel() {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{0.3};
  cfg.fast_fading_sigma_db = Db{0.1};
  return cfg;
}

// Urban channel for the at-scale studies (Figs. 4, 13, 21).
inline ChannelModelConfig urban_channel(std::uint64_t seed = 1) {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{3.0};
  cfg.fast_fading_sigma_db = Db{0.8};
  cfg.seed = seed;
  return cfg;
}

// Colocated gateway cluster (lab-style; every gateway hears every node at
// similar power). Initial channels: standard plan 0.
inline void place_clustered_gateways(Deployment& deployment, Network& network,
                                     int count,
                                     GatewayProfile profile = default_profile()) {
  const Point center = deployment.region().center();
  const auto plan0 = standard_plan(deployment.spectrum(), 0);
  for (int i = 0; i < count; ++i) {
    const Point pos{Meters{center.x.value() + 15.0 * i - 7.5 * (count - 1)},
                    Meters{center.y.value() + 10.0 * (i % 2)}};
    auto& gw = network.add_gateway(deployment.next_gateway_id(), pos, profile);
    gw.apply_channels(GatewayChannelConfig{plan0.channels});
  }
}

// Ring of users with globally orthogonal (channel, SF) pairs starting at
// `pair_offset`; balanced received powers, no RF collisions by design.
inline std::vector<EndNode*> add_orthogonal_users(Deployment& deployment,
                                                  Network& network, int count,
                                                  Rng& rng,
                                                  int pair_offset = 0,
                                                  double radius = 140.0) {
  std::vector<EndNode*> nodes;
  const auto channels = deployment.spectrum().grid_channels();
  const Point center = deployment.region().center();
  for (int k = 0; k < count; ++k) {
    const int i = k + pair_offset;
    NodeRadioConfig cfg;
    cfg.channel = channels[static_cast<std::size_t>(i) % channels.size()];
    cfg.dr = static_cast<DataRate>(
        (i / static_cast<int>(channels.size())) % kNumDataRates);
    cfg.tx_power = Dbm{14.0};
    const double angle = 2.0 * std::numbers::pi *
                         (static_cast<double>(k) + rng.uniform(0.0, 0.5)) /
                         static_cast<double>(count);
    const Point pos{Meters{center.x.value() + radius * std::cos(angle)},
                    Meters{center.y.value() + radius * std::sin(angle)}};
    nodes.push_back(&network.add_node(deployment.next_node_id(), pos, cfg));
  }
  return nodes;
}

// Run one concurrent burst (lock-on staggered) and return delivered count
// per network.
inline WindowResult run_burst(Deployment& deployment,
                              std::vector<EndNode*> nodes, Seconds at,
                              PacketIdSource& ids, std::uint64_t seed = 7) {
  ScenarioRunner runner(deployment, seed);
  const auto txs = staggered_by_lock_on(std::move(nodes), at, Seconds{0.0004}, ids);
  return runner.run_window(txs);
}

// Max concurrent users supported: largest N <= nodes.size() such that a
// burst of the first N users is delivered at >= threshold. Returns that
// USER COUNT N — the paper's "maximum number of concurrent users" metric —
// not the burst's delivered-packet count (with threshold < 1 a passing
// burst delivers fewer than N; tests/test_bench_harness.cpp pins this).
inline std::size_t max_concurrent_users(Deployment& deployment,
                                        const std::vector<EndNode*>& nodes,
                                        PacketIdSource& ids,
                                        double threshold = 0.95) {
  std::size_t best = 0;
  Seconds at{0.0};
  for (std::size_t n = 1; n <= nodes.size(); ++n) {
    std::vector<EndNode*> subset(nodes.begin(),
                                 nodes.begin() + static_cast<std::ptrdiff_t>(n));
    const auto result = run_burst(deployment, subset, at, ids);
    at += Seconds{100.0};  // separate bursts in time
    if (static_cast<double>(result.total_delivered()) >=
        threshold * static_cast<double>(n)) {
      // The metric is the user count N, not the delivered count of the
      // burst (with threshold < 1 a passing burst may deliver fewer).
      best = n;
    }
  }
  return best;
}

// A service session: the users transmit repeatedly across `bursts`
// concurrent rounds with a re-shuffled lock-on order each round (as in a
// live network, where dispatch order rotates). Returns the set of users
// whose packets were received at least once — the paper's "service ratio"
// numerator (Fig. 15).
inline std::map<NetworkId, std::set<NodeId>> run_service_session(
    Deployment& deployment, std::vector<EndNode*> all, int bursts,
    std::uint64_t seed) {
  std::map<NetworkId, std::set<NodeId>> served;
  PacketIdSource ids;
  Rng rng(seed);
  ScenarioRunner runner(deployment, seed);
  Seconds at{0.0};
  for (int round = 0; round < bursts; ++round) {
    // Fisher-Yates shuffle of the lock-on order.
    for (std::size_t i = all.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(all[i - 1], all[j]);
    }
    const auto txs = staggered_by_lock_on(all, at, Seconds{0.0004}, ids);
    const auto result = runner.run_window(txs);
    for (const auto& fate : result.fates) {
      if (fate.delivered) served[fate.network].insert(fate.node);
    }
    at += Seconds{120.0};
  }
  return served;
}

// ---- printing -------------------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void print_row(const char* label, double paper, double measured,
                      const char* unit = "") {
  std::printf("  %-44s paper=%8.1f  measured=%8.1f %s\n", label, paper,
              measured, unit);
}

inline void print_note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

}  // namespace alphawan::bench
