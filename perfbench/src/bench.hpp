// Shared plumbing of the benchmark workloads: command-line arguments, the
// result a run reports, timing helpers, and the world / traffic / replay
// helpers the workloads build on (world.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "checks.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump (traced run); empty = none
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. Every operation (timed or warm-up) counts in
// `attempted`; a failed check or an exception counts it in `failed`.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  DigestMap digests;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

using Clock = std::chrono::steady_clock;

// Every workload's traffic window.
inline constexpr alphawan::Seconds kWindow{30.0};
// Set-up spans get operation ids above every window index.
inline constexpr std::uint64_t kSetupOp = 1'000'000;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

// Host-speed probe: a fixed integer and floating-point kernel over a
// 256 KiB table that shares no code with the library. Run untimed just
// before each operation, it reads how fast the host runs at that moment.
// A shared host goes through slow phases that last minutes and slow a
// whole run alike; operation time over probe time cancels them, while a
// change to the library moves the operation and not the probe.
// Returns the probe's host time in ms.
[[nodiscard]] double probe_ms();

// ---- worlds ---------------------------------------------------------------

// Seed of every workload's world: gateway and node placement, shadowing and
// scheme provisioning. A run's --seed draws its traffic and the runner's
// per-packet randomness, not its world. Like the paper's testbed, the
// deployment stays put while the traffic varies: with a world per seed,
// dense_window's 144 physical nodes moved prr by 12% (quartile spread over
// five seeds), more than any bound the benchmark may set.
inline constexpr std::uint64_t kWorldSeed = 13;

// The urban propagation model of the at-scale figures (13, 21).
[[nodiscard]] alphawan::ChannelModelConfig urban_channel(std::uint64_t seed);

// Emulated users hosted by one physical node, with the virtual ids the
// traffic generator gives them (base + k for user k).
struct UserGroup {
  alphawan::EndNode* node = nullptr;
  alphawan::NodeId first_id = 0;
  std::size_t users = 1;
  double rate = 0.0;  // packets per second per user
};

// Every physical node of `network` hosting `users_per_node` emulated users
// with consecutive virtual ids from `first_virtual_id`; `users_per_node`
// = 0 means each node is its own single user (real node id).
[[nodiscard]] std::vector<UserGroup> user_groups(alphawan::Network& network,
                                                 std::size_t users_per_node,
                                                 alphawan::NodeId first_virtual_id);

// One window of traffic from `groups`, drawn from (seed, window) alone so
// that window w is the same on every run, shifted to start at `offset`.
// Packet ids carry the window index in their upper half.
[[nodiscard]] std::vector<alphawan::Transmission> window_traffic(
    const std::vector<UserGroup>& groups, std::uint64_t seed,
    std::uint64_t window, alphawan::Seconds length,
    alphawan::Seconds offset = alphawan::Seconds{0.0});

// The set-up's warm-up window: its own traffic draw at 1.5x the load of
// `groups`. The runner's scratch buffers only grow, doubling when a window
// outgrows them, so without it peak_rss_mib stepped by whether some later
// window outgrew the first (coexist_plan: 65 vs 73 MiB across seeds).
// The burst sets the high-water mark before anything is measured.
[[nodiscard]] std::vector<alphawan::Transmission> warmup_traffic(
    const std::vector<UserGroup>& groups, std::uint64_t seed);

// One window through the runner, then MetricsCollector::record of every
// fate, each in its own span.
[[nodiscard]] alphawan::WindowResult run_and_record(
    alphawan::ScenarioRunner& runner,
    const std::vector<alphawan::Transmission>& txs,
    alphawan::MetricsCollector& metrics, Tracer& tracer, std::uint64_t op);

// Forget every network server's log and deliveries.
void clear_servers(alphawan::Deployment& deployment);

// Register every transmitter of `groups` in each link-cache slice where it
// is audible, with the audibility bound the runner uses, so timed windows
// run against the link cache of a long-running deployment instead of one
// that grows as new users first speak.
void preregister_links(alphawan::Deployment& deployment, int shards,
                       alphawan::Db prune_margin,
                       const std::vector<UserGroup>& groups);

// Total rows held by the deployment's link-cache slices.
[[nodiscard]] std::size_t link_rows(alphawan::Deployment& deployment,
                                    int shards);

// ---- radio / net replay -----------------------------------------------------

// Deterministic counts from replaying windows outside the operation.
struct RadioCounts {
  std::size_t packets = 0;
  std::size_t events = 0;
  std::map<alphawan::RxDisposition, std::size_t> outcomes;
  std::size_t uplinks = 0;
  std::size_t unique_delivered = 0;

  void add(const RadioCounts& other);
  [[nodiscard]] std::size_t count(alphawan::RxDisposition d) const;
};

struct ReplayResult {
  RadioCounts counts;
  double receive_ms = 0.0;  // Σ Gateway::receive_window
  double ingest_ms = 0.0;   // Σ NetworkServer::ingest
  std::string error;        // non-empty when the replay disagrees with the run
};

// Replay one finished window: every gateway's event list is rebuilt from
// the shard caches' gains plus packet_link_rng, in the runner's
// ((tx_power - path_loss) + fading) + antenna_gain order against the
// noise floor - prune margin, run through Gateway::receive_window, and each
// network's uplinks ingested into a scratch NetworkServer. The replay must
// reproduce the window: per-network unique deliveries equal `result`'s and
// the uplink count equals `logged_uplinks` (what the real servers logged).
[[nodiscard]] ReplayResult replay_window(
    alphawan::Deployment& deployment, const alphawan::ScenarioRunner& runner,
    int shards, const std::vector<alphawan::Transmission>& txs,
    const alphawan::WindowResult& result, std::size_t logged_uplinks,
    Tracer& tracer, std::uint64_t op);

// Records of every network server's log.
[[nodiscard]] std::size_t logged_uplinks(const alphawan::Deployment& deployment);

// ---- workloads ----------------------------------------------------------------

[[nodiscard]] Report run_dense_window(const Args& args, Tracer& tracer);
[[nodiscard]] Report run_city_window(const Args& args, Tracer& tracer);
[[nodiscard]] Report run_coexist_plan(const Args& args, Tracer& tracer);

}  // namespace perfbench
