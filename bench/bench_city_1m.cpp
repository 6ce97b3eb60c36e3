// City-scale stress run (paper Sec. 5.2.1): ~1M emulated users (100k
// physical nodes x 10 duty-cycled users each) across 64 gateways on the
// 4.8 MHz band, driven through the sharded engine. The bench exists to
// prove two PR-6 claims at scale:
//   - throughput: the receive pipeline sustains city-scale windows, with
//     packets/sec telemetry recorded as "city_1m.window" (BENCH_PR6.json);
//   - memory: collectors and link state stay O(live state), not
//     O(history) — the streaming MetricsCollector keeps no per-packet
//     fates and the per-shard LinkCache slices materialize only audible
//     rows.
// Smoke mode (ALPHAWAN_BENCH_SMOKE=1) shrinks the world and additionally
// self-checks shard equivalence: the same seed must produce bit-identical
// fate digests at shards 1, 2 and 8, else the process exits non-zero.
// Each window's wall time is printed with the link rows it added, the
// first one (every user it hears is a first contact) apart from the rest.
#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <vector>

#include "check/digest.hpp"
#include "sim/shard.hpp"

using namespace alphawan;
using namespace alphawan::bench;

namespace {

constexpr Seconds kWindow{30.0};
constexpr int kUsersPerNode = 10;
// Heartbeat-class uplink load: sized so the full configuration offers
// ~100k packets per window from the 1M-user population.
constexpr double kPacketsPerUserPerWindow = 0.1;

PerfAccumulator window_perf("city_1m.window");

struct CityConfig {
  std::size_t physical_nodes;
  int gateways;
  int windows;
  Meters width;
  Meters height;
};

struct RunStats {
  std::uint64_t digest = 0;
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t served_users = 0;
  std::size_t resident_rows = 0;
  std::size_t boundary_rows = 0;
  std::size_t boundary_events = 0;
  // Wall time and resident link rows after each window. Every user the
  // first window hears is a first contact (one link evaluation per gateway
  // column in reach); a later window evaluates only the users it hears for
  // the first time.
  std::vector<double> window_s;
  std::vector<std::size_t> window_rows;
};

RunStats run_city(const CityConfig& cfg, int shards, std::uint64_t seed,
                  bool timed) {
  Deployment deployment{Region{cfg.width, cfg.height}, spectrum_4m8(),
                        urban_channel(seed)};
  auto& network = deployment.add_network("city");
  Rng rng(seed);
  deployment.place_gateways(network, cfg.gateways, default_profile(), rng);
  deployment.place_nodes(network, cfg.physical_nodes, rng);

  StandardLorawanOptions std_options;
  std_options.adr.installation_margin = Db{10.0};
  std_options.adr.min_tx_power = Dbm{8.0};
  StandardLorawanPolicy(std_options).configure(deployment, network, rng);

  RunOptions options;
  options.shards = shards;
  ScenarioRunner runner(deployment, seed, options);
  MetricsCollector metrics;  // streaming: exact aggregates, no fates kept

  RunStats stats;
  PacketIdSource ids;
  const double rate = kPacketsPerUserPerWindow / kWindow.value();
  for (int w = 0; w < cfg.windows; ++w) {
    Rng traffic_rng(seed * 31 + static_cast<std::uint64_t>(w) + 1);
    std::vector<Transmission> txs;
    NodeId virtual_base = 1'000'000;
    for (auto& node : network.nodes()) {
      std::vector<EndNode*> one = {&node};
      auto node_txs = emulated_user_traffic(one, kUsersPerNode, kWindow, rate,
                                            traffic_rng, ids, virtual_base);
      virtual_base += kUsersPerNode;
      txs.insert(txs.end(), node_txs.begin(), node_txs.end());
    }
    sort_by_start(txs);
    const auto begin = std::chrono::steady_clock::now();
    const auto result =
        timed ? window_perf.time(
                    txs.size(), [&] { return runner.run_window(txs, metrics); })
              : runner.run_window(txs, metrics);
    stats.window_s.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count());
    stats.digest = stats.digest * 0x100000001B3ULL ^ fate_digest(result.fates);
    const ShardWindowStats& window_stats = runner.shard_stats();
    stats.window_rows.push_back(window_stats.resident_rows);
    stats.resident_rows = std::max(stats.resident_rows,
                                   window_stats.resident_rows);
    stats.boundary_rows = std::max(stats.boundary_rows,
                                   window_stats.boundary_rows);
    stats.boundary_events += window_stats.boundary_events;
  }
  stats.offered = metrics.total_offered();
  stats.delivered = metrics.total_delivered();
  stats.served_users = metrics.total_served_nodes();
  return stats;
}

std::size_t peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024;
}

void print_stats(const RunStats& stats, int shards) {
  std::printf("  shards=%d  offered=%zu  delivered=%zu  prr=%.3f\n", shards,
              stats.offered, stats.delivered,
              stats.offered > 0 ? static_cast<double>(stats.delivered) /
                                      static_cast<double>(stats.offered)
                                : 0.0);
  std::printf("  served users=%zu\n", stats.served_users);
  std::printf("  link rows resident=%zu  boundary rows=%zu  "
              "boundary events=%zu\n",
              stats.resident_rows, stats.boundary_rows,
              stats.boundary_events);
  std::printf("  peak RSS=%zu MiB\n", peak_rss_mib());
  if (stats.window_s.empty()) return;
  std::printf("  first window (all first contacts)=%.3f s, %zu link rows\n",
              stats.window_s.front(), stats.window_rows.front());
  for (std::size_t w = 1; w < stats.window_s.size(); ++w) {
    std::printf("  window %zu=%.3f s, +%zu link rows\n", w, stats.window_s[w],
                stats.window_rows[w] - stats.window_rows[w - 1]);
  }
}

}  // namespace

int main() {
  const bool smoke = perf_smoke_mode();
  const CityConfig cfg =
      smoke ? CityConfig{2000, 8, 1, Meters{8000.0}, Meters{4000.0}}
            : CityConfig{100000, 64, 3, Meters{24000.0}, Meters{12000.0}};
  int shards = 8;
  if (const char* env = std::getenv("ALPHAWAN_SHARDS")) {
    shards = parse_shard_count(env);
  }

  print_header(
      "City scale (Sec. 5.2.1) — 1M emulated users through the sharded "
      "engine\nmemory must stay O(live state); smoke mode self-checks "
      "shard equivalence");
  std::printf("  nodes=%zu  users=%zu  gateways=%d  windows=%d\n",
              cfg.physical_nodes,
              cfg.physical_nodes * static_cast<std::size_t>(kUsersPerNode),
              cfg.gateways, cfg.windows);

  if (smoke) {
    const auto s1 = run_city(cfg, 1, 77, /*timed=*/false);
    const auto s2 = run_city(cfg, 2, 77, /*timed=*/false);
    const auto s8 = run_city(cfg, 8, 77, /*timed=*/true);
    if (s1.digest != s2.digest || s1.digest != s8.digest) {
      std::printf("FAIL: shard digests diverge: shards1=%016llx "
                  "shards2=%016llx shards8=%016llx\n",
                  static_cast<unsigned long long>(s1.digest),
                  static_cast<unsigned long long>(s2.digest),
                  static_cast<unsigned long long>(s8.digest));
      return 1;
    }
    print_note("shard-equivalence self-check passed (shards 1/2/8)");
    print_stats(s8, 8);
  } else {
    const auto stats = run_city(cfg, shards, 77, /*timed=*/true);
    print_stats(stats, shards);
  }
  window_perf.report();
  return 0;
}
