#include <sys/resource.h>

#include <cmath>
#include <cstdint>

#include "bench.hpp"
#include "phy/sensitivity.hpp"

namespace perfbench {

using namespace alphawan;

namespace {
// Substream domain of the per-window traffic draws.
constexpr std::uint64_t kTrafficDomain = 0x7AFF'1C00'BE4CULL;
// Traffic draw of the warm-up window, apart from every measured window.
constexpr std::uint64_t kWarmupWindow = 1'000'000;
constexpr double kWarmupLoad = 1.5;
// Steps of the host-speed probe: about 15 ms on a 4-vCPU Xeon.
constexpr std::uint32_t kProbeSteps = 1u << 21;
}  // namespace

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double probe_ms() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);
  static volatile double sink = 0.0;
  const auto start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (std::uint32_t i = 0; i < kProbeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (table.size() - 1)];
    slot += x;
    acc += std::sqrt(static_cast<double>(slot >> 11));
  }
  sink = acc;
  return ms_since(start);
}

ChannelModelConfig urban_channel(std::uint64_t seed) {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{3.0};
  cfg.fast_fading_sigma_db = Db{0.8};
  cfg.seed = seed;
  return cfg;
}

std::vector<UserGroup> user_groups(Network& network,
                                   std::size_t users_per_node,
                                   NodeId first_virtual_id) {
  std::vector<UserGroup> groups;
  groups.reserve(network.nodes().size());
  NodeId next = first_virtual_id;
  for (EndNode& node : network.nodes()) {
    UserGroup g;
    g.node = &node;
    if (users_per_node == 0) {
      g.first_id = node.id();
      g.users = 1;
    } else {
      g.first_id = next;
      g.users = users_per_node;
      next += static_cast<NodeId>(users_per_node);
    }
    groups.push_back(g);
  }
  return groups;
}

std::vector<Transmission> window_traffic(const std::vector<UserGroup>& groups,
                                         std::uint64_t seed,
                                         std::uint64_t window, Seconds length,
                                         Seconds offset) {
  Rng rng = Rng(seed).substream(kTrafficDomain, window);
  PacketIdSource ids;
  std::vector<Transmission> txs;
  for (const UserGroup& g : groups) {
    const auto part = emulated_user_traffic({g.node}, g.users, length, g.rate,
                                            rng, ids, g.first_id);
    txs.insert(txs.end(), part.begin(), part.end());
  }
  sort_by_start(txs);
  for (Transmission& tx : txs) {
    tx.id |= window << 32;
    tx.start = tx.start + offset;
  }
  return txs;
}

std::vector<Transmission> warmup_traffic(const std::vector<UserGroup>& groups,
                                         std::uint64_t seed) {
  std::vector<UserGroup> burst = groups;
  for (UserGroup& g : burst) g.rate *= kWarmupLoad;
  return window_traffic(burst, seed, kWarmupWindow, kWindow);
}

WindowResult run_and_record(ScenarioRunner& runner,
                            const std::vector<Transmission>& txs,
                            MetricsCollector& metrics, Tracer& tracer,
                            std::uint64_t op) {
  WindowResult result;
  {
    const Tracer::Scope span(tracer, "sim.run_window", op);
    result = runner.run_window(txs);
  }
  {
    const Tracer::Scope span(tracer, "sim.record", op);
    for (const PacketFate& fate : result.fates) metrics.record(fate);
  }
  return result;
}

void clear_servers(Deployment& deployment) {
  for (Network& network : deployment.networks()) network.server().clear();
}

void preregister_links(Deployment& deployment, int shards, Db prune_margin,
                       const std::vector<UserGroup>& groups) {
  ShardedLinkCache& caches = deployment.shard_caches(shards);
  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - prune_margin;
  for (std::size_t s = 0; s < caches.shard_count(); ++s) {
    LinkCache& slice = caches.slice(s);
    for (const UserGroup& g : groups) {
      for (std::size_t u = 0; u < g.users; ++u) {
        (void)slice.ensure_row_if_audible(g.first_id + static_cast<NodeId>(u),
                                          g.node->position(), floor,
                                          kMaxTxPower);
      }
    }
  }
}

std::size_t link_rows(Deployment& deployment, int shards) {
  ShardedLinkCache& caches = deployment.shard_caches(shards);
  std::size_t rows = 0;
  for (std::size_t s = 0; s < caches.shard_count(); ++s) {
    rows += caches.slice(s).row_count();
  }
  return rows;
}

void RadioCounts::add(const RadioCounts& other) {
  packets += other.packets;
  events += other.events;
  for (const auto& [d, n] : other.outcomes) outcomes[d] += n;
  uplinks += other.uplinks;
  unique_delivered += other.unique_delivered;
}

std::size_t RadioCounts::count(RxDisposition d) const {
  const auto it = outcomes.find(d);
  return it == outcomes.end() ? 0 : it->second;
}

std::size_t logged_uplinks(const Deployment& deployment) {
  std::size_t records = 0;
  for (const Network& network : deployment.networks()) {
    records += network.server().log().size();
  }
  return records;
}

ReplayResult replay_window(Deployment& deployment,
                           const ScenarioRunner& runner, int shards,
                           const std::vector<Transmission>& txs,
                           const WindowResult& result,
                           std::size_t logged, Tracer& tracer,
                           std::uint64_t op) {
  ReplayResult out;
  ShardedLinkCache& caches = deployment.shard_caches(shards);
  const ShardLayout layout = deployment.shard_layout(shards);
  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - runner.prune_margin();
  const double sigma =
      deployment.channel_model().config().fast_fading_sigma_db.value();
  const Rng root(runner.seed());

  WindowTxTable table;
  table.build(txs);
  // Row of every transmitter in each slice, looked up once per slice.
  std::vector<std::vector<std::uint32_t>> rows(caches.shard_count());
  std::vector<std::uint32_t> idx;
  std::vector<Dbm> power;
  std::vector<RxOutcome> outcomes;
  std::map<NetworkId, std::vector<UplinkRecord>> uplinks;
  out.counts.packets = txs.size();
  {
    const Tracer::Scope radio(tracer, "radio.replay", op, /*root=*/true);
    for (Network& network : deployment.networks()) {
      auto& net_uplinks = uplinks[network.id()];
      for (Gateway& gw : network.gateways()) {
        const auto s = static_cast<std::size_t>(layout.shard_of(gw.position()));
        const LinkCache& slice = caches.slice(s);
        auto& slice_rows = rows[s];
        if (slice_rows.size() != txs.size()) {
          slice_rows.resize(txs.size());
          for (std::size_t i = 0; i < txs.size(); ++i) {
            slice_rows[i] = slice.row_of(txs[i].node);
          }
        }
        const auto gains = slice.gains(slice.column_of(gw.id()));
        idx.clear();
        power.clear();
        for (std::size_t i = 0; i < txs.size(); ++i) {
          if (slice_rows[i] == LinkCache::kInvalidRow) continue;
          const LinkGain g = gains[slice_rows[i]];
          Rng link_rng = packet_link_rng(root, gw.id(), txs[i].id);
          const Db fading{link_rng.normal_once(0.0, sigma)};
          const Dbm rx = txs[i].tx_power - g.path_loss + fading + g.antenna_gain;
          if (rx < floor) continue;
          idx.push_back(static_cast<std::uint32_t>(i));
          power.push_back(rx);
        }
        const RxEventView view{&table, idx.data(), power.data(), idx.size()};
        const auto start = Clock::now();
        {
          const Tracer::Scope span(tracer, "radio.receive_window", op);
          gw.receive_window(view, net_uplinks, outcomes);
        }
        out.receive_ms += ms_since(start);
        out.counts.events += idx.size();
        for (const RxOutcome& o : outcomes) ++out.counts.outcomes[o.disposition];
      }
    }
  }
  {
    const Tracer::Scope net(tracer, "net.replay", op, /*root=*/true);
    for (Network& network : deployment.networks()) {
      NetworkServer scratch(network.id());
      const auto& net_uplinks = uplinks[network.id()];
      const auto start = Clock::now();
      {
        const Tracer::Scope span(tracer, "net.ingest", op);
        scratch.ingest(net_uplinks);
      }
      out.ingest_ms += ms_since(start);
      out.counts.uplinks += net_uplinks.size();
      out.counts.unique_delivered += scratch.delivered_packets();
      const auto it = result.delivered.find(network.id());
      const std::size_t expected = it == result.delivered.end() ? 0 : it->second;
      if (scratch.delivered_packets() != expected) {
        out.error += "replayed " + std::to_string(scratch.delivered_packets()) +
                     " deliveries for network " + std::to_string(network.id()) +
                     ", the window delivered " + std::to_string(expected) + "; ";
      }
    }
  }
  if (out.counts.uplinks != logged) {
    out.error += "replayed " + std::to_string(out.counts.uplinks) +
                 " uplinks, the servers logged " + std::to_string(logged) + "; ";
  }
  return out;
}

}  // namespace perfbench
