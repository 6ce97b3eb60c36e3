#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/invariants.hpp"
#include "common/parallel.hpp"
#include "phy/batch_kernels.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {
// Substream domain tag separating fading draws from any future named
// substreams derived from the same runner seed.
constexpr std::uint64_t kFadingDomain = 0xFAD1'F0E5'7A7EULL;

// Rejects a configuration the runner would otherwise clamp or use silently
// inside a window, naming the offending field.
RunOptions validated(RunOptions options) {
  if (options.threads < 0) {
    throw std::invalid_argument("RunOptions::threads must be >= 0, got " +
                                std::to_string(options.threads));
  }
  if (options.shards < 0) {
    throw std::invalid_argument("RunOptions::shards must be >= 0, got " +
                                std::to_string(options.shards));
  }
  const double margin = options.prune_margin.value();
  if (!std::isfinite(margin) || margin < 0.0) {
    throw std::invalid_argument(
        "RunOptions::prune_margin must be finite and >= 0 dB, got " +
        std::to_string(margin));
  }
  return options;
}

}  // namespace

Rng packet_link_rng(const Rng& root, GatewayId gateway, PacketId packet) {
  return root.substream(kFadingDomain ^ (static_cast<std::uint64_t>(gateway) << 40),
                        packet);
}

std::size_t WindowResult::total_delivered() const {
  std::size_t total = 0;
  for (const auto& [net, n] : delivered) total += n;
  return total;
}

std::size_t WindowResult::total_offered() const {
  std::size_t total = 0;
  for (const auto& [net, n] : offered) total += n;
  return total;
}

ScenarioRunner::ScenarioRunner(Deployment& deployment, std::uint64_t seed,
                               RunOptions options)
    : deployment_(deployment),
      rng_(seed),
      options_(validated(std::move(options))),
      invariants_(invariants_from_env()) {}

void ScenarioRunner::set_options(RunOptions options) {
  options_ = validated(std::move(options));
}

WindowResult ScenarioRunner::run_window(const std::vector<Transmission>& txs) {
  WindowResult result;
  auto& channel = deployment_.channel_model();
  const int shard_count = resolve_shard_count(options_.shards);
  const ShardLayout layout = deployment_.shard_layout(shard_count);
  // Refreshing the cache set registers every gateway column in its home
  // slice (and recomputes antenna gains for gateways whose antenna changed
  // since the last call).
  ShardedLinkCache& caches = deployment_.shard_caches(shard_count);
  // Flatten every network's gateways in deployment order: the parallel
  // fan-out runs them in any order, the merge below walks them in this one.
  std::vector<Gateway*> tasks;
  for (auto& network : deployment_.networks()) {
    // (Re)attach the capture policy every window: gateways may have been
    // added since the last one, and a null attach detaches stale state. The
    // policy pointer is const and shared across concurrent gateway tasks —
    // safe because resolve() is stateless by contract.
    for (auto& gw : network.gateways()) {
      gw.set_capture_policy(options_.capture_policy.get());
      tasks.push_back(&gw);
    }
  }

  auto& sc = scratch_;
  const Dbm floor =
      noise_floor_dbm(kLoRaBandwidth125k) - options_.prune_margin;
  const auto shards = static_cast<std::size_t>(shard_count);
  sc.shards.resize(shards);
  sc.task_col.resize(tasks.size());
  sc.task_shard.resize(tasks.size());
  sc.task_slot.resize(tasks.size());
  for (auto& sh : sc.shards) sh.tasks.clear();
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const Gateway* gw = tasks[t];
    const auto home = static_cast<std::size_t>(layout.shard_of(gw->position()));
    sc.task_shard[t] = static_cast<std::uint32_t>(home);
    sc.task_col[t] = caches.slice(home).column_of(gw->id());
    sc.task_slot[t] = static_cast<std::uint32_t>(sc.shards[home].tasks.size());
    sc.shards[home].tasks.push_back(t);
  }

  // Serial prepass, one pass per shard: register every audible transmitter
  // row with the shard's LinkCache slice and record its candidate columns,
  // so a gateway task walks only transmissions that could plausibly clear
  // its prune floor. The audibility gate uses exactly the candidate bound,
  // so a transmitter skipped by a slice has no candidate columns there and
  // no event is lost; ascending tx order is preserved per gateway, so every
  // event list is identical to the monolithic loop's (docs/sharding.md).
  shard_stats_ = ShardWindowStats{};
  shard_stats_.shards = shard_count;
  for (std::size_t s = 0; s < shards; ++s) {
    auto& sh = sc.shards[s];
    LinkCache& slice = caches.slice(s);
    // Candidacy is recorded per transmission as a column bitmask when the
    // slice fits in 64 gateways (one AND per (tx, gateway) pair in the
    // fan-out); larger slices fall back to materialized per-column
    // transmission lists. Both paths visit transmissions in ascending
    // index order per gateway, so event lists are identical either way.
    sh.use_mask = slice.column_count() <= 64;
    sh.row_of_tx.resize(txs.size());
    if (sh.use_mask) {
      sh.tx_mask.resize(txs.size());
    } else {
      if (sh.gw_txs.size() < slice.column_count()) {
        sh.gw_txs.resize(slice.column_count());
      }
      for (auto& list : sh.gw_txs) list.clear();
    }
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const auto& tx = txs[i];
      // Out-of-spec tx power: the candidate bound does not cover it, so
      // register and consider the transmission at every gateway.
      const bool in_spec = tx.tx_power <= kMaxTxPower;
      const std::uint32_t row =
          in_spec ? slice.ensure_row_if_audible(tx.node, tx.origin, floor,
                                                kMaxTxPower)
                  : slice.ensure_row(tx.node, tx.origin);
      sh.row_of_tx[i] = row;
      if (row != LinkCache::kInvalidRow &&
          layout.shard_of(tx.origin) != static_cast<int>(s)) {
        ++shard_stats_.boundary_rows;
      }
      if (sh.use_mask) {
        sh.tx_mask[i] =
            row == LinkCache::kInvalidRow ? 0
            : in_spec ? slice.candidate_mask(row, floor, kMaxTxPower)
                      : ~std::uint64_t{0};
        continue;
      }
      if (row == LinkCache::kInvalidRow) continue;
      if (in_spec) {
        for (const std::uint32_t col :
             slice.candidate_columns(row, floor, kMaxTxPower)) {
          sh.gw_txs[col].push_back(static_cast<std::uint32_t>(i));
        }
      } else {
        for (std::uint32_t col = 0; col < slice.column_count(); ++col) {
          sh.gw_txs[col].push_back(static_cast<std::uint32_t>(i));
        }
      }
    }
    shard_stats_.resident_rows += slice.row_count();
  }
  const double fading_sigma = channel.config().fast_fading_sigma_db.value();

  // The window's shared transmission columns, built once; each gateway task
  // consumes them through the receive kernels (phy/batch_kernels.hpp)
  // instead of per-event struct walks.
  sc.table.build(txs);
  if (sc.task_idx.size() < tasks.size()) {
    sc.task_idx.resize(tasks.size());
    sc.task_fade.resize(tasks.size());
    sc.task_power.resize(tasks.size());
  }

  // Per-gateway pipelines are independent: each consumes its shard's
  // candidate transmission list and touches only its own gateway (the link
  // cache slices and scratch arenas are read-only / per-task here). Yields
  // land in shard-local staging; the shard loop below publishes them.
  auto& staged = sc.staged;
  staged.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    staged[s].resize(sc.shards[s].tasks.size());
  }
  parallel_for(
      tasks.size(),
      [&](std::size_t t) {
        Gateway* gw = tasks[t];
        const auto& sh = sc.shards[sc.task_shard[t]];
        auto& yield = staged[sc.task_shard[t]][sc.task_slot[t]];
        yield.uplinks.clear();
        // Gather the gateway's candidate transmission indices in ascending
        // order, draw their fading in one keyed batch, filter by the prune
        // floor, then run the radio off the shared columns. The rx power
        // comes from the cached static link terms; only the fast-fading
        // draw is per-packet, and the filter evaluates the uncached
        // arithmetic term for term —
        //   ((tx_power - link_path_loss) + fading) + antenna_gain
        // — so rx powers are bit-identical.
        const auto gains = caches.slice(sc.task_shard[t]).gains(sc.task_col[t]);
        auto& idx = sc.task_idx[t];
        auto& fade = sc.task_fade[t];
        auto& power = sc.task_power[t];
        idx.clear();
        if (sh.use_mask) {
          const std::uint64_t bit = std::uint64_t{1} << sc.task_col[t];
          for (std::size_t i = 0; i < txs.size(); ++i) {
            if (sh.tx_mask[i] & bit) {
              idx.push_back(static_cast<std::uint32_t>(i));
            }
          }
        } else {
          const auto& list = sh.gw_txs[sc.task_col[t]];
          idx.assign(list.begin(), list.end());
        }
        fade.resize(idx.size());
        power.resize(idx.size());
        const SubstreamBatch fading_stream(
            rng_, kFadingDomain ^ (static_cast<std::uint64_t>(gw->id()) << 40));
        batch_fading_draws(fading_stream, sc.table.packet.data(), idx.data(),
                           idx.size(), fading_sigma, fade.data());
        const std::size_t kept = batch_rx_power_filter(
            gains, sh.row_of_tx.data(), sc.table.tx_power.data(), fade.data(),
            floor, idx.data(), idx.size(), power.data());
        idx.resize(kept);
        power.resize(kept);
        yield.event_tx_index.assign(idx.begin(), idx.end());
        const RxEventView view{&sc.table, idx.data(), power.data(), kept};
        gw->receive_window(view, yield.uplinks, yield.outcomes);
      },
      options_.threads);

  // Publish each shard's yields — boundary events included — to the global
  // merge slots, in ascending shard order. Every yield lands in the slot of
  // its global task index, so the exchange is order-insensitive by
  // construction and the merge below is byte-for-byte the monolithic one
  // (docs/sharding.md).
  sc.yield_ptr.assign(tasks.size(), nullptr);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto& owned = sc.shards[s].tasks;
    for (std::size_t k = 0; k < owned.size(); ++k) {
      for (const std::size_t i : staged[s][k].event_tx_index) {
        if (layout.shard_of(txs[i].origin) != static_cast<int>(s)) {
          ++shard_stats_.boundary_events;
        }
      }
      sc.yield_ptr[owned[k]] = &staged[s][k];
    }
  }
  // The checker reads only the published yields, gateway by gateway in
  // deployment order, so it never touches the parallel region.
  if (invariants_ != nullptr) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto& yield = *sc.yield_ptr[t];
      invariants_->check_gateway_window(
          sc.table, yield.event_tx_index, yield.outcomes,
          static_cast<std::size_t>(tasks[t]->radio().profile().decoders));
    }
  }

  // Merge in deployment order: per own-network outcomes of each packet
  // (keyed by its index in txs) gather in gateway-ID order within the
  // packet's network, and each server ingests its gateways' uplinks in that
  // same order — exactly the serial sequence. The gather is a counted flat
  // layout (count, prefix-sum, fill) instead of one heap vector per packet.
  sc.own_count.assign(txs.size(), 0);
  {
    std::size_t t = 0;
    for (auto& network : deployment_.networks()) {
      for ([[maybe_unused]] auto& gw : network.gateways()) {
        const auto& yield = *sc.yield_ptr[t++];
        for (const std::size_t i : yield.event_tx_index) {
          if (txs[i].network == network.id()) ++sc.own_count[i];
        }
      }
    }
  }
  sc.own_offset.resize(txs.size() + 1);
  sc.own_offset[0] = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    sc.own_offset[i + 1] = sc.own_offset[i] + sc.own_count[i];
  }
  // Growth-only: every slot in [0, own_offset[n]) is written by the fill
  // pass below before the classify pass reads it, so neither shrinking nor
  // zero-initializing a reused prefix buys anything.
  if (sc.own_flat.size() < sc.own_offset[txs.size()]) {
    sc.own_flat.resize(sc.own_offset[txs.size()]);
  }
  // Reuse own_count as the per-packet fill cursor (relative to the offset).
  std::fill(sc.own_count.begin(), sc.own_count.end(), 0);
  std::size_t t = 0;
  for (auto& network : deployment_.networks()) {
    std::vector<UplinkRecord>& uplinks = sc.uplinks;
    uplinks.clear();
    for ([[maybe_unused]] auto& gw : network.gateways()) {
      const auto& yield = *sc.yield_ptr[t++];
      for (std::size_t e = 0; e < yield.outcomes.size(); ++e) {
        const std::size_t i = yield.event_tx_index[e];
        if (txs[i].network != network.id()) continue;  // foreign at this GW
        sc.own_flat[sc.own_offset[i] + sc.own_count[i]++] = yield.outcomes[e];
      }
      uplinks.insert(uplinks.end(), yield.uplinks.begin(), yield.uplinks.end());
    }
    network.server().ingest(uplinks);
  }

  // Classify every offered packet against its own network's gateways.
  // Counters are flat vectors indexed by a dense network index (network
  // ids are allocated sequentially, so the common case is index == id);
  // the result maps are filled once at the end.
  sc.net_ids.clear();
  for (const auto& network : deployment_.networks()) {
    sc.net_ids.push_back(network.id());
  }
  const std::size_t deployed = sc.net_ids.size();
  sc.offered.assign(deployed, 0);
  sc.delivered.assign(deployed, 0);
  sc.served.resize(deployed);
  for (auto& nodes : sc.served) nodes.clear();
  auto index_of = [&sc](NetworkId id) -> std::size_t {
    if (id < sc.net_ids.size() && sc.net_ids[id] == id) return id;
    for (std::size_t n = 0; n < sc.net_ids.size(); ++n) {
      if (sc.net_ids[n] == id) return n;
    }
    // Traffic may reference a network id absent from the deployment; give
    // it a slot so its fates are still tallied (the map-based bookkeeping
    // this replaces created entries on the fly).
    sc.net_ids.push_back(id);
    sc.offered.push_back(0);
    sc.delivered.push_back(0);
    sc.served.emplace_back();
    return sc.net_ids.size() - 1;
  };
  result.fates.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    PacketFate fate = classify_packet(
        txs[i], std::span<const RxOutcome>(
                    sc.own_flat.data() + sc.own_offset[i],
                    sc.own_offset[i + 1] - sc.own_offset[i]));
    const std::size_t n = index_of(fate.network);
    ++sc.offered[n];
    if (fate.delivered) {
      ++sc.delivered[n];
      sc.served[n].push_back(fate.node);
    }
    result.fates.push_back(std::move(fate));
  }
  for (std::size_t n = 0; n < sc.net_ids.size(); ++n) {
    auto& nodes = sc.served[n];
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const NetworkId id = sc.net_ids[n];
    // Deployment networks always report (zeroes included); ids outside the
    // deployment get exactly the entries their packets created, matching
    // the previous on-the-fly map behaviour.
    if (n < deployed || sc.offered[n] > 0) result.offered[id] = sc.offered[n];
    if (n < deployed || sc.delivered[n] > 0) {
      result.delivered[id] = sc.delivered[n];
    }
    if (n < deployed || !nodes.empty()) {
      result.served_nodes[id] = nodes.size();
    }
  }
  if (invariants_ != nullptr) invariants_->check_window(result);
  return result;
}

WindowResult ScenarioRunner::run_window(const std::vector<Transmission>& txs,
                                        MetricsCollector& metrics) {
  WindowResult result = run_window(txs);
  for (const auto& fate : result.fates) metrics.record(fate);
  return result;
}

}  // namespace alphawan
