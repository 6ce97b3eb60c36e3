#include "sim/scenario.hpp"

#include <algorithm>
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

// How many transmissions ahead the prepass prefetches a slot's memo: the
// slots come in transmission order, which is random with respect to the
// memo array, so each lookup would otherwise wait on a DRAM miss
// (docs/performance.md has the tuning).
constexpr std::size_t kMemoPrefetchAhead = 16;

// Transmissions this far below the 125 kHz noise floor at a gateway are
// dropped from its event list.
constexpr Db kPruneMargin{25.0};

// Rejects a configuration the runner would otherwise clamp or use silently
// inside a window, naming the offending field.
RunOptions validated(RunOptions options) {
  if (options.threads < 0) {
    throw std::invalid_argument("RunOptions::threads must be >= 0, got " +
                                std::to_string(options.threads));
  }
  if (options.shards < 0 || options.shards > kMaxShards) {
    throw std::invalid_argument("RunOptions::shards must be in [0, " +
                                std::to_string(kMaxShards) + "], got " +
                                std::to_string(options.shards));
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

Db ScenarioRunner::prune_margin() { return kPruneMargin; }

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
    // safe because recovers() is a const, stateless predicate.
    for (auto& gw : network.gateways()) {
      gw.set_capture_policy(options_.capture_policy.get());
      tasks.push_back(&gw);
    }
  }

  auto& sc = scratch_;
  const Dbm floor =
      noise_floor_dbm(kLoRaBandwidth125k) - kPruneMargin;
  const auto shards = static_cast<std::size_t>(shard_count);
  sc.shards.resize(shards);
  sc.task_col.resize(tasks.size());
  sc.task_shard.resize(tasks.size());
  sc.task_ids.resize(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const Gateway* gw = tasks[t];
    const auto home = static_cast<std::size_t>(layout.shard_of(gw->position()));
    sc.task_shard[t] = static_cast<std::uint32_t>(home);
    sc.task_col[t] = caches.slice(home).column_of(gw->id());
    sc.task_ids[t] = gw->id();
  }
  // Gateways sharing an id would share a link-cache column, and with it
  // the candidate list each task compacts in place.
  std::sort(sc.task_ids.begin(), sc.task_ids.end());
  const auto twice = std::adjacent_find(sc.task_ids.begin(), sc.task_ids.end());
  if (twice != sc.task_ids.end()) {
    throw std::invalid_argument("run_window: gateway id " +
                                std::to_string(*twice) +
                                " is used by two gateways");
  }

  // One serial pass resolves every transmission once: its node's slot in
  // the slices' shared directory and its home shard.
  sc.tx_slot.resize(txs.size());
  sc.tx_home.resize(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    sc.tx_slot[i] = caches.slots().assign(txs[i].node);
    sc.tx_home[i] = static_cast<std::uint32_t>(layout.shard_of(txs[i].origin));
  }

  // The window's shared transmission columns, built once: the prepass
  // routes by their channel ids, and each gateway task consumes them
  // through the receive kernels (phy/batch_kernels.hpp) instead of
  // per-event struct walks.
  sc.table.build(txs);

  // Per-shard prepass, shards in parallel: register every audible
  // transmitter row with the shard's LinkCache slice and route it to the
  // candidate columns whose gateway can read its channel, so a gateway
  // task walks only transmissions that could plausibly clear its prune
  // floor on a channel its radio reads. Each loop touches only its own
  // slice, scratch and home gateways' radios. The audibility gate uses
  // exactly the candidate bound, so a transmitter skipped by a slice has no
  // candidate columns there and no event is lost; an event on a channel the
  // radio cannot read changes no outcome (GatewayRadio::readable_channels);
  // lists fill in ascending tx order, so every event list is identical to
  // the monolithic loop's (docs/sharding.md).
  parallel_for(
      shards,
      [&](std::size_t s) {
        auto& sh = sc.shards[s];
        LinkCache& slice = caches.slice(s);
        const std::size_t words = slice.mask_words();
        sh.readable_cols.assign(sc.table.channels.size() * words, 0);
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          if (sc.task_shard[t] != s) continue;
          tasks[t]->radio().readable_channels(sc.table.channels, sh.readable);
          const std::uint32_t col = sc.task_col[t];
          for (std::size_t w = 0; w < sh.readable.size(); ++w) {
            if (sh.readable[w] != 0) {
              sh.readable_cols[w * words + col / 64] |= std::uint64_t{1}
                                                        << (col % 64);
            }
          }
        }
        sh.col_txs.resize(slice.column_count());
        for (auto& list : sh.col_txs) list.clear();
        sh.row_of_tx.resize(txs.size());
        sh.boundary_rows = 0;
        for (std::size_t i = 0; i < txs.size(); ++i) {
          if (i + kMemoPrefetchAhead < txs.size()) {
            slice.prefetch(sc.tx_slot[i + kMemoPrefetchAhead]);
          }
          const auto& tx = txs[i];
          // Out-of-spec tx power: the candidate bound does not cover it, so
          // register and consider the transmission at every gateway (the
          // fan-out's own-power prune still tests its real power).
          const bool in_spec = tx.tx_power <= kMaxTxPower;
          const std::uint32_t row =
              in_spec ? slice.ensure_row_if_audible_at(sc.tx_slot[i], tx.node,
                                                       tx.origin, floor,
                                                       kMaxTxPower)
                      : slice.ensure_row_at(sc.tx_slot[i], tx.node, tx.origin);
          sh.row_of_tx[i] = row;
          if (row == LinkCache::kInvalidRow) continue;
          if (sc.tx_home[i] != s) ++sh.boundary_rows;
          const std::uint64_t* readable =
              sh.readable_cols.data() + sc.table.channel_id[i] * words;
          const std::uint64_t* cand =
              in_spec ? slice.candidate_mask(row, floor, kMaxTxPower).data()
                      : nullptr;
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t m = (in_spec ? cand[w] : ~std::uint64_t{0}) &
                              readable[w];
            for (; m != 0; m &= m - 1) {
              sh.col_txs[w * 64 + static_cast<std::size_t>(
                                      __builtin_ctzll(m))]
                  .push_back(static_cast<std::uint32_t>(i));
            }
          }
        }
      },
      options_.threads);
  shard_stats_ = ShardWindowStats{};
  shard_stats_.shards = shard_count;
  for (std::size_t s = 0; s < shards; ++s) {
    shard_stats_.resident_rows += caches.slice(s).row_count();
    shard_stats_.boundary_rows += sc.shards[s].boundary_rows;
  }
  const Db fading_sigma = channel.config().fast_fading_sigma_db;
  if (sc.task_fade.size() < tasks.size()) {
    sc.task_fade.resize(tasks.size());
    sc.task_power.resize(tasks.size());
  }

  // Per-gateway pipelines are independent: each works on its own column's
  // candidate list and touches only its own gateway (the link cache slices
  // are read-only here). Each yield lands in the slot of its global task
  // index, so the merge below is byte-for-byte the monolithic one whatever
  // the shard count (docs/sharding.md).
  sc.yields.resize(tasks.size());
  parallel_for(
      tasks.size(),
      [&](std::size_t t) {
        Gateway* gw = tasks[t];
        auto& sh = sc.shards[sc.task_shard[t]];
        auto& yield = sc.yields[t];
        yield.uplinks.clear();
        // Take the gateway's routed candidates (ascending, all on channels
        // its radio reads), prune those that cannot clear the floor at
        // their own tx power (the masks assume kMaxTxPower;
        // docs/performance.md), draw the survivors' fading in one keyed
        // batch, filter by the prune floor, then run the radio off the
        // shared columns. The list compacts in place into the gateway's
        // event list, which the merge reads. The rx power comes from the
        // cached static link terms; only the fast-fading draw is
        // per-packet, and the filter evaluates the uncached arithmetic term
        // for term —
        //   ((tx_power - link_path_loss) + fading) + antenna_gain
        // — so rx powers are bit-identical.
        const LinkCache& slice = caches.slice(sc.task_shard[t]);
        const auto gains = slice.gains(sc.task_col[t]);
        auto& idx = sh.col_txs[sc.task_col[t]];
        auto& fade = sc.task_fade[t];
        auto& power = sc.task_power[t];
        idx.resize(batch_prune_candidates(gains, sh.row_of_tx.data(),
                                          sc.table.tx_power.data(), floor,
                                          fading_sigma, idx.data(),
                                          idx.size()));
        fade.resize(idx.size());
        power.resize(idx.size());
        const SubstreamBatch fading_stream(
            rng_, kFadingDomain ^ (static_cast<std::uint64_t>(gw->id()) << 40));
        batch_fading_draws(fading_stream, sc.table.packet.data(), idx.data(),
                           idx.size(), fading_sigma.value(), fade.data());
        const std::size_t kept = batch_rx_power_filter(
            gains, sh.row_of_tx.data(), sc.table.tx_power.data(), fade.data(),
            floor, idx.data(), idx.size(), power.data());
        idx.resize(kept);
        power.resize(kept);
        const RxEventView view{&sc.table, idx.data(), power.data(), kept};
        gw->receive_window(view, yield.uplinks, yield.outcomes);
      },
      options_.threads);

  // Task t's events: its column's list, compacted by the task.
  const auto events_of = [&sc](std::size_t t) -> const auto& {
    return sc.shards[sc.task_shard[t]].col_txs[sc.task_col[t]];
  };
  // The checker reads only the finished yields, gateway by gateway in
  // deployment order, so it never touches the parallel region.
  if (invariants_ != nullptr) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      invariants_->check_gateway_window(
          sc.table, events_of(t), sc.yields[t].outcomes,
          static_cast<std::size_t>(tasks[t]->radio().profile().decoders));
    }
  }

  // Merge in deployment order: each packet's outcomes at its own network's
  // gateways fold into one byte (fold_outcome; an OR, so the order cannot
  // matter), and each server ingests its gateways' uplinks in gateway-ID
  // order — exactly the serial sequence. The same walk counts boundary
  // events: receptions at a gateway outside the transmitter's home stripe.
  sc.own_fold.assign(txs.size(), 0);
  std::size_t t = 0;
  for (auto& network : deployment_.networks()) {
    std::vector<UplinkRecord>& uplinks = sc.uplinks;
    uplinks.clear();
    for ([[maybe_unused]] auto& gw : network.gateways()) {
      const auto& yield = sc.yields[t];
      const auto& events = events_of(t);
      const std::uint32_t shard = sc.task_shard[t++];
      for (std::size_t e = 0; e < yield.outcomes.size(); ++e) {
        const std::uint32_t i = events[e];
        shard_stats_.boundary_events += sc.tx_home[i] != shard;
        if (sc.table.net[i] == network.id()) {
          sc.own_fold[i] |= fold_outcome(yield.outcomes[e]);
        }
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
    return sc.net_ids.size() - 1;
  };
  result.fates.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    PacketFate fate = classify_packet(txs[i], sc.own_fold[i]);
    const std::size_t n = index_of(fate.network);
    ++sc.offered[n];
    if (fate.delivered) ++sc.delivered[n];
    result.fates.push_back(std::move(fate));
  }
  for (std::size_t n = 0; n < sc.net_ids.size(); ++n) {
    const NetworkId id = sc.net_ids[n];
    // Deployment networks always report (zeroes included); ids outside the
    // deployment get exactly the entries their packets created, matching
    // the previous on-the-fly map behaviour.
    if (n < deployed || sc.offered[n] > 0) result.offered[id] = sc.offered[n];
    if (n < deployed || sc.delivered[n] > 0) {
      result.delivered[id] = sc.delivered[n];
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
