#include "baselines/lmac.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/geometry.hpp"
#include "phy/overlap.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

// Channels are bucketed by a coarse frequency key so partially-overlapping
// channels land in neighbouring buckets and are both checked.
std::int64_t freq_bucket(Hz center) {
  return static_cast<std::int64_t>(center / kChannelSpacing);
}

}  // namespace

LmacPolicy::LmacPolicy(LmacOptions options, StandardLorawanOptions node_side)
    : options_(options), node_side_(node_side) {
  require_option(options_.max_defer >= Seconds{0.0},
                 "LmacOptions: max_defer must be >= 0");
  require_option(options_.min_gap >= Seconds{0.0},
                 "LmacOptions: min_gap must be >= 0");
  require_option(options_.min_gap <= options_.max_gap,
                 "LmacOptions: min_gap must not exceed max_gap");
  require_option(options_.sense_range >= Meters{0.0},
                 "LmacOptions: sense_range must be >= 0");
}

std::vector<Transmission> LmacPolicy::shape_window(
    std::vector<Transmission> txs, Rng& rng) const {
  const LmacOptions& options = options_;
  sort_by_start(txs);
  // Per frequency bucket: transmissions still on the air (pruned lazily).
  std::map<std::int64_t, std::vector<Transmission>> active;

  std::vector<Transmission> scheduled;
  scheduled.reserve(txs.size());
  for (auto& tx : txs) {
    const Seconds duration = tx.end() - tx.start;
    const Seconds deadline = tx.start + options.max_defer;
    const std::int64_t bucket = freq_bucket(tx.channel.center);

    Seconds start = tx.start;
    bool moved = true;
    while (moved && start <= deadline) {
      moved = false;
      for (std::int64_t b = bucket - 1; b <= bucket + 1; ++b) {
        const auto it = active.find(b);
        if (it == active.end()) continue;
        auto& list = it->second;
        // Lazy prune: drop transmissions that ended before our window.
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const Transmission& other) {
                                    return other.end() <= tx.start;
                                  }),
                   list.end());
        for (const auto& other : list) {
          if (other.end() <= start || other.start >= start + duration) {
            continue;
          }
          if (overlap_ratio(other.channel, tx.channel) <= 0.0) continue;
          if (distance(other.origin, tx.origin) > options.sense_range) {
            continue;  // hidden terminal: cannot be sensed
          }
          const Seconds candidate =
              other.end() +
              Seconds{rng.uniform(options.min_gap.value(), options.max_gap.value())};
          if (candidate > start) {
            start = candidate;
            moved = true;
          }
        }
      }
    }
    tx.start = std::min(start, deadline);
    active[bucket].push_back(tx);
    scheduled.push_back(tx);
  }
  sort_by_start(scheduled);
  return scheduled;
}

}  // namespace alphawan
