#include "baselines/lmac.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/geometry.hpp"
#include "phy/overlap.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

// Maximum total deferral before a node gives up waiting and transmits
// anyway (regulatory/application latency bound).
constexpr Seconds kMaxDefer{5.0};
// Random inter-frame gap inserted after a busy channel clears.
constexpr Seconds kMinGap{5e-3};
constexpr Seconds kMaxGap{30e-3};
// Carrier sensing range: transmitters farther apart than this cannot hear
// each other (hidden terminals persist, as in real LMAC).
constexpr Meters kSenseRange{1500.0};

// Channels are bucketed by a coarse frequency key so partially-overlapping
// channels land in neighbouring buckets and are both checked.
std::int64_t freq_bucket(Hz center) {
  return static_cast<std::int64_t>(center / kChannelSpacing);
}

}  // namespace

std::vector<Transmission> LmacPolicy::shape_window(
    std::vector<Transmission> txs, Rng& rng) const {
  sort_by_start(txs);
  // Per frequency bucket: transmissions still on the air (pruned lazily).
  std::map<std::int64_t, std::vector<Transmission>> active;

  std::vector<Transmission> scheduled;
  scheduled.reserve(txs.size());
  for (auto& tx : txs) {
    const Seconds duration = tx.end() - tx.start;
    const Seconds deadline = tx.start + kMaxDefer;
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
          if (distance(other.origin, tx.origin) > kSenseRange) {
            continue;  // hidden terminal: cannot be sensed
          }
          const Seconds candidate =
              other.end() +
              Seconds{rng.uniform(kMinGap.value(), kMaxGap.value())};
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
