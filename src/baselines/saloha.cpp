#include "baselines/saloha.hpp"

#include <algorithm>
#include <cmath>

#include "sim/traffic.hpp"

namespace alphawan {
namespace {

// Guard interval appended to the airtime to form the slot length.
constexpr Seconds kGuard{2e-3};
// Distributed-sync clock error: per-node offset ~ N(0, kSyncJitter),
// clamped to ±kMaxOffset (beacon loss bounds are enforced in the real
// protocol by re-synchronizing).
constexpr Seconds kSyncJitter{1e-3};
constexpr Seconds kMaxOffset{4e-3};

}  // namespace

std::vector<Transmission> SlottedAlohaPolicy::shape_window(
    std::vector<Transmission> txs, Rng& rng) const {
  // Per-node clock offsets come from a keyed substream so a node's sync
  // error is identical no matter how the window's packets are ordered (and
  // across windows — a clock does not re-draw its error per packet).
  const Rng sync_root = rng.substream("saloha-sync");
  for (auto& tx : txs) {
    // Slot grid of this transmission's radio setting: airtime + guard,
    // anchored at t=0. All nodes in a DR class share the grid.
    const Seconds slot =
        time_on_air(tx.params, tx.payload_bytes) + kGuard;
    Rng node_clock = sync_root.substream(static_cast<std::uint64_t>(tx.node));
    const double offset = std::clamp(
        node_clock.normal(0.0, kSyncJitter.value()), -kMaxOffset.value(),
        kMaxOffset.value());
    // Delay to the next slot boundary as seen by the node's local clock:
    // boundaries sit at k * slot + offset in true time, and the first one
    // at or after tx.start is the transmit instant.
    const double k =
        std::ceil((tx.start.value() - offset) / slot.value());
    tx.start = Seconds{k * slot.value() + offset};
  }
  sort_by_start(txs);
  return txs;
}

}  // namespace alphawan
