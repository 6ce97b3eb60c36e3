// The finite pool of packet decoders inside a gateway's baseband chip —
// the resource whose exhaustion is the paper's decoder contention problem.
//
// Semantics (paper Appendix C): a decoder is claimed at a packet's lock-on
// instant and held until the packet's last payload symbol. If no decoder is
// free at lock-on, the packet is dropped immediately (the radio cannot
// re-synchronize mid-packet, so a decoder freeing up later does not help).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace alphawan {

class DecoderPool {
 public:
  explicit DecoderPool(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Release decoders whose packets end at or before `now`.
  void release_expired(Seconds now);

  // Number of decoders busy at `now` (after releasing expired ones).
  [[nodiscard]] std::size_t busy(Seconds now);

  // Claim a decoder at `now`, holding it until `until`, for a packet of
  // `network`. Returns true on success; false if the pool is exhausted.
  // (now, until) is a time interval: chronological order, never swapped.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (now, until) interval)
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  bool try_acquire(Seconds now, Seconds until, NetworkId network,
                   PacketId packet);

  // True if any currently-busy decoder holds a packet from a network other
  // than `network` (used to attribute inter- vs intra-network contention).
  [[nodiscard]] bool any_foreign_occupant(NetworkId network) const;

  // Ids of packets currently holding decoders (diagnostics/tests).
  [[nodiscard]] std::vector<PacketId> occupants() const;

  void reset();

 private:
  struct Slot {
    Seconds release_at{};
    NetworkId network = 0;
    PacketId packet = 0;
  };

  std::size_t capacity_;
  std::vector<Slot> busy_slots_;  // kept sorted by release_at
};

}  // namespace alphawan
