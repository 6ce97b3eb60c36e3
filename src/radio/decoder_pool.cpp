#include "radio/decoder_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace alphawan {

DecoderPool::DecoderPool(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("DecoderPool: capacity must be > 0");
  }
  busy_slots_.reserve(capacity);
}

void DecoderPool::release_expired(Seconds now) {
  // busy_slots_ is sorted by release_at; drop the prefix that has expired.
  auto it = std::upper_bound(
      busy_slots_.begin(), busy_slots_.end(), now,
      [](Seconds t, const Slot& s) { return t < s.release_at; });
  busy_slots_.erase(busy_slots_.begin(), it);
}

std::size_t DecoderPool::busy(Seconds now) {
  release_expired(now);
  return busy_slots_.size();
}

bool DecoderPool::try_acquire(Seconds now, Seconds until, NetworkId network,
                              PacketId packet) {
  release_expired(now);
  if (busy_slots_.size() >= capacity_) return false;
  Slot slot{until, network, packet};
  const auto pos = std::upper_bound(
      busy_slots_.begin(), busy_slots_.end(), slot,
      [](const Slot& a, const Slot& b) { return a.release_at < b.release_at; });
  busy_slots_.insert(pos, slot);
  return true;
}

bool DecoderPool::any_foreign_occupant(NetworkId network) const {
  return std::any_of(busy_slots_.begin(), busy_slots_.end(),
                     [&](const Slot& s) { return s.network != network; });
}

std::vector<PacketId> DecoderPool::occupants() const {
  std::vector<PacketId> ids;
  ids.reserve(busy_slots_.size());
  for (const auto& s : busy_slots_) ids.push_back(s.packet);
  return ids;
}

void DecoderPool::reset() {
  busy_slots_.clear();
}

}  // namespace alphawan
