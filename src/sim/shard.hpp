// Spatial sharding of the deployment plane: the region is cut into vertical
// stripes, one shard per stripe. A gateway is homed in the stripe holding
// its position; a transmitter is resident in every shard where it is
// audible (conservatively, via the link cache's candidate bound), so nodes
// near a border appear in both neighbouring shards and no reception is ever
// missed. Shard count never changes results — only how the link cache and
// scratch arenas are partitioned (docs/sharding.md).
//
// Shard count comes from ALPHAWAN_SHARDS (default: 1), mirroring how
// ALPHAWAN_THREADS picks the parallel width (common/parallel.hpp).
#pragma once

#include "common/geometry.hpp"

namespace alphawan {

// Largest shard count a run accepts, matching the thread-count cap.
inline constexpr int kMaxShards = 4096;

// Parse an ALPHAWAN_SHARDS-style value: an integer in [1, kMaxShards] gives
// that many shards; null/empty/invalid/out of range falls back to 1
// (monolithic).
[[nodiscard]] int parse_shard_count(const char* text);

// The process-wide shard default: ALPHAWAN_SHARDS if exported, 1 otherwise.
// Read once at first use.
[[nodiscard]] int default_shard_count();

// Resolve a RunOptions-style request: 0 = the process default, otherwise
// the explicit count (clamped to [1, kMaxShards]).
[[nodiscard]] int resolve_shard_count(int requested);

// Maps points to shard indices: `shards` equal-width vertical stripes over
// the region. Positions outside the region clamp to the nearest stripe, so
// every point has a home shard.
class ShardLayout {
 public:
  ShardLayout(const Region& region, int shards);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of(const Point& p) const;

 private:
  int shards_;
  double stripe_width_;  // meters; region width / shards
};

}  // namespace alphawan
