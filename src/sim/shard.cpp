#include "sim/shard.hpp"

#include <algorithm>
#include <cstdlib>

namespace alphawan {

int parse_shard_count(const char* text) {
  if (text == nullptr || *text == '\0') return 1;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1 || value > kMaxShards) {
    return 1;
  }
  return static_cast<int>(value);
}

int default_shard_count() {
  static const int count = parse_shard_count(std::getenv("ALPHAWAN_SHARDS"));
  return count;
}

int resolve_shard_count(int requested) {
  if (requested == 0) return default_shard_count();
  return std::clamp(requested, 1, kMaxShards);
}

ShardLayout::ShardLayout(const Region& region, int shards)
    : shards_(std::max(shards, 1)),
      stripe_width_(region.width.value() / static_cast<double>(shards_)) {}

int ShardLayout::shard_of(const Point& p) const {
  if (stripe_width_ <= 0.0) return 0;
  // Clamped as a double: converting a NaN or out-of-range double to int is
  // undefined. A NaN fails the >= test and lands in stripe 0.
  const double stripe = p.x.value() / stripe_width_;
  if (!(stripe >= 0.0)) return 0;
  return static_cast<int>(
      std::min(stripe, static_cast<double>(shards_ - 1)));
}

}  // namespace alphawan
