// Shared coarse-frequency event index for gateway-side capture policies
// (CIC, SS5G, CurvingLoRa). Buckets one window's events by coarse
// frequency and sorts each bucket by start time, so finding a packet's
// co-channel time-overlappers is a windowed scan instead of O(n) per
// packet. Built per resolve() call — capture policies are stateless by
// contract (radio/capture_policy.hpp), so the index lives on the stack of
// the concurrent per-gateway task that needs it. Reads only the columnar
// CaptureContext, never an RxEvent struct, so the radio can run policies
// without materializing events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "phy/overlap.hpp"
#include "radio/capture_policy.hpp"

namespace alphawan {

class OverlapIndex {
 public:
  explicit OverlapIndex(const CaptureContext& ctx) : ctx_(ctx) {
    for (std::size_t i = 0; i < ctx.count; ++i) {
      by_bucket_[bucket_of(ctx.channel[i].center)].push_back(i);
    }
    for (auto& [bucket, indices] : by_bucket_) {
      std::sort(indices.begin(), indices.end(),
                [&](std::size_t a, std::size_t b) {
                  return ctx.start[a] < ctx.start[b];
                });
      Seconds max_dur{0.0};
      for (const auto idx : indices) {
        max_dur = std::max(max_dur, ctx.end[idx] - ctx.start[idx]);
      }
      longest_[bucket] = max_dur;
    }
  }

  // Visit every event j != i overlapping event i in time with co-channel
  // spectral overlap (overlap_ratio >= kDetectOverlapThreshold). The
  // visitor returns false to stop the scan early.
  template <typename Visitor>
  void for_each_cochannel_overlap(std::size_t i, Visitor&& visit) const {
    const Seconds ev_start = ctx_.start[i];
    const Seconds ev_end = ctx_.end[i];
    const Channel& ev_channel = ctx_.channel[i];
    const std::int64_t center = bucket_of(ev_channel.center);
    for (std::int64_t bucket = center - 1; bucket <= center + 1; ++bucket) {
      const auto it = by_bucket_.find(bucket);
      if (it == by_bucket_.end()) continue;
      const auto& indices = it->second;
      const auto first = std::lower_bound(
          indices.begin(), indices.end(), ev_start - longest_.at(bucket),
          [&](std::size_t idx, Seconds t) { return ctx_.start[idx] < t; });
      for (auto jt = first; jt != indices.end(); ++jt) {
        const std::size_t j = *jt;
        if (ctx_.start[j] >= ev_end) break;
        if (j == i) continue;
        // Transmission::overlaps_in_time over the columns.
        if (!(ev_start < ctx_.end[j] && ctx_.start[j] < ev_end)) continue;
        if (overlap_ratio(ctx_.channel[j], ev_channel) <
            kDetectOverlapThreshold) {
          continue;
        }
        if (!visit(j)) return;
      }
    }
  }

 private:
  static std::int64_t bucket_of(Hz center) {
    return static_cast<std::int64_t>(center / kChannelSpacing);
  }

  const CaptureContext& ctx_;
  std::map<std::int64_t, std::vector<std::size_t>> by_bucket_;
  std::map<std::int64_t, Seconds> longest_;
};

}  // namespace alphawan
