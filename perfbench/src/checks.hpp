// Correctness checks the benchmark runs on every operation it times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

// Packet conservation for one window: every offered packet has exactly one
// fate, and offered = delivered + the sum of MetricsCollector::losses over
// every loss cause. `window_metrics` holds this window's fates only.
// Returns an empty string when the window conserves packets, else what
// broke.
[[nodiscard]] std::string check_conservation(
    std::size_t offered_txs, const alphawan::WindowResult& result,
    const alphawan::MetricsCollector& window_metrics);

// Per-window fate digests of one (workload, seed), keyed by window label.
// Stored between runs so that two runs of one build on one seed can be
// compared; the file holds one "<label> <16 hex digits>" line per window.
using DigestMap = std::map<std::string, std::uint64_t>;

// Missing or unreadable files read as an empty map.
[[nodiscard]] DigestMap read_digests(const std::string& path);
[[nodiscard]] bool write_digests(const std::string& path,
                                 const DigestMap& digests);

// Labels present in both maps whose digests differ, one message each.
[[nodiscard]] std::vector<std::string> digest_mismatches(
    const DigestMap& stored, const DigestMap& fresh);

}  // namespace perfbench
