// The network server (ChirpStack counterpart): deduplicates uplinks
// forwarded by multiple gateways and stores the operational log that
// AlphaWAN's log parser and traffic estimator consume (per-node link
// quality and traffic are read from that log by core/log_parser.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "net/gateway.hpp"

namespace alphawan {

// The channel plan this server last adopted from the Master, tagged with
// the plan epoch it was computed at (see core/master.hpp). Kept as
// last-known-good: adopt_plan never rolls back to an older epoch.
struct AdoptedPlan {
  std::uint32_t epoch = 0;
  Hz frequency_offset{0.0};
  std::vector<Channel> channels;
};

class NetworkServer {
 public:
  explicit NetworkServer(NetworkId network) : network_(network) {}

  [[nodiscard]] NetworkId network() const { return network_; }

  // Adopt a Master-assigned plan. Stale epochs (older than the plan in
  // force) are ignored so a plan computed before a newer one can never
  // overwrite it; returns whether it was applied.
  bool adopt_plan(std::uint32_t epoch, Hz frequency_offset,
                  std::vector<Channel> channels);
  [[nodiscard]] bool has_plan() const { return plan_.has_value(); }
  // Last-known-good plan; valid only when has_plan().
  [[nodiscard]] const AdoptedPlan& plan() const { return *plan_; }
  [[nodiscard]] std::uint32_t plan_epoch() const {
    return plan_ ? plan_->epoch : 0;
  }
  [[nodiscard]] std::size_t stale_plans_ignored() const {
    return stale_plans_ignored_;
  }

  // Ingest one window's uplink records from all gateways. Duplicate
  // receptions of the same packet by several gateways count once.
  void ingest(const std::vector<UplinkRecord>& records);

  // Unique packets delivered so far.
  [[nodiscard]] std::size_t delivered_packets() const {
    return delivered_.size();
  }

  // The raw operational log (every reception, including duplicates).
  [[nodiscard]] const std::vector<UplinkRecord>& log() const { return log_; }

  void clear();

 private:
  NetworkId network_;
  std::optional<AdoptedPlan> plan_;
  std::size_t stale_plans_ignored_ = 0;
  std::vector<UplinkRecord> log_;
  std::set<PacketId> delivered_;
};

}  // namespace alphawan
