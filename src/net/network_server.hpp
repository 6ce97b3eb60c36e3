// The network server (ChirpStack counterpart): deduplicates uplinks
// forwarded by multiple gateways and stores the operational log that
// AlphaWAN's log parser and traffic estimator consume (per-node link
// quality and traffic are read from that log by core/log_parser.hpp).
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "net/gateway.hpp"

namespace alphawan {

class NetworkServer {
 public:
  explicit NetworkServer(NetworkId network) : network_(network) {}

  [[nodiscard]] NetworkId network() const { return network_; }

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
  std::vector<UplinkRecord> log_;
  std::set<PacketId> delivered_;
};

}  // namespace alphawan
