// AlphaWAN's ChirpStack-side log parser (paper Sec. 4.3.3): interprets the
// uplink metadata recorded by the network server (receiving channel,
// timestamp, SNR per gateway) into user-gateway link profiles and
// per-window traffic series — the raw CP input.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "net/gateway.hpp"

namespace alphawan {

// Best observed SNR per (node, gateway), plus the settings the node used.
struct LinkEstimates {
  struct NodeLinks {
    std::map<GatewayId, Db> gateway_snr;
    Dbm observed_tx_power = kDefaultTxPower;  // power during measurement
    std::size_t packets = 0;
  };
  std::map<NodeId, NodeLinks> nodes;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
};

// Parse link profiles from a raw uplink log. `tx_power_of` supplies each
// node's transmit power during the logged period (the server knows the
// configs it pushed); nodes missing from the map default to 14 dBm.
[[nodiscard]] LinkEstimates parse_links(
    std::span<const UplinkRecord> log,
    const std::map<NodeId, Dbm>& tx_power_of = {});

// Per-window delivered-packet counts per node: series[node][w] = packets
// in window w. Window w covers [w*window_len, (w+1)*window_len). A packet
// counts once, at its first record; records before 0, past the horizon or
// with a NaN timestamp count nowhere. Throws std::invalid_argument unless
// window_len is positive and finite.
[[nodiscard]] std::map<NodeId, std::vector<std::size_t>> per_window_counts(
    std::span<const UplinkRecord> log, Seconds window_len,
    std::size_t num_windows);

}  // namespace alphawan
