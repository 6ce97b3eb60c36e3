#include "core/log_parser.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace alphawan {
namespace {

// (sort key, log index): sorting these keeps each key's records in log
// order.
using Keyed = std::pair<std::uint64_t, std::size_t>;

}  // namespace

// One sort by (node, gateway, log index) stands in for a tree lookup per
// record. Each (node, gateway) run folds std::max over its SNRs in log
// order, as the per-record update did, so ties and signed zeros keep the
// bits of the first record seen.
LinkEstimates parse_links(std::span<const UplinkRecord> log,
                          const std::map<NodeId, Dbm>& tx_power_of) {
  std::vector<Keyed> order(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    order[i] = {(std::uint64_t{log[i].node} << 32) | log[i].gateway, i};
  }
  std::sort(order.begin(), order.end());

  LinkEstimates estimates;
  std::vector<PacketId> packets;
  std::size_t k = 0;
  while (k < order.size()) {
    const std::uint64_t node_key = order[k].first >> 32;
    LinkEstimates::NodeLinks node;
    packets.clear();
    while (k < order.size() && order[k].first >> 32 == node_key) {
      const std::uint64_t key = order[k].first;
      Db best = log[order[k].second].snr;
      for (; k < order.size() && order[k].first == key; ++k) {
        const UplinkRecord& rec = log[order[k].second];
        best = std::max(best, rec.snr);
        packets.push_back(rec.packet);
      }
      node.gateway_snr.emplace_hint(node.gateway_snr.end(),
                                    static_cast<GatewayId>(key), best);
    }
    std::sort(packets.begin(), packets.end());
    node.packets = static_cast<std::size_t>(
        std::unique(packets.begin(), packets.end()) - packets.begin());
    const auto id = static_cast<NodeId>(node_key);
    const auto power_it = tx_power_of.find(id);
    if (power_it != tx_power_of.end()) {
      node.observed_tx_power = power_it->second;
    }
    estimates.nodes.emplace_hint(estimates.nodes.end(), id, std::move(node));
  }
  return estimates;
}

std::map<NodeId, std::vector<std::size_t>> per_window_counts(
    std::span<const UplinkRecord> log, Seconds window_len,
    std::size_t num_windows) {
  if (!(window_len > Seconds{0.0}) || !std::isfinite(window_len.value())) {
    throw std::invalid_argument(
        "per_window_counts: window_len must be positive and finite, got " +
        std::to_string(window_len.value()));
  }
  // Only the first record of each packet counts (the others are the same
  // uplink heard by more gateways): sort by (packet, log index) and keep
  // the head of each run.
  std::vector<Keyed> order(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) order[i] = {log[i].packet, i};
  std::sort(order.begin(), order.end());

  std::vector<std::pair<NodeId, std::size_t>> hits;  // (node, window)
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && order[k].first == order[k - 1].first) continue;
    const UplinkRecord& rec = log[order[k].second];
    if (rec.timestamp < Seconds{0.0}) continue;
    // The negated test also rejects NaN and infinite indices, before the
    // cast. Any num_windows whose counts can be allocated is exact as a
    // double, so the cast index is below it.
    const double w = rec.timestamp / window_len;
    if (!(w < static_cast<double>(num_windows))) continue;
    hits.emplace_back(rec.node, static_cast<std::size_t>(w));
  }
  std::sort(hits.begin(), hits.end());

  std::map<NodeId, std::vector<std::size_t>> series;
  for (std::size_t k = 0; k < hits.size();) {
    std::vector<std::size_t> counts(num_windows, 0);
    const NodeId node = hits[k].first;
    for (; k < hits.size() && hits[k].first == node; ++k) {
      ++counts[hits[k].second];
    }
    series.emplace_hint(series.end(), node, std::move(counts));
  }
  return series;
}

}  // namespace alphawan
