#include "sim/metrics.hpp"

#include <algorithm>

namespace alphawan {

std::string_view loss_cause_name(LossCause cause) {
  switch (cause) {
    case LossCause::kDelivered: return "delivered";
    case LossCause::kDecoderContentionIntra: return "decoder-contention-intra";
    case LossCause::kDecoderContentionInter: return "decoder-contention-inter";
    case LossCause::kChannelContentionIntra: return "channel-contention-intra";
    case LossCause::kChannelContentionInter: return "channel-contention-inter";
    case LossCause::kOther: return "other";
  }
  return "?";
}

MetricsCollector::PerNetwork& MetricsCollector::slot(NetworkId network) {
  for (auto& net : per_network_) {
    if (net.id == network) return net;
  }
  per_network_.emplace_back();
  per_network_.back().id = network;
  return per_network_.back();
}

const MetricsCollector::PerNetwork* MetricsCollector::find(
    NetworkId network) const {
  for (const auto& net : per_network_) {
    if (net.id == network) return &net;
  }
  return nullptr;
}

namespace {
// Fold the tail once it outgrows a quarter of the base (but let small
// tails batch up): keeps the amortized per-delivery cost logarithmic
// while the resident set stays exactly the distinct nodes.
constexpr std::size_t kServedFoldMin = 64;
}  // namespace

void MetricsCollector::fold_served(const PerNetwork& net) {
  if (net.served_tail.empty()) return;
  std::sort(net.served_tail.begin(), net.served_tail.end());
  const auto mid = static_cast<std::ptrdiff_t>(net.served_sorted.size());
  net.served_sorted.insert(net.served_sorted.end(), net.served_tail.begin(),
                           net.served_tail.end());
  std::inplace_merge(net.served_sorted.begin(),
                     net.served_sorted.begin() + mid, net.served_sorted.end());
  net.served_sorted.erase(
      std::unique(net.served_sorted.begin(), net.served_sorted.end()),
      net.served_sorted.end());
  net.served_tail.clear();
}

void MetricsCollector::record(const PacketFate& fate) {
  auto& net = slot(fate.network);
  ++net.offered;
  ++total_offered_;
  if (fate.delivered) {
    ++net.delivered;
    ++total_delivered_;
    net.delivered_bytes += fate.payload_bytes;
    total_delivered_bytes_ += fate.payload_bytes;
    ++delivered_by_dr_[static_cast<std::size_t>(dr_value(fate.dr))];
    net.served_tail.push_back(fate.node);
    if (net.served_tail.size() >=
        std::max(kServedFoldMin, net.served_sorted.size() / 4)) {
      fold_served(net);
    }
  } else {
    net.causes.add(fate.cause);
    total_causes_.add(fate.cause);
  }
}

std::size_t MetricsCollector::offered(NetworkId network) const {
  const PerNetwork* net = find(network);
  return net == nullptr ? 0 : net->offered;
}

std::size_t MetricsCollector::delivered(NetworkId network) const {
  const PerNetwork* net = find(network);
  return net == nullptr ? 0 : net->delivered;
}

double MetricsCollector::prr(NetworkId network) const {
  const std::size_t off = offered(network);
  return off == 0 ? 0.0
                  : static_cast<double>(delivered(network)) /
                        static_cast<double>(off);
}

double MetricsCollector::total_prr() const {
  return total_offered_ == 0 ? 0.0
                             : static_cast<double>(total_delivered_) /
                                   static_cast<double>(total_offered_);
}

double MetricsCollector::loss_fraction(LossCause cause) const {
  return total_offered_ == 0
             ? 0.0
             : static_cast<double>(total_causes_.get(cause)) /
                   static_cast<double>(total_offered_);
}

double MetricsCollector::loss_fraction(NetworkId network,
                                       LossCause cause) const {
  const PerNetwork* net = find(network);
  if (net == nullptr || net->offered == 0) return 0.0;
  return static_cast<double>(net->causes.get(cause)) /
         static_cast<double>(net->offered);
}

std::size_t MetricsCollector::losses(NetworkId network, LossCause cause) const {
  const PerNetwork* net = find(network);
  return net == nullptr ? 0 : net->causes.get(cause);
}

std::vector<NetworkId> MetricsCollector::networks() const {
  std::vector<NetworkId> ids;
  ids.reserve(per_network_.size());
  for (const auto& net : per_network_) ids.push_back(net.id);
  std::sort(ids.begin(), ids.end());  // map-era callers expect ascending ids
  return ids;
}

std::size_t MetricsCollector::delivered_bytes(NetworkId network) const {
  const PerNetwork* net = find(network);
  return net == nullptr ? 0 : net->delivered_bytes;
}

std::size_t MetricsCollector::served_nodes(NetworkId network) const {
  const PerNetwork* net = find(network);
  if (net == nullptr) return 0;
  fold_served(*net);
  return net->served_sorted.size();
}

std::size_t MetricsCollector::total_served_nodes() const {
  std::size_t total = 0;
  for (const auto& net : per_network_) {
    fold_served(net);
    total += net.served_sorted.size();
  }
  return total;
}

void MetricsCollector::clear() { *this = MetricsCollector{}; }

}  // namespace alphawan
