// Packet-fate classification and metric aggregation. Every lost packet is
// attributed to a cause, which is what lets the Fig. 4 / Fig. 13c loss
// breakdowns be direct queries on the simulation rather than guesses.
//
// The collector aggregates in a streaming fashion: totals, per-cause and
// per-data-rate counters, and a deduplicated served-node set are updated per
// fate, and the fate itself is not kept. Memory is O(live state) — networks
// + distinct served nodes — never O(packet history), which is what lets a
// million-user city run (bench_city_1m) record every packet
// (docs/sharding.md).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "phy/lora_params.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

enum class LossCause : std::uint8_t {
  kDelivered,
  kDecoderContentionIntra,  // dropped at lock-on, all occupants own-network
  kDecoderContentionInter,  // dropped at lock-on, foreign packets held decoders
  kChannelContentionIntra,  // RF collision with an own-network packet
  kChannelContentionInter,  // RF collision with a foreign packet
  kOther,                   // low SNR, out of range, front-end rejected
};

[[nodiscard]] std::string_view loss_cause_name(LossCause cause);

struct PacketFate {
  PacketId packet = 0;
  NodeId node = kInvalidNode;
  NetworkId network = 0;
  bool delivered = false;
  LossCause cause = LossCause::kOther;
  std::uint32_t payload_bytes = 0;
  DataRate dr = DataRate::kDR0;  // data rate the packet used
};

// A packet's outcomes at the gateways of its own network, folded into one
// byte: classification reads only whether some outcome was a delivery, a
// decoder-busy drop (foreign occupant or not) or a collision (foreign
// interferer or not), so OR-ing each outcome's bits — in any order — keeps
// everything classify_packet needs.
inline constexpr std::uint8_t kFoldDelivered = 1U << 0;
inline constexpr std::uint8_t kFoldDecoderBusy = 1U << 1;
inline constexpr std::uint8_t kFoldDecoderBusyForeign = 1U << 2;
inline constexpr std::uint8_t kFoldCollision = 1U << 3;
inline constexpr std::uint8_t kFoldCollisionForeign = 1U << 4;

[[nodiscard]] inline std::uint8_t fold_outcome(const RxOutcome& out) {
  switch (out.disposition) {
    case RxDisposition::kDelivered:
      return kFoldDelivered;
    case RxDisposition::kDroppedDecoderBusy:
      return out.foreign_among_occupants
                 ? kFoldDecoderBusy | kFoldDecoderBusyForeign
                 : kFoldDecoderBusy;
    case RxDisposition::kDroppedCollision:
      return out.foreign_interferer ? kFoldCollision | kFoldCollisionForeign
                                    : kFoldCollision;
    default:
      return 0;
  }
}

// Classify a packet from its folded own-network outcomes. Delivery by any
// gateway wins; otherwise the "most actionable" cause is chosen: decoder
// contention > channel contention > other. Inline: this runs once per
// offered packet inside the window merge loop.
[[nodiscard]] inline PacketFate classify_packet(const Transmission& tx,
                                                std::uint8_t folded) {
  PacketFate fate;
  fate.packet = tx.id;
  fate.node = tx.node;
  fate.network = tx.network;
  fate.payload_bytes = tx.payload_bytes;
  fate.dr = sf_to_dr(tx.params.sf);
  if ((folded & kFoldDelivered) != 0) {
    fate.delivered = true;
    fate.cause = LossCause::kDelivered;
  } else if ((folded & kFoldDecoderBusy) != 0) {
    fate.cause = (folded & kFoldDecoderBusyForeign) != 0
                     ? LossCause::kDecoderContentionInter
                     : LossCause::kDecoderContentionIntra;
  } else if ((folded & kFoldCollision) != 0) {
    fate.cause = (folded & kFoldCollisionForeign) != 0
                     ? LossCause::kChannelContentionInter
                     : LossCause::kChannelContentionIntra;
  } else {
    fate.cause = LossCause::kOther;
  }
  return fate;
}

// Classify a packet from its outcomes at the gateways OF ITS OWN NETWORK:
// fold, then classify.
[[nodiscard]] inline PacketFate classify_packet(
    const Transmission& tx, std::span<const RxOutcome> own_gateway_outcomes) {
  std::uint8_t folded = 0;
  for (const auto& out : own_gateway_outcomes) folded |= fold_outcome(out);
  return classify_packet(tx, folded);
}

[[nodiscard]] inline PacketFate classify_packet(
    const Transmission& tx, std::initializer_list<RxOutcome> outcomes) {
  return classify_packet(
      tx, std::span<const RxOutcome>(outcomes.begin(), outcomes.size()));
}

class MetricsCollector {
 public:
  void record(const PacketFate& fate);

  [[nodiscard]] std::size_t offered(NetworkId network) const;
  [[nodiscard]] std::size_t delivered(NetworkId network) const;
  [[nodiscard]] std::size_t total_offered() const { return total_offered_; }
  [[nodiscard]] std::size_t total_delivered() const { return total_delivered_; }

  [[nodiscard]] double prr(NetworkId network) const;
  [[nodiscard]] double total_prr() const;

  // Fraction of OFFERED packets lost to each cause (sums with PRR to 1).
  [[nodiscard]] double loss_fraction(LossCause cause) const;
  [[nodiscard]] double loss_fraction(NetworkId network, LossCause cause) const;

  // Exact loss counts per cause (what the invariant checker sums against
  // offered/delivered — fractions would hide off-by-one bugs in rounding).
  [[nodiscard]] std::size_t losses(LossCause cause) const {
    return total_causes_.get(cause);
  }
  [[nodiscard]] std::size_t losses(NetworkId network, LossCause cause) const;

  // Ids of every network with at least one recorded fate.
  [[nodiscard]] std::vector<NetworkId> networks() const;

  // Delivered application bytes (for throughput = bytes / window).
  [[nodiscard]] std::size_t delivered_bytes(NetworkId network) const;
  [[nodiscard]] std::size_t total_delivered_bytes() const {
    return total_delivered_bytes_;
  }

  // Distinct nodes with >= 1 delivered packet (the paper's "concurrent
  // users supported" when each node offers one packet).
  [[nodiscard]] std::size_t served_nodes(NetworkId network) const;
  [[nodiscard]] std::size_t total_served_nodes() const;

  // Delivered packets that used `dr`, across all networks (Fig. 13d
  // spectrum-utilization shares — previously recomputed from the full fate
  // history).
  [[nodiscard]] std::size_t delivered_by_dr(DataRate dr) const {
    return delivered_by_dr_[static_cast<std::size_t>(dr_value(dr))];
  }

  void clear();

 private:
  struct PerNetwork {
    NetworkId id = 0;
    std::size_t offered = 0;
    std::size_t delivered = 0;
    std::size_t delivered_bytes = 0;
    Tally<LossCause> causes;
    // Distinct served nodes in O(distinct) memory: a sorted unique base
    // plus an unsorted tail of recent deliveries, folded in (record() side
    // or lazily by the queries) once the tail outgrows the base — amortized
    // O(log n) per delivery instead of per-call map inserts.
    mutable std::vector<NodeId> served_sorted;
    mutable std::vector<NodeId> served_tail;
  };

  // Flat per-network table (deployments have a handful of networks): a
  // short linear scan beats a std::map node walk in the per-packet
  // record() path.
  [[nodiscard]] PerNetwork& slot(NetworkId network);
  [[nodiscard]] const PerNetwork* find(NetworkId network) const;
  static void fold_served(const PerNetwork& net);

  std::vector<PerNetwork> per_network_;
  std::size_t total_offered_ = 0;
  std::size_t total_delivered_ = 0;
  std::size_t total_delivered_bytes_ = 0;
  Tally<LossCause> total_causes_;
  std::array<std::size_t, kNumDataRates> delivered_by_dr_{};
};

}  // namespace alphawan
