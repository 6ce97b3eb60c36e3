// Traffic generation: from the paper's micro-benchmark bursts (N nodes
// transmitting concurrently in micro time slots) to duty-cycled Poisson
// traffic for the at-scale experiments, including the paper's
// emulated-user trick (Sec. 5.2.1: one physical node emulates up to ten
// users in distinct time slots).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "net/end_node.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

inline constexpr std::uint32_t kDefaultPayloadBytes = 10;

// Monotonic packet-id source shared by generators.
class PacketIdSource {
 public:
  [[nodiscard]] PacketId next() { return next_++; }

 private:
  PacketId next_ = 1;
};

// All nodes start transmitting at `start` simultaneously (the paper's
// concurrency experiments schedule nodes on distinct channel/SF pairs so
// there are no RF collisions — only decoder contention).
[[nodiscard]] std::vector<Transmission> concurrent_burst(
    std::vector<EndNode*> nodes, Seconds start, PacketIdSource& ids,
    std::uint32_t payload_bytes = kDefaultPayloadBytes);

// Fig. 3 Scheme (b): the *final* preamble symbol (= lock-on instant) of
// node i lands in slot i, so dispatch order equals node order.
// ALPHAWAN-LINT-ALLOW(units-swappable-pair: start is an absolute
// instant, slot a duration — same unit, distinct documented roles)
// NOLINTNEXTLINE(bugprone-easily-swappable-parameters): start is an
// absolute instant, slot a duration — same unit, distinct roles.
[[nodiscard]] std::vector<Transmission> staggered_by_lock_on(
    std::vector<EndNode*> nodes, Seconds start, Seconds slot,
    PacketIdSource& ids, std::uint32_t payload_bytes = kDefaultPayloadBytes);

// Poisson uplink traffic over [0, window): each node transmits with the
// given mean rate (packets/second), respecting the duty-cycle limit.
// Suitable for the at-scale experiments (Figs. 4, 13, 21).
[[nodiscard]] std::vector<Transmission> poisson_traffic(
    std::vector<EndNode*> nodes, Seconds window, double rate_per_node, Rng& rng,
    PacketIdSource& ids, double duty_cycle_limit = 0.01,
    std::uint32_t payload_bytes = kDefaultPayloadBytes);

// The paper's emulated-user expansion: each physical node emulates
// `users_per_node` virtual users, each with its own (virtual) node id and
// Poisson schedule, all transmitted from the physical node's position and
// radio settings. Virtual ids start at `virtual_id_base`.
[[nodiscard]] std::vector<Transmission> emulated_user_traffic(
    std::vector<EndNode*> nodes, std::size_t users_per_node, Seconds window,
    double rate_per_user, Rng& rng, PacketIdSource& ids,
    NodeId virtual_id_base = 1'000'000,
    std::uint32_t payload_bytes = kDefaultPayloadBytes);

// Sort transmissions by start time (generators may interleave nodes).
void sort_by_start(std::vector<Transmission>& txs);

}  // namespace alphawan
