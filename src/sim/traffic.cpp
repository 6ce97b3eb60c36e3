#include "sim/traffic.hpp"

#include <algorithm>

#include "phy/airtime.hpp"

namespace alphawan {

std::vector<Transmission> concurrent_burst(std::vector<EndNode*> nodes,
                                           Seconds start, PacketIdSource& ids,
                                           std::uint32_t payload_bytes) {
  std::vector<Transmission> txs;
  txs.reserve(nodes.size());
  for (EndNode* node : nodes) {
    txs.push_back(node->make_transmission(start, payload_bytes, ids.next()));
  }
  return txs;
}

std::vector<Transmission> staggered_by_lock_on(std::vector<EndNode*> nodes,
                                               Seconds start, Seconds slot,
                                               PacketIdSource& ids,
                                               std::uint32_t payload_bytes) {
  std::vector<Transmission> txs;
  txs.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Choose the start time so that lock-on (= start + preamble) falls at
    // the slot boundary.
    const Seconds preamble = preamble_duration(nodes[i]->tx_params());
    const Seconds tx_start =
        start + slot * static_cast<double>(i + 1) - preamble;
    txs.push_back(
        nodes[i]->make_transmission(tx_start, payload_bytes, ids.next()));
  }
  return txs;
}

std::vector<Transmission> poisson_traffic(std::vector<EndNode*> nodes,
                                          Seconds window, double rate_per_node,
                                          Rng& rng, PacketIdSource& ids,
                                          double duty_cycle_limit,
                                          std::uint32_t payload_bytes) {
  std::vector<Transmission> txs;
  for (EndNode* node : nodes) {
    Seconds t{rng.exponential(rate_per_node)};
    while (t < window) {
      const Seconds allowed = node->next_allowed_start(duty_cycle_limit);
      const Seconds start = std::max(t, allowed);
      if (start >= window) break;
      txs.push_back(node->make_transmission(start, payload_bytes, ids.next()));
      t = start + Seconds{rng.exponential(rate_per_node)};
    }
  }
  sort_by_start(txs);
  return txs;
}

std::vector<Transmission> emulated_user_traffic(
    std::vector<EndNode*> nodes, std::size_t users_per_node, Seconds window,
    double rate_per_user, Rng& rng, PacketIdSource& ids,
    NodeId virtual_id_base, std::uint32_t payload_bytes) {
  std::vector<Transmission> txs;
  NodeId next_virtual = virtual_id_base;
  for (EndNode* node : nodes) {
    for (std::size_t u = 0; u < users_per_node; ++u) {
      const NodeId virtual_id = next_virtual++;
      Seconds t{rng.exponential(rate_per_user)};
      Seconds last_end{-1e18};
      Seconds last_airtime{0.0};
      while (t < window) {
        // Per-virtual-user duty-cycle pacing (each emulated user obeys the
        // regulatory limit independently, as in the paper's methodology).
        Seconds allowed{0.0};
        if (last_end > Seconds{0.0}) {
          allowed = last_end + last_airtime / 0.01 - last_airtime;
        }
        const Seconds start = std::max(t, allowed);
        if (start >= window) break;
        Transmission tx =
            node->make_transmission(start, payload_bytes, ids.next());
        tx.node = virtual_id;
        txs.push_back(tx);
        last_end = tx.end();
        last_airtime = time_on_air(tx.params, payload_bytes);
        t = start + Seconds{rng.exponential(rate_per_user)};
      }
    }
  }
  sort_by_start(txs);
  return txs;
}

void sort_by_start(std::vector<Transmission>& txs) {
  std::sort(txs.begin(), txs.end(),
            [](const Transmission& a, const Transmission& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.id < b.id;
            });
}

}  // namespace alphawan
