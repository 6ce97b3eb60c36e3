// Deterministic replay of a single packet's event chain.
//
// Because fast-fading draws are keyed by (runner seed, gateway, packet) —
// see packet_link_rng — a packet's reception at every gateway can be
// recomputed in isolation, bit-for-bit identical to the full run, without
// mutating any simulation state. This is the debugging tool for "why was
// packet N lost?": it lists, per gateway that could hear the packet, the
// received power, SNR, and disposition, plus the resulting fate.
//
// The replay runs a copy of each gateway's radio as attached: a capture
// policy the last run_window installed (RunOptions::capture_policy) takes
// part, one never installed does not.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace alphawan {

// What one gateway saw of the replayed packet.
struct GatewayObservation {
  GatewayId gateway = kInvalidGateway;
  NetworkId network = 0;
  bool own_network = false;  // gateway belongs to the packet's network
  bool pruned = false;       // below the runner's prune floor at this gateway
  Dbm rx_power{-400.0};
  Db snr{-400.0};
  RxDisposition disposition = RxDisposition::kNotDetected;
  int chain_channel = -1;
};

struct ReplayReport {
  bool found = false;  // the packet id exists in the window
  Transmission tx{};
  std::vector<GatewayObservation> observations;
  PacketFate fate{};  // classification against own-network gateways

  // Human-readable multi-line rendering for CLI debugging.
  [[nodiscard]] std::string to_string() const;
};

// Re-run `packet`'s event chain through every gateway of `deployment`,
// reproducing the draws a ScenarioRunner with the same `seed` made.
// Radios are copied before processing, so decoder pools, servers, and
// metrics are untouched.
[[nodiscard]] ReplayReport replay_packet(Deployment& deployment,
                                         std::uint64_t seed,
                                         const std::vector<Transmission>& txs,
                                         PacketId packet);

}  // namespace alphawan
