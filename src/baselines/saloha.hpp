// Baseline: slotted-ALOHA overlay on LoRaWAN (Polonelli et al. — a TDMA
// grid laid over stock LoRaWAN with *distributed* slot synchronization:
// nodes align to slot boundaries using a shared beacon, but each node's
// local clock carries a bounded sync error, so alignment is imperfect).
//
// Model: each data-rate class has its own slot grid — slot length = the
// packet airtime of that radio setting plus a guard interval — anchored at
// simulation time 0. A node delays every transmission to the next slot
// boundary as seen by its *local* clock, which is offset from true time by
// a per-node draw (zero-mean, clamped). Aligned transmissions within a DR
// class either collide fully or not at all, removing partial overlaps —
// the scheme's whole benefit, and one that does nothing for decoder
// contention (more simultaneous slot-aligned packets, same decoder pool).
#pragma once

#include "baselines/standard_lorawan.hpp"

namespace alphawan {

// Registry scheme "saloha": standard-LoRaWAN provisioning (node_side) plus
// per-DR slot alignment of every window's schedule.
class SlottedAlohaPolicy final : public NodeMacPolicy {
 public:
  explicit SlottedAlohaPolicy(StandardLorawanOptions node_side = {})
      : node_side_(node_side) {}

  [[nodiscard]] std::string_view name() const override { return "saloha"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override {
    StandardLorawanPolicy(node_side_).configure(deployment, network, rng);
  }
  [[nodiscard]] std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const override;

 private:
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
