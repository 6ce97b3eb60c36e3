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

struct SlottedAlohaOptions {
  // Guard interval appended to the airtime to form the slot length.
  Seconds guard{2e-3};
  // Distributed-sync clock error: per-node offset ~ N(0, sync_jitter),
  // clamped to ±max_offset (beacon loss bounds are enforced in the real
  // protocol by re-synchronizing).
  Seconds sync_jitter{1e-3};
  Seconds max_offset{4e-3};
};

// Registry scheme "saloha": standard-LoRaWAN provisioning (node_side) plus
// per-DR slot alignment of every window's schedule.
class SlottedAlohaPolicy final : public NodeMacPolicy {
 public:
  // Throws std::invalid_argument naming the field on a negative guard,
  // sync_jitter or max_offset.
  explicit SlottedAlohaPolicy(SlottedAlohaOptions options = {},
                              StandardLorawanOptions node_side = {});

  [[nodiscard]] std::string_view name() const override { return "saloha"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override {
    StandardLorawanPolicy(node_side_).configure(deployment, network, rng);
  }
  [[nodiscard]] std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const override;

  [[nodiscard]] const SlottedAlohaOptions& options() const {
    return options_;
  }

 private:
  SlottedAlohaOptions options_;
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
