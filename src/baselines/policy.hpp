// Pluggable node-side MAC policy: everything a coexistence scheme decides
// on the transmitter side — gateway/node provisioning (channel plans, data
// rates) and per-window schedule shaping (deferral, slotting).
//
// Together with radio/capture_policy.hpp this is the whole surface a new
// baseline needs: a NodeMacPolicy for when/where nodes transmit, a
// CapturePolicy for how overlapping receptions resolve at the gateway, and
// a row in the scheme table (baselines/registry.cpp) binding the pair to a
// name.
// See docs/baselines.md for the add-a-scheme walkthrough.
//
// Determinism contract: policies hold no mutable state, and every random
// decision draws either from the caller-provided Rng (sequential MAC
// decisions, replayed by seeding the same stream) or from named substreams
// derived from it (per-node identities that must survive reordering).
#pragma once

#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "radio/transmission.hpp"
#include "sim/topology.hpp"

namespace alphawan {

class NodeMacPolicy {
 public:
  virtual ~NodeMacPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Provision the network the way this scheme's operator would: gateway
  // channel configurations and node channels / data rates / powers.
  // Called once per experiment, before traffic generation, so the shaped
  // node configs feed airtime and traffic models. Default: leave the
  // deployment untouched.
  virtual void configure(Deployment& deployment, Network& network,
                         Rng& rng) const;

  // Rewrite one window's schedule (same packets, possibly moved starts):
  // carrier-sense deferral, slot alignment, backoff. Runs on the global
  // transmission list before ScenarioRunner::run_window, so shard and
  // thread counts cannot influence it. Default: identity.
  [[nodiscard]] virtual std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const;

 protected:
  NodeMacPolicy() = default;
  NodeMacPolicy(const NodeMacPolicy&) = default;
  NodeMacPolicy& operator=(const NodeMacPolicy&) = default;
};

// Schemes that take options validate them with this: throws
// std::invalid_argument(message), which names the field, unless `ok`.
void require_option(bool ok, const char* message);

}  // namespace alphawan
