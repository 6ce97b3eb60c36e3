// Four canonical scenarios with checked-in golden digests
// (tests/golden/digests.txt). They are small but exercise the three loss
// regimes the paper separates: decoder contention, inter-network
// contention, and channel contention — the fourth under Strategy 8's
// misaligned plans, where most gateway events are front-end rejects. Any
// behavioural change to the radio pipeline, the channel model, or the RNG
// substream derivation shows up as a digest mismatch; docs/testing.md
// describes when and how to re-bless.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/digest.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {

struct CanonicalScenario {
  std::string name;
  std::uint64_t seed = 0;
  std::unique_ptr<Deployment> deployment;
  std::vector<Transmission> txs;
};

// Names of all canonical scenarios, in golden-file order.
[[nodiscard]] const std::vector<std::string>& canonical_names();

// Build a canonical scenario. Throws std::invalid_argument on an unknown
// name.
[[nodiscard]] CanonicalScenario make_canonical(std::string_view name);

// Build, run one window through a fresh ScenarioRunner, and digest the
// ordered fate stream.
[[nodiscard]] std::uint64_t canonical_digest(std::string_view name);

}  // namespace alphawan
