// The fixed table of coexistence schemes: every baseline is a
// (NodeMacPolicy, CapturePolicy) pair bound to a stable name, so benches,
// examples, and tests select schemes by string — via RunOptions, a CLI
// flag, or the ALPHAWAN_BASELINE environment variable — instead of
// hard-wiring per-baseline includes and calls.
//
// Schemes (docs/baselines.md), in the table's name order:
//   alphawan, cic, curvinglora, lmac, random-cp, saloha, ss5g, standard,
//   standard-no-adr
//
// Each scheme runs at its published parameters, which live as constants in
// its own .cpp. A new scheme is one row in registry.cpp plus its policy
// class. make(name, tuning) builds a fresh policy pair from the tuning
// value alone, and names() walks the name-sorted table, so every
// enumeration is reproducible.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/alphawan_policy.hpp"
#include "baselines/policy.hpp"

namespace alphawan {

// One instantiated scheme. Either side may be null: a null mac leaves
// provisioning and scheduling to the caller, a null capture runs the stock
// COTS pipeline.
struct BaselineScheme {
  std::string name;
  std::shared_ptr<const NodeMacPolicy> mac;
  std::shared_ptr<const CapturePolicy> capture;

  // Convenience pass-throughs treating the null sides as no-ops.
  void configure(Deployment& deployment, Network& network, Rng& rng) const {
    if (mac) mac->configure(deployment, network, rng);
  }
  [[nodiscard]] std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const {
    return mac ? mac->shape_window(std::move(txs), rng) : std::move(txs);
  }
};

// What a caller may tune across the whole eval grid: the node side every
// ADR-provisioned scheme shares, and the AlphaWAN pipeline's options.
struct BaselineTuning {
  StandardLorawanOptions node_side{};
  AlphaWanBaselineOptions alphawan{};
};

class BaselineRegistry {
 public:
  [[nodiscard]] static const BaselineRegistry& instance();

  // Instantiate a scheme. Throws std::invalid_argument naming the unknown
  // scheme (and listing the known ones) on a bad name.
  [[nodiscard]] BaselineScheme make(
      std::string_view name, const BaselineTuning& tuning = {}) const;

  [[nodiscard]] bool contains(std::string_view name) const;
  // Scheme names in lexicographic order (deterministic enumeration).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BaselineRegistry() = default;
};

// Parse a comma-separated scheme list ("lmac,cic,saloha"). Whitespace
// around entries is ignored; an empty string yields an empty list. Throws
// std::invalid_argument on a name that is not in the table.
[[nodiscard]] std::vector<std::string> parse_baseline_list(
    std::string_view text);

// The ALPHAWAN_BASELINE selection (mirrors ALPHAWAN_SHARDS): a
// comma-separated scheme list restricts benches/examples to those schemes;
// unset or empty keeps `fallback`. Unknown names throw, listing the known
// schemes.
[[nodiscard]] std::vector<std::string> baselines_from_env(
    std::vector<std::string> fallback);

}  // namespace alphawan
