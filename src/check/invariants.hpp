// SimInvariants: the machine-checked guarantees behind the paper's loss
// attribution. Every claim in Figs. 4/12/13 is a sum over per-packet fates,
// so the harness asserts — per gateway window and per run — that:
//
//   * offered == delivered + Σ(loss causes), per network and in total;
//   * every gateway's outcomes obey FCFS dispatch into its finite decoder
//     pool (paper Appendix C), replayed from the window's table columns;
//   * MetricsCollector totals match the per-network sums.
//
// The checker reads outputs only, after a window's parallel region, so an
// attached checker never changes how (or how parallel) the window runs.
// Attach one with ScenarioRunner::set_invariants (tests), or export
// ALPHAWAN_CHECK=1 to arm a fail-fast process-wide checker in any binary
// (benches, examples) without code changes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "radio/rx_batch.hpp"
#include "sim/scenario.hpp"

namespace alphawan {

class SimInvariants {
 public:
  // When fail-fast, the first violation throws std::logic_error instead of
  // being collected — the mode the env-armed bench checker uses.
  void set_fail_fast(bool fail_fast) { fail_fast_ = fail_fast; }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  void clear();

  [[nodiscard]] std::size_t windows_checked() const {
    return windows_checked_;
  }

  // Verify one gateway's window output against the decoder contract: event
  // k is transmission tx_index[k] of `table`, received with outcomes[k].
  // FCFS is replayed from the table columns alone — every dispatched event
  // (a decoder-holding disposition or kDroppedDecoderBusy) in (lock_on,
  // packet) order, freeing holders whose end <= lock_on first — and
  //   * a packet holds a decoder exactly when fewer than `decoders` are held;
  //   * a refused packet's foreign_among_occupants says whether any holder
  //     belongs to another network;
  //   * packet ids are unique within the window.
  void check_gateway_window(const WindowTxTable& table,
                            std::span<const std::uint32_t> tx_index,
                            std::span<const RxOutcome> outcomes,
                            std::size_t decoders);
  // Verify a window result: per-network offered/delivered maps agree with
  // the fate stream, and delivered flags agree with causes.
  void check_window(const WindowResult& result);
  // Verify a metrics collector: totals equal per-network sums and
  // offered == delivered + Σ(losses) at every level.
  void check_metrics(const MetricsCollector& metrics);

 private:
  void violate(std::string message);

  std::vector<std::string> violations_;
  bool fail_fast_ = false;
  std::size_t windows_checked_ = 0;
};

// Process-wide fail-fast checker armed by the ALPHAWAN_CHECK environment
// variable (any value except empty/"0"). Returns nullptr when disabled.
// ScenarioRunner consults this at construction, so exporting the variable
// turns the harness on in every bench and example at ~zero cost otherwise.
[[nodiscard]] SimInvariants* invariants_from_env();

}  // namespace alphawan
