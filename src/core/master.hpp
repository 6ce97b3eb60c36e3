// The AlphaWAN Master node (paper Sec. 4.3.2): a centralized spectrum
// coordinator. Operators register before deploying; the Master divides the
// shared spectrum into frequency-misaligned sub-channel plans and assigns
// one per operator, keeping an up-to-date occupancy record.
//
// Misalignment policy: with a desired pairwise overlap ratio rho, adjacent
// plans are offset by delta = (1 - rho) * 125 kHz. The 200 kHz grid
// spacing bounds how many distinct plans fit (floor(spacing / delta));
// when more operators register than fit, the Master compresses delta to
// spacing / N, trading overlap for operator count — exactly the "optimal
// misalignment depends on the number of coexisting networks" tradeoff.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "backhaul/bus.hpp"
#include "backhaul/master_protocol.hpp"
#include "net/network_server.hpp"
#include "phy/band_plan.hpp"

namespace alphawan {

struct MasterConfig {
  Spectrum spectrum{};
  // Desired pairwise channel overlap between adjacent operator plans.
  double desired_overlap = 0.4;
  // Expected number of coexisting networks in the region (used to pick
  // the misalignment before everyone has registered).
  int expected_networks = 2;
  // Extra offset applied to every plan — used to keep AlphaWAN adopters
  // misaligned from legacy networks that squat on the standard grid
  // (partial-adoption deployments, Fig. 14).
  Hz base_offset{0.0};
};

class MasterNode {
 public:
  // Throws std::invalid_argument when desired_overlap is not in [0, 0.95]
  // (NaN included) or expected_networks < 1.
  explicit MasterNode(MasterConfig config);

  // Protocol handlers (pure logic; transport-agnostic).
  [[nodiscard]] RegisterAckMsg handle_register(const RegisterMsg& msg);
  [[nodiscard]] MasterMessage handle_plan_request(const PlanRequestMsg& msg);

  // The frequency offset assigned to an operator (registered order).
  [[nodiscard]] std::optional<Hz> offset_of(NetworkId operator_id) const;
  // Effective per-step offset under the current policy.
  [[nodiscard]] Hz plan_offset_step() const;
  // Worst-case overlap ratio between any two assigned plans.
  [[nodiscard]] double effective_overlap() const;

  [[nodiscard]] std::size_t registered_operators() const {
    return slots_.size();
  }
  // The current plan epoch. Bumped on every NEW registration (duplicate
  // registrations are idempotent); every PlanAssignMsg is stamped with the
  // epoch it was computed at, and receivers ignore stale epochs.
  [[nodiscard]] std::uint32_t current_epoch() const { return epoch_; }
  [[nodiscard]] const MasterConfig& config() const { return config_; }

 private:
  MasterConfig config_;
  std::uint32_t epoch_ = 1;
  std::map<NetworkId, int> slots_;  // operator -> misalignment slot
};

// Bus-attached Master service: decodes framed protocol messages addressed
// to endpoint "master" and replies to the sender (the Fig. 17 latency path
// and the integration tests exercise this).
class MasterService {
 public:
  MasterService(MasterNode& master, MessageBus& bus);

  [[nodiscard]] static EndpointId endpoint() { return "master"; }
  [[nodiscard]] std::size_t requests_served() const {
    return requests_served_;
  }
  // Protocol-level dedup telemetry: re-registrations of an already-known
  // operator (retry duplicates); each is answered idempotently.
  [[nodiscard]] std::size_t duplicate_registrations() const {
    return duplicate_registrations_;
  }

 private:
  void on_message(const EndpointId& from, std::vector<std::uint8_t> payload);

  MasterNode& master_;
  MessageBus& bus_;
  std::size_t requests_served_ = 0;
  std::size_t duplicate_registrations_ = 0;
};

// Statistics of one operator's exchange with the Master; folded into the
// chaos-suite replay digest, so every counter must stay deterministic.
struct OperatorClientStats {
  std::size_t sends = 0;
  std::size_t timeouts = 0;
  std::size_t retries = 0;
  std::size_t gave_up = 0;
  std::size_t duplicates_ignored = 0;
  std::size_t stale_plans_ignored = 0;
  std::size_t malformed_ignored = 0;
  std::size_t errors_received = 0;
};

// The operator-side agent of the Sec. 4.3.2 exchange, hardened for a
// faulty backhaul: register -> plan-request with per-attempt timeouts,
// exponential backoff (RetryPolicy), and epoch-based dedup. The last
// successfully applied plan is retained as last-known-good; a delayed or
// duplicated assignment from a stale epoch never overwrites a newer one.
// When constructed with a NetworkServer, every accepted plan is also
// adopted there (same epoch guard).
//
// Lifetime: timers capture `this` on the bus's engine; keep the client
// alive until the engine drains (the destructor detaches the bus handler
// and invalidates pending timers, but events already queued still run).
class OperatorClient {
 public:
  OperatorClient(NetworkId operator_id, std::string operator_name,
                 MessageBus& bus, RetryPolicy policy = RetryPolicy{},
                 NetworkServer* server = nullptr);
  ~OperatorClient();
  OperatorClient(const OperatorClient&) = delete;
  OperatorClient& operator=(const OperatorClient&) = delete;

  [[nodiscard]] EndpointId endpoint() const;

  // Start (or restart) the full exchange: register, then request a plan
  // for `spectrum`. Safe to call while an exchange is in flight (the old
  // exchange's timers are invalidated).
  void sync(const Spectrum& spectrum, std::uint16_t requested_channels);
  // Re-request the plan only (reconnect after an outage, epoch refresh).
  // Falls back to a full sync when not yet registered.
  void refresh();

  [[nodiscard]] bool registered() const { return registered_; }
  [[nodiscard]] bool has_plan() const { return plan_.has_value(); }
  // Last-known-good plan; valid only when has_plan().
  [[nodiscard]] const PlanAssignMsg& plan() const { return *plan_; }
  [[nodiscard]] std::uint32_t plan_epoch() const {
    return plan_ ? plan_->master_epoch : 0;
  }
  // True when no exchange (and no retry timer) is outstanding.
  [[nodiscard]] bool idle() const { return state_ == State::kIdle; }
  [[nodiscard]] const OperatorClientStats& stats() const { return stats_; }

 private:
  enum class State : std::uint8_t { kIdle, kRegistering, kRequesting };

  void on_message(const EndpointId& from, std::vector<std::uint8_t> payload);
  void transmit();       // (re)send the message for the current state
  void arm_timeout();
  void accept_plan(const PlanAssignMsg& assign);

  NetworkId id_;
  std::string name_;
  MessageBus& bus_;
  RetryPolicy policy_;
  NetworkServer* server_;
  State state_ = State::kIdle;
  Spectrum spectrum_{};
  std::uint16_t requested_channels_ = 8;
  int attempt_ = 0;
  // Bumped whenever the in-flight exchange changes; pending timeout events
  // compare against it and become no-ops when stale.
  std::uint64_t xact_ = 0;
  bool registered_ = false;
  std::optional<PlanAssignMsg> plan_;
  OperatorClientStats stats_;
};

}  // namespace alphawan
