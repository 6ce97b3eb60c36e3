// In-process message bus with simulated delivery latency: the backhaul
// substrate carrying operator <-> Master traffic and server -> gateway
// config pushes. Endpoints exchange framed byte payloads; delivery is
// scheduled on a discrete-event Engine so end-to-end latencies (Fig. 17)
// are measurable.
//
// Delivery semantics (see docs/robustness.md): attachment and liveness are
// checked at DELIVERY time, not send time. A message addressed to an
// endpoint that is detached — or crashed via `set_down` — when the
// delivery event fires is dropped and counted in `BusStats::dropped`.
// Conversely, a send issued while the SOURCE is down never leaves the
// endpoint (a crashed process cannot transmit) and is dropped immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "backhaul/latency_model.hpp"
#include "sim/engine.hpp"

namespace alphawan {

using EndpointId = std::string;

class FaultInjector;

struct BusStats {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  // Messages that reached no handler: unknown endpoint, endpoint detached
  // while the message was in flight, or endpoint down (crash outage).
  std::size_t dropped = 0;
};

// Timeout/retry parameters for a bus endpoint that implements a reliable
// exchange on top of the lossy substrate (OperatorClient's registration
// and plan requests). Exponential backoff: attempt k waits
// initial_timeout * backoff_factor^k, capped at max_timeout.
struct RetryPolicy {
  Seconds initial_timeout{0.25};
  double backoff_factor = 2.0;
  Seconds max_timeout{4.0};
  // Total attempts before giving up (the first send counts). 0 = retry
  // until the exchange succeeds or the endpoint is torn down.
  int max_attempts = 0;

  [[nodiscard]] Seconds timeout_for_attempt(int attempt) const {
    Seconds t = initial_timeout;
    for (int i = 0; i < attempt && t < max_timeout; ++i) {
      t = t * backoff_factor;
    }
    return t < max_timeout ? t : max_timeout;
  }
};

class MessageBus {
 public:
  using Handler =
      std::function<void(const EndpointId& from, std::vector<std::uint8_t>)>;

  MessageBus(Engine& engine, LatencyModel& latency)
      : engine_(engine), latency_(latency) {}

  // Register (or replace) an endpoint's receive handler.
  void attach(const EndpointId& id, Handler handler);
  void detach(const EndpointId& id);
  [[nodiscard]] bool attached(const EndpointId& id) const {
    return handlers_.contains(id);
  }

  // Crash/restore an endpoint without losing its handler: while down, the
  // endpoint neither receives (deliveries drop) nor sends. FaultInjector
  // outage events drive this; tests may call it directly.
  void set_down(const EndpointId& id, bool down);
  [[nodiscard]] bool is_down(const EndpointId& id) const {
    return down_.contains(id);
  }

  // Send a payload; `wan` selects the WAN (operator<->Master) latency
  // distribution instead of the LAN one. Messages to unknown or down
  // endpoints are dropped (counted in `BusStats::dropped`).
  void send(const EndpointId& from, const EndpointId& to,
            std::vector<std::uint8_t> payload, bool wan = false);

  // Route every subsequent send through `faults` (nullptr restores the
  // direct path). The no-injector fast path is a single pointer test —
  // deliberately a branch, not a virtual call, so the disabled
  // configuration costs nothing measurable.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Schedule the delivery leg of a message. Exposed for FaultInjector,
  // which re-enters here after applying per-message faults; everyone else
  // goes through send().
  void schedule_delivery(const EndpointId& from, const EndpointId& to,
                         Seconds delay, std::vector<std::uint8_t> payload);

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const BusStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t dropped() const { return stats_.dropped; }

 private:
  Engine& engine_;
  LatencyModel& latency_;
  std::map<EndpointId, Handler> handlers_;
  std::set<EndpointId> down_;
  FaultInjector* faults_ = nullptr;
  BusStats stats_;
};

}  // namespace alphawan
