// Discrete-event simulation engine: a clock plus a time-ordered event heap
// with stable FIFO ordering among simultaneous events. Used for
// backhaul/latency simulations (Fig. 17) and time-stepped scenarios; the
// radio itself is window-batched (see ScenarioRunner).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace alphawan {

class Engine {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] Seconds now() const { return now_; }

  // Schedule relative to the current time.
  void schedule_in(Seconds delay, Action action);
  // Schedule at an absolute time (must not be in the past).
  void schedule_at(Seconds when, Action action);

  // Run until the queue drains or the horizon is reached (no horizon:
  // drain the queue). Returns the number of events executed. The clock
  // advances to the horizon when events remain beyond it.
  std::size_t run(std::optional<Seconds> horizon = std::nullopt);

  // Execute at most one event; returns false if the queue is empty or the
  // next event is beyond the horizon (no horizon: any event runs).
  bool step(std::optional<Seconds> horizon = std::nullopt);

  void reset();

 private:
  struct Entry {
    Seconds when{0.0};
    std::uint64_t seq = 0;  // insertion order for deterministic ties
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Seconds now_{0.0};
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace alphawan
