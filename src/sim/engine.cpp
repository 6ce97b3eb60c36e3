#include "sim/engine.hpp"

#include <stdexcept>
#include <utility>

namespace alphawan {

void Engine::schedule_in(Seconds delay, Action action) {
  if (delay < Seconds{0.0}) {
    throw std::invalid_argument("Engine::schedule_in: negative delay");
  }
  heap_.push(Entry{now_ + delay, next_seq_++, std::move(action)});
}

void Engine::schedule_at(Seconds when, Action action) {
  if (when < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  heap_.push(Entry{when, next_seq_++, std::move(action)});
}

bool Engine::step(std::optional<Seconds> horizon) {
  if (heap_.empty()) return false;
  if (horizon && heap_.top().when > *horizon) return false;
  // priority_queue::top() is const; move is safe because we pop right away.
  Entry entry = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  now_ = entry.when;
  entry.action();
  return true;
}

std::size_t Engine::run(std::optional<Seconds> horizon) {
  std::size_t executed = 0;
  while (step(horizon)) ++executed;
  if (horizon && !heap_.empty() && heap_.top().when > *horizon &&
      now_ < *horizon) {
    now_ = *horizon;
  }
  return executed;
}

void Engine::reset() {
  now_ = Seconds{0.0};
  heap_ = {};
  next_seq_ = 0;
}

}  // namespace alphawan
