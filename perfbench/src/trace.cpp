#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      recording_(enabled),
      origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_ms() const {
  const auto elapsed = std::chrono::steady_clock::now() - origin_;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

int Tracer::open(std::string_view name, std::uint64_t op, bool root) {
  if (!recording_) return -1;
  Span span;
  span.name = std::string(name);
  span.op = op;
  span.parent = root || open_.empty() ? -1 : open_.back();
  span.start_ms = now_ms();
  span.end_ms = span.start_ms;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  // Closing out of order would orphan the spans above it; drop them from
  // the stack along with this one.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::self_ms() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ms, span.end_ms);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = span.start_ms;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, cursor);
      const double hi = std::min(end, span.end_ms);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = span.duration_ms() - covered;
  }
  return self;
}

std::map<std::uint64_t, double> Tracer::total_by_op(
    std::string_view name) const {
  std::map<std::uint64_t, double> totals;
  for (const Span& span : spans_) {
    if (span.name == name) totals[span.op] += span.duration_ms();
  }
  return totals;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.op),
                 s.parent, s.start_ms, s.end_ms, self[i]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
