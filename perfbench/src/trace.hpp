// In-memory span recorder for the traced benchmark run.
//
// A span covers one call the benchmark makes into a library layer. It has
// a name ("<layer>.<stage>"), start and end (ms since the tracer was
// built), the index of its parent span (-1 for a root) and the id of the
// operation it belongs to. Spans are kept in memory and written out once,
// when the run ends; nothing is formatted while an operation runs.
//
// Replays of a window's radio / net work, or of a planning round's solve,
// are root spans: they share the operation's id but sit outside its span,
// so they never inflate the operation's own time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t op = 0;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  // A disabled tracer records nothing and every call is a no-op.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Pause / resume recording (the traced run leaves every other operation
  // unrecorded to measure the tracer's own overhead).
  void set_recording(bool on) { recording_ = enabled_ && on; }
  [[nodiscard]] bool recording() const { return recording_; }

  // Open a span as a child of the innermost open span, or as a root when
  // `root` is set or nothing is open. Returns its index, -1 when not
  // recording.
  int open(std::string_view name, std::uint64_t op, bool root = false);
  // Close the span `index` (no-op for -1). Spans close innermost first.
  void close(int index);

  // Append an already-finished span (tests and imported timings).
  int add(Span span);

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t op,
          bool root = false)
        : tracer_(tracer), index_(tracer.open(name, op, root)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part of its interval
  // covered by its direct children (overlapping children count once).
  [[nodiscard]] std::vector<double> self_ms() const;

  // Sum of the durations of spans called `name`, per operation id.
  [[nodiscard]] std::map<std::uint64_t, double> total_by_op(
      std::string_view name) const;

  // One JSON object per line: name, op, parent, start_ms, end_ms, self_ms.
  // Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now_ms() const;

  bool enabled_;
  bool recording_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
