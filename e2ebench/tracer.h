// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (no instrumentation inside the program).
// Each span has a name, start and end, the id of the span that caused
// it (-1 for a top-level span) and the lane (a small per-thread index)
// it ran on. Spans stay in memory and are written once, at the end of
// the run, as Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto).
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the tracer was created
  double end_s = 0;
  int id = -1;
  int parent = -1;
  int lane = 0;

  double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread's lane and returns its id.
  int begin(const std::string& name, int parent);
  /// Closes span `id`.
  void end(int id);

  /// Every span, in the order they were opened. Call once all spans
  /// have ended.
  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  double now() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

/// Sum of the durations of spans named `name`.
double total_seconds(const std::vector<Span>& spans, const std::string& name);
/// Number of spans named `name`.
uint64_t count(const std::vector<Span>& spans, const std::string& name);
/// Length of the union of the intervals of spans named `name` (the wall
/// time during which at least one of them was running).
double union_seconds(const std::vector<Span>& spans, const std::string& name);

}  // namespace e2ebench
