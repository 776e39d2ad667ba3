#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace e2ebench {

namespace {

// Lane 0 is the first thread that records a span (the worker's main
// thread); pool workers get the next indices as they first record.
std::atomic<int> next_lane{0};
thread_local int lane = -1;

int current_lane() {
  if (lane < 0) lane = next_lane.fetch_add(1);
  return lane;
}

}  // namespace

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.lane = current_lane();
  span.start_s = now();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_s = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d}}",
                  first ? "" : ",", s.name.c_str(), s.lane, s.start_s * 1e6,
                  s.seconds() * 1e6, s.id, s.parent);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

uint64_t count(const std::vector<Span>& spans, const std::string& name) {
  return static_cast<uint64_t>(std::count_if(
      spans.begin(), spans.end(),
      [&](const Span& s) { return s.name == name; }));
}

double union_seconds(const std::vector<Span>& spans, const std::string& name) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (s.name == name) iv.emplace_back(s.start_s, s.end_s);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_start = 0, cur_end = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
    } else {
      cur_end = std::max(cur_end, b);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace e2ebench
