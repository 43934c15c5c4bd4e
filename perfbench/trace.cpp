#include "trace.hpp"

#include <cstdio>

namespace perfbench {

int Tracer::open(const char* name, long long id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = Clock::now();
  span.end = span.start;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.id = id;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record_async(const char* name, Clock::time_point start,
                          Clock::time_point end, long long id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = -1;
  span.id = id;
  span.async = true;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.async || s.parent < 0) continue;
    child_seconds[static_cast<std::size_t>(s.parent)] +=
        seconds_between(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += seconds_between(s.start, s.end) - child_seconds[i];
  }
  return out;
}

void report_self_times(const Tracer& tracer, Report& report) {
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    report.set("self." + layer + "_s", seconds, "s");
  }
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = seconds_between(origin_, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    // Overlapping request lifetimes go on their own track so the viewer
    // does not have to nest them.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(), ts, dur,
                 s.async ? 2 + static_cast<int>(s.id % 8) : 1, i, s.parent,
                 s.id);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
