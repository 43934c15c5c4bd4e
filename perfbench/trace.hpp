#pragma once
// In-memory span recorder for the traced run.
//
// Spans (name, start, end, parent) are recorded around the benchmark's calls
// into each library layer and kept in memory; at exit they are written as
// Chrome trace-event JSON (viewable in Perfetto or chrome://tracing) and
// folded into per-layer self times.  A layer is the span name up to its
// first '.', which is the library module called ("mcmc.build" -> "mcmc").
// When the recorder is off a span costs one branch, and nothing it records
// feeds back into the work, so tracing cannot change a result.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    long long id = 0;  ///< request id shared by the spans of one request
    bool async = false;  ///< overlaps its siblings (a request's lifetime)
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a nested span on the calling (single recording) thread; returns
  /// its index, or -1 when off.
  int open(const char* name, long long id = 0);
  void close(int index);

  /// Record a finished span that overlaps others (e.g. one request's
  /// submit-to-answer lifetime); excluded from self times.
  void record_async(const char* name, Clock::time_point start,
                    Clock::time_point end, long long id);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Self seconds per layer: each synchronous span's duration minus the
  /// time its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Write the Chrome trace-event JSON; false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer self times from the tracer as `self.<layer>_s` metrics, plus
/// the span count.
void report_self_times(const Tracer& tracer, Report& report);

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, long long id = 0)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
