#pragma once
// Shared pieces of the end-to-end benchmark: the command line, the result
// every workload fills, the independent correctness checks and small
// statistics helpers.
//
// The checks here deliberately re-implement what they verify (a plain CSR
// loop for residuals, a byte hash for matrices) instead of calling the
// library, so a fault in the library's SpMV or hashing cannot certify its
// own answers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

using mcmi::CsrMatrix;
using mcmi::index_t;
using mcmi::real_t;
using mcmi::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC nanoseconds taken by the launcher just before it
  /// started this process; 0 when launched directly.
  std::int64_t t0_ns = 0;
  std::string out_dir = "perfbench/out";
};

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Seconds since the process started (the launcher's timestamp when given,
/// otherwise the first call of this function's translation unit).
double seconds_since_process_start(const Args& args);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload reports.  `correct` turns false on the first broken
/// property; `failed` counts operations that ended in a known fault.
struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a broken property: the run is not correct.
  void broken(const std::string& what);
  /// The final JSON line.
  [[nodiscard]] std::string json() const;
};

// ---- independent checks ----------------------------------------------------

/// ||b - A x|| / ||b|| with a plain serial CSR loop (never the library's
/// SpmvPlan).
double true_relative_residual(const CsrMatrix& a, const std::vector<real_t>& x,
                              const std::vector<real_t>& b);

/// FNV-1a over raw bytes: equal digests mean bit-equal inputs.
class Fnv64 {
 public:
  void feed(const void* data, std::size_t bytes);
  template <class T>
  void feed_value(const T& v) {
    feed(&v, sizeof(v));
  }
  [[nodiscard]] u64 digest() const { return h_; }

 private:
  u64 h_ = 1469598103934665603ULL;
};

/// FNV-1a over the CSR arrays' bytes: equal hashes mean bit-equal matrices.
u64 csr_hash(const CsrMatrix& m);

/// The copy of `m` with every value multiplied by 2^exponent.  Power-of-two
/// scaling is exact in floating point, so solves on the copy repeat the
/// original's iterations and relative residuals bit for bit while the
/// content fingerprint differs.
CsrMatrix scaled_by_power_of_two(const CsrMatrix& m, int exponent);

/// Normal(0, 1) right-hand side from a seeded stream.
std::vector<real_t> random_rhs(index_t n, u64 seed);

/// Salt a per-round seed from the run seed and the round index.
u64 round_seed(u64 seed, long long round);

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<std::size_t> permutation(std::size_t n, u64 seed);

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Median of field(x) over xs.
template <class T, class F>
double median_of(const std::vector<T>& xs, F field) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const T& x : xs) v.push_back(static_cast<double>(field(x)));
  return median(std::move(v));
}

/// The highest-percentile sample with at least ten samples beyond it; the
/// median when there are fewer than forty samples.
double tail(std::vector<double> v);

/// Thread counts for the workloads: `wanted`, but never more than the
/// machine has.
int capped_threads(int wanted);

}  // namespace perfbench
