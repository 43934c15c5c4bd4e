#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/rng.hpp"

namespace perfbench {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// Fallback origin when the launcher gave none: static initialisation runs
// before main, as close to the process start as this program can observe.
const std::int64_t kStaticInitNs = monotonic_ns();

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since_process_start(const Args& args) {
  const std::int64_t origin = args.t0_ns > 0 ? args.t0_ns : kStaticInitNs;
  return static_cast<double>(monotonic_ns() - origin) * 1e-9;
}

void Report::broken(const std::string& what) {
  std::fprintf(stderr, "perfbench: BROKEN: %s\n", what.c_str());
  correct = false;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << quoted(name) << ": {\"value\": " << number(m.value)
        << ", \"unit\": " << quoted(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

double true_relative_residual(const CsrMatrix& a, const std::vector<real_t>& x,
                              const std::vector<real_t>& b) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  if (x.size() != b.size() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    return INFINITY;
  }
  double rr = 0.0;
  double bb = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double ax = 0.0;
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) ax += v[k] * x[ci[k]];
    const double r = b[i] - ax;
    rr += r * r;
    bb += b[i] * b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

void Fnv64::feed(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

u64 csr_hash(const CsrMatrix& m) {
  Fnv64 h;
  h.feed_value(m.rows());
  h.feed_value(m.cols());
  h.feed(m.row_ptr().data(), m.row_ptr().size() * sizeof(index_t));
  h.feed(m.col_idx().data(), m.col_idx().size() * sizeof(index_t));
  h.feed(m.values().data(), m.values().size() * sizeof(real_t));
  return h.digest();
}

CsrMatrix scaled_by_power_of_two(const CsrMatrix& m, int exponent) {
  std::vector<real_t> values = m.values();
  for (real_t& v : values) v = std::ldexp(v, exponent);
  return CsrMatrix(m.rows(), m.cols(), m.row_ptr(), m.col_idx(),
                   std::move(values));
}

std::vector<real_t> random_rhs(index_t n, u64 seed) {
  mcmi::Xoshiro256 rng = mcmi::make_stream(seed, 0x5248);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = mcmi::normal01(rng);
  return b;
}

u64 round_seed(u64 seed, long long round) {
  return mcmi::mix64(mcmi::mix64(seed) ^ static_cast<u64>(round + 1));
}

std::vector<std::size_t> permutation(std::size_t n, u64 seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  mcmi::Xoshiro256 rng = mcmi::make_stream(seed, 0x5045524d);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng() % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.size() < 40) return median(v);
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

int capped_threads(int wanted) {
  // The CPUs this process may run on, as `nproc` counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  const int available =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, std::min(wanted, available));
}

}  // namespace perfbench
