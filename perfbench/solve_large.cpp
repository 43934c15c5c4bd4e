// solve_large: a few systems whose working sets are far beyond one core's
// L2 — full-scale climate transport, a plasma drift-diffusion grid and a
// 2-D Laplacian.  Each round builds P once per system at the tightest paper
// grid point, solves the system's first right-hand side, then sweeps further
// right-hand sides with GMRES and BiCGStab.  Bandwidth-bound SpMV,
// preconditioner apply and reductions do nearly all the work; the build
// shows in time_to_solution_s.  Bypasses nn/bo/serve.
//
// The systems, the MCMC seed and the right-hand-side pool do not depend on
// the run seed: a false convergence here is a property of (A, P, b), and a
// fixed pool repeated in whole rounds keeps the failed share identical in
// every run.  The seed orders each sweep.

#include <omp.h>

#include <memory>
#include <string>

#include "gen/climate.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "krylov/solver.hpp"
#include "mcmc/inverter.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcmi;

constexpr int kThreads = 1;
constexpr int kPoolRhs = 1;  ///< further right-hand sides per system
const McmcParams kParams{1.0, 0.0625, 0.0625};  // tightest grid eps/delta
const KrylovMethod kMethods[] = {KrylovMethod::kGMRES,
                                 KrylovMethod::kBiCGStab};

struct System {
  std::string name;
  CsrMatrix a;
  std::vector<std::vector<real_t>> rhs;  ///< [0] first solve, then the pool
};

SolveOptions solve_options() {
  SolveOptions options;
  options.tolerance = 1e-8;
  options.restart = 50;
  options.max_iterations = 3000;
  return options;
}

struct Built {
  std::unique_ptr<SparseApproximateInverse> p;
  double build_s = 0;
  long long transitions = 0;
  bool over_budget = false;  ///< nnz(P) > filling_factor * nnz(A)
};

struct Round {
  double build_s = 0;     ///< P builds, all systems
  double first_s = 0;     ///< builds + first solves, all systems
  double stream_s = 0;    ///< the further right-hand sides
  long long iterations = 0;         ///< all solves of the round
  long long stream_iterations = 0;  ///< the further right-hand sides only
  long long transitions = 0;
  long long nnz_p = 0;
  std::vector<double> sweeps_s;  ///< one pool rhs on every system & method
  std::vector<u64> p_hashes;
  std::vector<index_t> solve_iterations;  ///< at slot(system, rhs, method)
};

/// Position of (system, rhs, method) in Round::solve_iterations; the first
/// right-hand side is solved with GMRES only.
std::size_t slot(std::size_t system, std::size_t rhs, std::size_t method) {
  return system * (1 + 2 * kPoolRhs) + (rhs == 0 ? 0 : 2 * rhs - 1 + method);
}

Built build(const System& s, Tracer& tracer, Report& report) {
  Built out;
  const McmcOptions options;
  const auto t = Clock::now();
  {
    ScopedSpan span(tracer, "mcmc.build");
    McmcInverter inverter(s.a, kParams, options);
    out.p = std::make_unique<SparseApproximateInverse>(inverter.compute(),
                                                       "mcmcmi");
    out.transitions = inverter.info().total_transitions;
    if (inverter.info().status != BuildStatus::kBuilt) {
      report.broken("P build did not complete on " + s.name);
    }
  }
  out.build_s = seconds_between(t, Clock::now());
  // The builders round the per-row budget filling_factor * nnz(A) / n to
  // the nearest integer, so nnz(P) can exceed filling_factor * nnz(A) by up
  // to n/2 entries: that known fault marks the build over budget (a failed
  // operation in a round); anything beyond it breaks the property.
  const double cap = options.filling_factor * static_cast<double>(s.a.nnz());
  const auto nnz_p = static_cast<double>(out.p->matrix().nnz());
  if (nnz_p > cap + 0.5 * static_cast<double>(s.a.rows())) {
    report.broken("nnz(P) exceeds filling_factor * nnz(A) on " + s.name);
  }
  out.over_budget = nnz_p > cap;
  return out;
}

/// One certified solve; returns its iterations.  A non-converged answer or
/// a converged one whose true residual misses the tolerance is a failed
/// operation.
index_t certified_solve(const System& s, const Preconditioner& p,
                        std::size_t rhs, KrylovMethod method, Tracer& tracer,
                        Report& report) {
  const SolveOptions options = solve_options();
  std::vector<real_t> x;
  SolveResult res;
  {
    ScopedSpan span(tracer, "krylov.solve");
    res = solve(method, s.a, s.rhs[rhs], p, x, options);
  }
  ++report.attempted;
  double tr = 0;
  {
    ScopedSpan span(tracer, "check.residual");
    tr = true_relative_residual(s.a, x, s.rhs[rhs]);
  }
  if (!res.converged() || !(tr <= options.tolerance)) ++report.failed;
  return res.iterations;
}

Round run_round(std::vector<System>& systems,
                std::vector<std::unique_ptr<SparseApproximateInverse>>& ps,
                u64 seed, Tracer& tracer, Report& report) {
  Round out;
  out.solve_iterations.assign(systems.size() * (1 + 2 * kPoolRhs), 0);
  // Every round starts from operators the library has not seen: a copy from
  // the raw arrays carries none of the lazily built SpMV plans, so the first
  // solve pays for them as a new system would.
  for (System& s : systems) {
    s.a = CsrMatrix(s.a.rows(), s.a.cols(), s.a.row_ptr(), s.a.col_idx(),
                    s.a.values());
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    Built b = build(systems[i], tracer, report);
    ++report.attempted;
    if (b.over_budget) ++report.failed;
    out.build_s += b.build_s;
    out.transitions += b.transitions;
    out.nnz_p += b.p->matrix().nnz();
    out.p_hashes.push_back(csr_hash(b.p->matrix()));
    ps[i] = std::move(b.p);
    const index_t it = certified_solve(systems[i], *ps[i], 0,
                                       KrylovMethod::kGMRES, tracer, report);
    out.iterations += it;
    out.solve_iterations[slot(i, 0, 0)] = it;
  }
  out.first_s = seconds_between(t0, Clock::now());

  const auto t1 = Clock::now();
  const std::size_t per_sweep = systems.size() * 2;
  for (std::size_t r = 1; r <= kPoolRhs; ++r) {
    const auto s0 = Clock::now();
    for (std::size_t k : permutation(per_sweep, seed + r)) {
      const std::size_t i = k / 2;
      const index_t it = certified_solve(systems[i], *ps[i], r,
                                         kMethods[k % 2], tracer, report);
      out.iterations += it;
      out.stream_iterations += it;
      out.solve_iterations[slot(i, r, k % 2)] = it;
    }
    out.sweeps_s.push_back(seconds_between(s0, Clock::now()));
  }
  out.stream_s = seconds_between(t1, Clock::now());
  return out;
}

/// Median seconds of one call of `f`, repeated.
template <class F>
double time_call(F f, int repeats) {
  std::vector<double> v;
  for (int i = 0; i < repeats; ++i) {
    const auto t = Clock::now();
    f();
    v.push_back(seconds_between(t, Clock::now()));
  }
  return median(v);
}

std::vector<System> make_systems() {
  std::vector<System> systems;
  systems.push_back({"climate_full", climate_nonsym_r3_a11(true), {}});
  PlasmaOptions plasma;
  plasma.nx = 192;
  plasma.ny = 96;
  plasma.radius = 2;
  systems.push_back({"plasma_192x96", plasma_drift_diffusion(plasma), {}});
  systems.push_back({"laplace_160", laplace_2d(160), {}});
  for (std::size_t i = 0; i < systems.size(); ++i) {
    for (u64 r = 0; r <= kPoolRhs; ++r) {
      systems[i].rhs.push_back(
          random_rhs(systems[i].a.rows(), 1000 * (i + 1) + r));
    }
  }
  return systems;
}

}  // namespace

void run_solve_large(const Args& args, Tracer& tracer, Report& report) {
  const int threads = capped_threads(kThreads);
  omp_set_num_threads(threads);
  std::vector<System> systems;
  {
    ScopedSpan span(tracer, "gen.matrices");
    systems = make_systems();
  }
  const double setup_s = seconds_since_process_start(args);

  std::vector<std::unique_ptr<SparseApproximateInverse>> ps(systems.size());
  const auto start = Clock::now();
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Round> rounds;
  auto next_seed = [&] {
    return round_seed(args.seed, static_cast<long long>(rounds.size()));
  };
  tracer.set_enabled(false);
  do {
    rounds.push_back(run_round(systems, ps, next_seed(), tracer, report));
  } while (seconds_between(start, Clock::now()) < untraced_budget);
  const std::size_t untraced_rounds = rounds.size();
  const double measured_s = seconds_between(start, Clock::now());
  if (args.trace) {
    tracer.set_enabled(true);
    const auto traced_start = Clock::now();
    do {
      rounds.push_back(run_round(systems, ps, next_seed(), tracer, report));
    } while (seconds_between(traced_start, Clock::now()) <
             args.seconds - untraced_budget);
  }

  // Every round rebuilds the same P and repeats the same solves, so every
  // count must repeat exactly — traced or not.
  for (const Round& r : rounds) {
    if (r.p_hashes != rounds[0].p_hashes ||
        r.solve_iterations != rounds[0].solve_iterations ||
        r.transitions != rounds[0].transitions) {
      report.broken("a round's P or iteration counts differ from round 0");
      break;
    }
  }

  // The same P and solves at a second thread count (2 threads when the run
  // uses 1): bit-identical P, equal iterations — on the Laplacian, the
  // cheapest system, and on every system in the traced run.
  const int other_threads = threads == 1 ? capped_threads(2) : 1;
  omp_set_num_threads(other_threads);
  double other_s = 0;
  long long other_iterations = 0;
  const std::size_t checked = args.trace ? systems.size() : 1;
  for (std::size_t n = 0; n < checked; ++n) {
    const std::size_t i = systems.size() - 1 - n;
    Built b = build(systems[i], tracer, report);
    if (csr_hash(b.p->matrix()) != rounds[0].p_hashes[i]) {
      report.broken("P on " + systems[i].name + " differs at " +
                    std::to_string(other_threads) + " threads");
    }
    for (int m = 0; m < 2; ++m) {
      std::vector<real_t> x;
      const auto t = Clock::now();
      const SolveResult res =
          solve(kMethods[m], systems[i].a, systems[i].rhs[1], *b.p, x,
                solve_options());
      other_s += seconds_between(t, Clock::now());
      other_iterations += res.iterations;
      if (res.iterations != rounds[0].solve_iterations[slot(i, 1, m)]) {
        report.broken("iterations on " + systems[i].name + " differ at " +
                      std::to_string(other_threads) + " threads");
      }
    }
  }
  omp_set_num_threads(threads);

  const std::vector<Round> measured(rounds.begin(),
                                    rounds.begin() + untraced_rounds);
  auto build = [](const Round& r) { return r.build_s; };
  if (!args.trace) {
    std::vector<double> sweeps;
    for (const Round& r : measured) {
      sweeps.insert(sweeps.end(), r.sweeps_s.begin(), r.sweeps_s.end());
    }
    report.set("setup_s", setup_s, "s");
    report.set("time_to_warm_s", median_of(measured, build), "s");
    report.set("time_to_solution_s",
               median_of(measured, [](const Round& r) { return r.first_s; }),
               "s");
    report.set("warm_p50_ms", 1e3 * median(sweeps), "ms");
    report.set("ops_per_s", static_cast<double>(report.attempted) / measured_s,
               "1/s");
    return;
  }

  const std::vector<Round> traced(rounds.begin() + untraced_rounds,
                                  rounds.end());
  auto stream = [](const Round& r) { return r.stream_s; };
  report.set("trace.overhead_pct",
             100.0 * (median_of(traced, stream) /
                          median_of(measured, stream) -
                      1.0),
             "%");
  const double build_s = median_of(traced, build);
  report.set("mcmc.build_s", build_s, "s");
  report.set("mcmc.transitions", static_cast<double>(traced[0].transitions),
             "count");
  report.set("mcmc.transitions_per_s",
             static_cast<double>(traced[0].transitions) / build_s, "1/s");
  report.set("mcmc.nnz_p", static_cast<double>(traced[0].nnz_p), "count");
  report.set("krylov.solve_s", median_of(traced, [](const Round& r) {
               return r.first_s - r.build_s + r.stream_s;
             }),
             "s");
  report.set("krylov.iterations", static_cast<double>(traced[0].iterations),
             "count");
  report.set("krylov.iteration_s",
             median_of(traced, stream) /
                 static_cast<double>(traced[0].stream_iterations),
             "s");
  report.set("krylov.iteration_s_2t",
             other_s / static_cast<double>(other_iterations), "s");

  // Kernel rates on the built operators, timed around single public calls.
  double spmv_s = 0;
  double apply_s = 0;
  double bytes = 0;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const CsrMatrix& a = systems[i].a;
    const std::vector<real_t>& x = systems[i].rhs[1];
    std::vector<real_t> y(x.size());
    spmv_s += time_call(
        [&] {
          ScopedSpan span(tracer, "sparse.spmv");
          a.multiply(x, y);
        },
        20);
    apply_s += time_call(
        [&] {
          ScopedSpan span(tracer, "precond.apply");
          ps[i]->apply(x, y);
        },
        20);
    // Computed, not measured, traffic: 8-byte values and 4-byte columns per
    // nonzero (the plan's column encoding), then row pointer, x and y.
    bytes += 12.0 * static_cast<double>(a.nnz()) +
             24.0 * static_cast<double>(a.rows());
  }
  report.set("sparse.spmv_s", spmv_s, "s");
  report.set("sparse.spmv_gbs_computed", bytes / spmv_s * 1e-9, "GB/s");
  report.set("precond.apply_s", apply_s, "s");
  report_self_times(tracer, report);
}

}  // namespace perfbench
