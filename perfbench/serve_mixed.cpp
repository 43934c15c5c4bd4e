// serve_mixed: a SolveService driven in a closed loop by one generator
// thread with a fixed number of requests outstanding.  90% of requests repeat
// on operators warmed during set-up (store reads, the warm MCMC path); 10%
// bring a first-seen operator (store insert, the ILU0 -> Jacobi -> identity
// ladder, a background MCMC build, and evictions under the byte budget).
// The only path through serve/solve: warm reads and cold writes share the
// store and the cores, so a gain for one that costs the other shows.
//
// Every answer is certified against its true residual.  Left-preconditioned
// GMRES stops on ||P r|| / ||P b||, so some answers report convergence while
// ||b - A x|| / ||b|| misses the tolerance; those count as failed operations.
// To keep that share identical in every run, a round is always the same 100
// requests: the warm pool (9 operators x 10 right-hand sides) and 10 cold
// operators, each a fixed base operator scaled by a power of two.  The
// scaling is exact, so the cold solves repeat bit for bit while every round's
// operators are new to the store.  The seed picks the scalings and the
// order of each round.

#include <omp.h>

#include <deque>
#include <map>
#include <set>
#include <string>

#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "gen/random_sparse.hpp"
#include "mcmc/inverter.hpp"
#include "serve/solve_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcmi;
using namespace mcmi::serve;

constexpr int kWarmRhs = 10;     ///< right-hand sides per warm operator
constexpr int kColdPerRound = 10;
constexpr int kScaleSpan = 33;   ///< scalings 2^-16 .. 2^16, then repeat
/// Rounds of cold operators the byte budget holds on top of the warm set.
constexpr int kColdRoundsResident = 4;

struct Operator {
  std::string name;
  CsrMatrix a;
  std::vector<std::vector<real_t>> rhs;
};

struct Inputs {
  std::vector<Operator> warm;
  std::vector<Operator> cold;  ///< base operators, one rhs each
};

std::size_t matrix_bytes(const CsrMatrix& m) {
  return m.row_ptr().size() * sizeof(index_t) +
         m.col_idx().size() * sizeof(index_t) +
         m.values().size() * sizeof(real_t);
}

Inputs make_inputs() {
  Inputs in;
  auto add_warm = [&](std::string name, CsrMatrix a) {
    in.warm.push_back({std::move(name), std::move(a), {}});
  };
  for (index_t m : {34, 40, 46}) {
    add_warm("laplace_" + std::to_string(m), laplace_2d(m));
  }
  for (int k = 0; k < 3; ++k) {
    add_warm("diagdom_" + std::to_string(1200 + 400 * k),
             random_diag_dominant(1200 + 400 * k, 8, 1.5, 101 + k));
  }
  const index_t grids[3][2] = {{48, 24}, {56, 28}, {36, 36}};
  for (const auto& g : grids) {
    PlasmaOptions o;
    o.nx = g[0];
    o.ny = g[1];
    o.radius = 2;
    add_warm("plasma_" + std::to_string(g[0]) + "x" + std::to_string(g[1]),
             plasma_drift_diffusion(o));
  }
  for (std::size_t w = 0; w < in.warm.size(); ++w) {
    for (int j = 0; j < kWarmRhs; ++j) {
      in.warm[w].rhs.push_back(
          random_rhs(in.warm[w].a.rows(), 7000 + 100 * w + j));
    }
  }
  // Cold bases mix the warm set's families and sizes.
  for (int c = 0; c < kColdPerRound; ++c) {
    CsrMatrix a;
    if (c % 3 == 0) {
      a = laplace_2d(31 + 6 * (c / 3));
    } else if (c % 3 == 1) {
      PlasmaOptions o;
      o.nx = 34 + 4 * c;
      o.ny = 26;
      o.radius = 2;
      a = plasma_drift_diffusion(o);
    } else {
      a = random_diag_dominant(1000 + 120 * c, 8, 1.5, 5000 + c);
    }
    Operator op{"cold_" + std::to_string(c), std::move(a), {}};
    op.rhs.push_back(random_rhs(op.a.rows(), 9000 + c));
    in.cold.push_back(std::move(op));
  }
  return in;
}

/// One request of a round: a warm-pool entry or a cold base operator.
struct Slot {
  bool cold = false;
  std::size_t op = 0;
  std::size_t rhs = 0;
};

std::vector<Slot> round_slots(const Inputs& in) {
  std::vector<Slot> slots;
  for (std::size_t w = 0; w < in.warm.size(); ++w) {
    for (std::size_t j = 0; j < kWarmRhs; ++j) slots.push_back({false, w, j});
  }
  for (std::size_t c = 0; c < in.cold.size(); ++c) {
    slots.push_back({true, c, 0});
  }
  return slots;
}

const std::vector<real_t>& rhs_of(const Inputs& in, const Slot& slot) {
  return slot.cold ? in.cold[slot.op].rhs[0]
                   : in.warm[slot.op].rhs[slot.rhs];
}

struct InFlight {
  ServeHandle handle;
  Slot slot;
  long long round = 0;
  std::shared_ptr<const CsrMatrix> a;  ///< the operator as submitted
  Clock::time_point submitted;
  long long id = 0;
};

struct Tally {
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  long long submitted = 0;
  long long completed = 0;
  long long attempts = 0;
  long long iterations = 0;
  long long served_by[kSolveStageCount] = {};
  std::map<long long, long long> iterations_by_round;
};

ServiceOptions service_options(const Inputs& in) {
  ServiceOptions o;
  o.workers = static_cast<std::size_t>(capped_threads(4) > 3 ? 2 : 1);
  o.builders = 1;
  o.queue_capacity = 64;
  o.event_log_capacity = std::size_t{1} << 18;
  // The byte budget holds the warm set and a few rounds of cold operators
  // with their preconditioners (nnz(P) <= ~2 nnz(A), bounded here by 2x the
  // matrix bytes).  Warm operators are touched every round, so LRU eviction
  // only ever takes cold operators from earlier rounds.
  std::size_t warm = 0;
  for (const Operator& op : in.warm) warm += 3 * matrix_bytes(op.a);
  std::size_t cold = 0;
  for (const Operator& op : in.cold) cold += 3 * matrix_bytes(op.a);
  o.store.max_entries = 1 << 20;
  o.store.max_bytes = warm + kColdRoundsResident * cold;
  return o;
}

}  // namespace

void run_serve_mixed(const Args& args, Tracer& tracer, Report& report) {
  if (omp_get_max_threads() != 1) {
    report.broken("serve_mixed needs OMP_NUM_THREADS=1 in its environment");
    return;
  }
  Inputs in;
  {
    ScopedSpan span(tracer, "gen.matrices");
    in = make_inputs();
  }
  {
    // A cold operator must never equal a warm one (or another cold one) at
    // any of its scalings, or it would not be first-seen.
    std::set<u64> seen;
    for (const Operator& op : in.warm) seen.insert(csr_hash(op.a));
    for (const Operator& op : in.cold) {
      for (int e = 0; e < kScaleSpan; ++e) {
        const int exponent = e - kScaleSpan / 2;
        if (!seen.insert(csr_hash(scaled_by_power_of_two(op.a, exponent)))
                 .second) {
          report.broken(op.name + " coincides with another operator");
          return;
        }
      }
    }
  }
  const ServiceOptions options = service_options(in);
  // One outstanding request per worker: each client waits for its answer,
  // so a request's latency is its own work, not its place behind others.
  const std::size_t outstanding = options.workers;
  SolveService service(options);
  {
    // Pre-warm: one request per warm operator, then wait for every
    // background build to swap its P in.
    ScopedSpan span(tracer, "serve.prewarm");
    std::vector<ServeHandle> handles;
    for (const Operator& op : in.warm) {
      handles.push_back(service.submit(op.a, op.rhs[0]));
    }
    for (const ServeHandle& h : handles) (void)h.wait_ref();
    service.drain();
  }
  for (const Operator& op : in.warm) {
    auto entry = service.store().find(op.a);
    if (entry == nullptr || entry->tuned() == nullptr) {
      report.broken("warm operator " + op.name + " has no tuned P");
      return;
    }
  }
  const double setup_s = seconds_since_process_start(args);

  const ServiceStats before = service.stats();
  const std::size_t events_before = service.recent_events().size();
  const std::vector<Slot> slots = round_slots(in);
  const auto scale_offset = static_cast<long long>(args.seed % kScaleSpan);

  Tally untraced;
  Tally traced;
  std::deque<InFlight> flight;
  long long next_id = 0;

  auto reap = [&](Tally& tally) {
    InFlight f = std::move(flight.front());
    flight.pop_front();
    const ServeResult* result = nullptr;
    {
      ScopedSpan span(tracer, "serve.wait", f.id);
      result = &f.handle.wait_ref();
    }
    tracer.record_async("serve.request", f.submitted, Clock::now(), f.id);
    const SolveReport& rep = result->report;
    const bool numerical = rep.status != SolveStatus::kCancelled &&
                           rep.status != SolveStatus::kDeadlineExceeded &&
                           rep.status != SolveStatus::kRejected;
    if (numerical) ++tally.completed;
    if (result->warm == f.slot.cold) {
      report.broken(std::string(f.slot.cold ? "a first-seen operator was "
                                              "served warm"
                                            : "a pre-warmed operator was "
                                              "served cold"));
    }
    (f.slot.cold ? tally.cold_ms : tally.warm_ms)
        .push_back(result->total_seconds * 1e3);
    tally.queue_ms.push_back(result->queue_seconds * 1e3);
    tally.solve_ms.push_back(rep.total_seconds * 1e3);
    tally.attempts += static_cast<long long>(rep.attempts.size());
    tally.iterations += rep.iterations;
    tally.iterations_by_round[f.round] += rep.iterations;
    ++tally.served_by[static_cast<std::size_t>(rep.served_by)];
    const std::vector<real_t>& b = rhs_of(in, f.slot);
    double tr = 0;
    {
      ScopedSpan span(tracer, "check.residual", f.id);
      tr = true_relative_residual(*f.a, result->x, b);
    }
    ++report.attempted;
    if (!rep.converged() || !(tr <= 1e-8)) ++report.failed;
  };

  // Whole rounds until the time is up, then the drain; a traced run spends
  // the first half untraced and the second half traced.
  long long round = 0;
  auto run_phase = [&](double budget, Tally& tally) {
    const auto start = Clock::now();
    do {
      const int exponent =
          static_cast<int>((scale_offset + round) % kScaleSpan) -
          kScaleSpan / 2;
      std::vector<std::shared_ptr<const CsrMatrix>> cold_ops;
      for (const Operator& op : in.cold) {
        cold_ops.push_back(std::make_shared<const CsrMatrix>(
            scaled_by_power_of_two(op.a, exponent)));
      }
      const u64 order_seed = round_seed(args.seed, round);
      for (std::size_t k : permutation(slots.size(), order_seed)) {
        const Slot& slot = slots[k];
        InFlight f;
        f.slot = slot;
        f.round = round;
        f.id = next_id++;
        f.a = slot.cold ? cold_ops[slot.op]
                        : std::shared_ptr<const CsrMatrix>(
                              std::shared_ptr<const CsrMatrix>(),
                              &in.warm[slot.op].a);
        const std::vector<real_t>& b = rhs_of(in, slot);
        f.submitted = Clock::now();
        {
          ScopedSpan span(tracer, "serve.submit", f.id);
          f.handle = service.submit(*f.a, b);
        }
        if (!f.handle) {
          report.broken("the service refused a request");
          continue;
        }
        ++tally.submitted;
        flight.push_back(std::move(f));
        if (flight.size() >= outstanding) reap(tally);
      }
      ++round;
    } while (seconds_between(start, Clock::now()) < budget);
    while (!flight.empty()) reap(tally);
    service.drain();
    return seconds_between(start, Clock::now());
  };

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  tracer.set_enabled(false);
  const double measured_s = run_phase(untraced_budget, untraced);
  const ServiceStats mid = service.stats();
  const long long untraced_rounds = round;
  double traced_s = 0;
  if (args.trace) {
    tracer.set_enabled(true);
    traced_s = run_phase(args.seconds - untraced_budget, traced);
  }
  const ServiceStats after = service.stats();

  // Conservation, against the service's counters and the generator's own
  // tally of handles.
  if (after.submitted != after.completed + after.cancelled + after.shed +
                             after.expired) {
    report.broken("submitted != completed + cancelled + shed + expired");
  }
  const u64 submitted = after.submitted - before.submitted;
  const u64 completed = after.completed - before.completed;
  if (submitted != static_cast<u64>(untraced.submitted + traced.submitted) ||
      completed != static_cast<u64>(untraced.completed + traced.completed) ||
      completed != submitted) {
    report.broken("service counters disagree with the generator's tally");
  }
  // Every round is the same requests, so its Krylov iterations repeat
  // exactly — traced or not.
  std::map<long long, long long> iterations = untraced.iterations_by_round;
  iterations.insert(traced.iterations_by_round.begin(),
                    traced.iterations_by_round.end());
  for (const auto& [r, its] : iterations) {
    if (its != iterations.begin()->second) {
      report.broken("round " + std::to_string(r) +
                    " needed a different number of Krylov iterations");
      break;
    }
  }

  // Build scheduled -> P swapped in, for the builds of the measured phase.
  std::vector<double> warm_up_s;
  {
    const std::vector<ServiceEvent> events = service.recent_events();
    std::map<u64, double> scheduled;
    for (std::size_t i = events_before; i < events.size(); ++i) {
      const ServiceEvent& e = events[i];
      if (e.type == ServiceEventType::kBuildScheduled) {
        scheduled[e.fingerprint] = e.seconds;
      } else if (e.type == ServiceEventType::kBuildCompleted) {
        auto it = scheduled.find(e.fingerprint);
        if (it != scheduled.end()) {
          warm_up_s.push_back(e.seconds - it->second);
          scheduled.erase(it);
        }
      }
    }
    if (events.size() >= options.event_log_capacity) {
      report.broken("the event log wrapped; raise its capacity");
    }
  }

  if (!args.trace) {
    report.set("setup_s", setup_s, "s");
    report.set("time_to_warm_s", median(warm_up_s), "s");
    report.set("time_to_solution_s", median(untraced.cold_ms) * 1e-3, "s");
    report.set("warm_p50_ms", median(untraced.warm_ms), "ms");
    report.set("ops_per_s",
               static_cast<double>(untraced.completed) / measured_s, "1/s");
    return;
  }

  const double rounds = static_cast<double>(round - untraced_rounds);
  auto per_round = [&](u64 a, u64 b) {
    return static_cast<double>(a - b) / rounds;
  };
  const double traced_per_request =
      traced_s / static_cast<double>(traced.completed);
  const double untraced_per_request =
      measured_s / static_cast<double>(untraced.completed);
  report.set("trace.overhead_pct",
             100.0 * (traced_per_request / untraced_per_request - 1.0), "%");
  report.set("serve.queue_wait_ms", median(traced.queue_ms), "ms");
  report.set("serve.solve_ms", median(traced.solve_ms), "ms");
  report.set("serve.warm_tail_ms", tail(traced.warm_ms), "ms");
  report.set("serve.warm_requests",
             per_round(after.warm_requests, mid.warm_requests), "count");
  report.set("serve.cold_requests",
             per_round(after.cold_requests, mid.cold_requests), "count");
  report.set("serve.store_hits", per_round(after.store.hits, mid.store.hits),
             "count");
  report.set("serve.store_misses",
             per_round(after.store.misses, mid.store.misses), "count");
  report.set("serve.evictions",
             per_round(after.store.evictions, mid.store.evictions), "count");
  report.set("serve.builds_completed",
             per_round(after.builds_completed, mid.builds_completed), "count");
  report.set("serve.coalesced_builds",
             per_round(after.coalesced_builds, mid.coalesced_builds), "count");
  const auto requests = static_cast<double>(traced.completed);
  report.set("solve.attempts_per_request",
             static_cast<double>(traced.attempts) / requests, "1");
  for (int s = 0; s < kSolveStageCount; ++s) {
    report.set(std::string("solve.served_by.") +
                   stage_name(static_cast<SolveStage>(s)),
               static_cast<double>(traced.served_by[s]) / rounds, "count");
  }
  report.set("krylov.iterations",
             static_cast<double>(iterations.begin()->second), "count");
  report.set("krylov.iterations_per_request",
             static_cast<double>(traced.iterations) / requests, "1");

  // The background build alone, without the builder queue: the cold base
  // operators built with the service's parameters, timed around the call.
  std::vector<double> build_ms;
  for (const Operator& op : in.cold) {
    const auto t = Clock::now();
    {
      ScopedSpan span(tracer, "mcmc.build");
      McmcInverter inverter(op.a, options.mcmc_params, options.mcmc_options);
      (void)inverter.compute();
    }
    build_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  report.set("serve.build_ms", median(build_ms), "ms");
  report_self_times(tracer, report);
}

}  // namespace perfbench
