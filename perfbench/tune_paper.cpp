// tune_paper: the paper's tuning workflow (§4.4) at a scale that runs in
// seconds — label the small-matrix corpus over the 64-point grid with
// replicates, train the GNN surrogate, recommend a batch for the unseen
// test matrix and for held-out larger paper matrices, and verify each batch.
//
// This is the only path through features/gnn/surrogate/bo.  Its MCMC and
// Krylov work is thousands of tiny systems, where per-call and fork/join
// overhead dominate — the opposite regime from solve_large.
//
// Each round derives every sampler, split, initialisation and recommender
// seed from (run seed, round).  After the timed loop each round repeats one
// fixed, seed-independent certified solve on the unseen matrix (the grid
// point x_M = (5, 0.5, 0.0625)) whose answer is a known false convergence:
// GMRES(250) reports convergence while the true residual is ~1e23.  It
// counts as one failed operation per round, so the failed share is the same
// in every run.

#include <omp.h>

#include <algorithm>
#include <cmath>

#include "bo/recommender.hpp"
#include "features/matrix_features.hpp"
#include "gnn/graph.hpp"
#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "pipeline/dataset_builder.hpp"
#include "surrogate/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcmi;

constexpr int kThreads = 1;
constexpr index_t kCorpusMaxDim = 300;  // the autotune example's corpus
constexpr index_t kReplicates = 2;
constexpr index_t kEpochs = 20;
constexpr index_t kBatch = 8;
constexpr real_t kXi = 0.05;
constexpr real_t kYCap = 4.0;  // PerformanceMeasurer's default cap on y
const char* const kUnseen = "unsteady_adv_diff_order2_0001";
const char* const kHeldOut[] = {"a00512", "2DFDLaplace_32", "nonsym_r3_a11"};
const McmcParams kProbeParams{5.0, 0.5, 0.0625};
/// The corpus member whose grid the traced run replays layer by layer.
const char* const kDecomposed = "PDD_RealSparse_N256";

struct Inputs {
  std::vector<NamedMatrix> corpus;
  std::vector<NamedMatrix> targets;  ///< the unseen matrix, then held-out
};

struct Round {
  double loop_s = 0;        ///< label + train + recommend + verify
  double warm_s = 0;        ///< label + train
  double recommend_s = 0;   ///< all targets: matrix -> recommended batch
  double label_s = 0;
  double train_s = 0;
  double extract_s = 0;
  double cache_s = 0;
  double bo_s = 0;
  double verify_s = 0;
  index_t labels = 0;
  index_t capped = 0;
  index_t epochs = 0;
  double val_loss = 0;
  u64 signature = 0;  ///< bits of every label, recommendation and y
};

double since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

index_t expected_labels(const std::vector<NamedMatrix>& corpus,
                        const DatasetBuildOptions& data) {
  const auto grid = static_cast<index_t>(data.grid.size());
  const auto cg_grid = static_cast<index_t>(paper_eps_values().size() *
                                            paper_eps_values().size());
  index_t total = 0;
  for (const NamedMatrix& m : corpus) {
    total += 2 * grid + (m.spd ? cg_grid : 0) + 2 * data.divergence_samples;
  }
  return total;
}

bool label_ok(real_t y) { return std::isfinite(y) && y > 0.0 && y <= kYCap; }

void check_batch(const std::vector<Recommendation>& batch,
                 const McmcSearchSpace& space, const RecommendOptions& ro,
                 const std::string& name, Report& report) {
  if (static_cast<index_t>(batch.size()) != ro.batch_size) {
    report.broken("recommend_batch returned " + std::to_string(batch.size()) +
                  " of " + std::to_string(ro.batch_size) + " for " + name);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const McmcParams& p = batch[i].params;
    if (!(p.alpha >= space.alpha_min && p.alpha <= space.alpha_max &&
          p.eps >= space.eps_min && p.eps <= space.eps_max &&
          p.delta >= space.delta_min && p.delta <= space.delta_max)) {
      report.broken("recommendation outside the search box for " + name);
    }
    for (std::size_t j = 0; j < i; ++j) {
      const McmcParams& q = batch[j].params;
      const double d = std::sqrt((p.alpha - q.alpha) * (p.alpha - q.alpha) +
                                 (p.eps - q.eps) * (p.eps - q.eps) +
                                 (p.delta - q.delta) * (p.delta - q.delta));
      if (!(d >= ro.dedup_distance)) {
        report.broken("recommendations closer than dedup_distance for " +
                      name);
      }
    }
  }
}

/// One certified GMRES(250) solve of the unseen matrix at the fixed probe
/// point; returns true when the answer is a false convergence.
bool probe_false_convergence(const NamedMatrix& unseen,
                             const SolveOptions& solve_options, Fnv64& sig) {
  McmcInverter inverter(unseen.matrix, kProbeParams);
  const SparseApproximateInverse p(inverter.compute(), "probe");
  const std::vector<real_t> b(static_cast<std::size_t>(unseen.matrix.rows()),
                              1.0);
  std::vector<real_t> x;
  const SolveResult res =
      solve(KrylovMethod::kGMRES, unseen.matrix, b, p, x, solve_options);
  sig.feed_value(res.iterations);
  const double tr = true_relative_residual(unseen.matrix, x, b);
  return res.converged() && !(tr <= solve_options.tolerance);
}

Round run_round(const Inputs& in, u64 seed, Tracer& tracer, Report& report) {
  Round out;
  Fnv64 sig;
  const auto t0 = Clock::now();

  DatasetBuildOptions data;
  data.replicates = kReplicates;
  data.seed = seed;
  SurrogateDataset dataset;
  {
    ScopedSpan span(tracer, "pipeline.label");
    dataset = build_dataset(in.corpus, data);
  }
  out.label_s = since(t0);
  out.labels = dataset.size();
  if (out.labels != expected_labels(in.corpus, data)) {
    report.broken("dataset has " + std::to_string(out.labels) +
                  " labels, expected " +
                  std::to_string(expected_labels(in.corpus, data)));
  }
  real_t y_min = kYCap;
  for (const LabeledSample& s : dataset.samples) {
    if (!label_ok(s.y_mean) || !(s.y_std >= 0.0)) {
      report.broken("label outside (0, y_cap]: " + std::to_string(s.y_mean));
    }
    if (s.y_mean >= kYCap) ++out.capped;
    y_min = std::min(y_min, s.y_mean);
    sig.feed_value(s.y_mean);
    sig.feed_value(s.y_std);
  }
  report.attempted += out.labels;

  const auto t1 = Clock::now();
  SurrogateConfig config = default_config();
  config.seed = seed;
  SurrogateModel model(config);
  {
    ScopedSpan span(tracer, "surrogate.train");
    model.fit_standardizers(dataset);
    std::vector<LabeledSample> train, validation;
    dataset.split(0.2, seed, train, validation);
    TrainOptions options;
    options.epochs = kEpochs;
    options.seed = seed;
    const TrainReport tr =
        train_surrogate(model, dataset, train, validation, options);
    out.epochs = tr.epochs_run;
    out.val_loss = tr.final_validation_loss;
  }
  out.train_s = since(t1);
  out.warm_s = since(t0);
  if (out.epochs != kEpochs || !std::isfinite(out.val_loss)) {
    report.broken("surrogate training did not complete its epochs");
  }
  sig.feed_value(out.val_loss);

  const McmcSearchSpace space;
  RecommendOptions ro;
  ro.batch_size = kBatch;
  ro.xi = kXi;
  ro.y_min = y_min;
  ro.seed = seed;
  std::vector<std::vector<McmcParams>> batches;
  for (const NamedMatrix& target : in.targets) {
    const auto a = Clock::now();
    std::vector<real_t> features;
    {
      ScopedSpan span(tracer, "features.extract");
      features = extract_features(target.matrix).to_vector();
    }
    const auto b = Clock::now();
    {
      ScopedSpan span(tracer, "gnn.cache");
      model.cache_matrix(gnn::Graph::from_csr(target.matrix), features);
    }
    const auto c = Clock::now();
    std::vector<Recommendation> batch;
    {
      ScopedSpan span(tracer, "bo.recommend");
      batch = recommend_batch(model, KrylovMethod::kGMRES, space, ro);
    }
    const auto d = Clock::now();
    out.extract_s += seconds_between(a, b);
    out.cache_s += seconds_between(b, c);
    out.bo_s += seconds_between(c, d);
    out.recommend_s += seconds_between(a, d);
    check_batch(batch, space, ro, target.name, report);
    ++report.attempted;
    std::vector<McmcParams> params;
    for (const Recommendation& r : batch) {
      params.push_back(r.params);
      sig.feed_value(r.params.alpha);
      sig.feed_value(r.params.eps);
      sig.feed_value(r.params.delta);
    }
    batches.push_back(std::move(params));
  }

  const auto t2 = Clock::now();
  for (std::size_t i = 0; i < in.targets.size(); ++i) {
    ScopedSpan span(tracer, "pipeline.verify");
    McmcOptions mcmc = data.mcmc;
    mcmc.seed = seed;
    PerformanceMeasurer measurer(in.targets[i].matrix, data.solve, mcmc);
    const std::vector<real_t> ys = measurer.measure_grouped_medians(
        batches[i], KrylovMethod::kGMRES, 1);
    for (real_t y : ys) {
      if (!label_ok(y)) {
        report.broken("verified y outside (0, y_cap] on " +
                      in.targets[i].name);
      }
      sig.feed_value(y);
    }
    report.attempted += static_cast<long long>(ys.size());
  }
  out.verify_s = since(t2);
  out.loop_s = since(t0);

  ++report.attempted;
  if (probe_false_convergence(in.targets[0], data.solve, sig)) {
    ++report.failed;
  }
  out.signature = sig.digest();
  return out;
}

/// Replays the labelling of one corpus matrix through the public builders
/// and solve(), so its MCMC and Krylov shares can be timed and counted.
/// Seeds follow the dataset builder's derivation for that matrix.
void decompose_labelling(const Inputs& in, u64 seed, Tracer& tracer,
                         Report& report) {
  double extract_s = 0;
  index_t matrix_id = -1;
  for (std::size_t i = 0; i < in.corpus.size(); ++i) {
    const auto t = Clock::now();
    {
      ScopedSpan span(tracer, "features.corpus_extract");
      (void)extract_features(in.corpus[i].matrix);
    }
    extract_s += since(t);
    if (in.corpus[i].name == kDecomposed) matrix_id = static_cast<index_t>(i);
  }
  report.set("features.corpus_extract_s", extract_s, "s");
  if (matrix_id < 0) {
    report.broken(std::string("corpus lacks ") + kDecomposed);
    return;
  }
  const CsrMatrix& a = in.corpus[static_cast<std::size_t>(matrix_id)].matrix;

  DatasetBuildOptions data;
  data.replicates = kReplicates;
  data.seed = seed;
  McmcOptions mcmc = data.mcmc;
  mcmc.seed = mix64(data.seed ^ static_cast<u64>(matrix_id + 1));
  std::vector<u64> replicate_seeds;
  for (index_t r = 0; r < kReplicates; ++r) {
    replicate_seeds.push_back(
        mix64(mcmc.seed + 0x9e3779b9 * static_cast<u64>(r + 1)));
  }
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const KrylovMethod methods[] = {KrylovMethod::kGMRES,
                                  KrylovMethod::kBiCGStab};
  index_t baseline[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    IdentityPreconditioner identity;
    std::vector<real_t> x;
    const SolveResult res = solve(methods[m], a, b, identity, x, data.solve);
    baseline[m] =
        res.converged() ? res.iterations : data.solve.max_iterations;
  }

  double build_s = 0;
  double solve_s = 0;
  long long transitions = 0;
  long long iterations = 0;
  long long past_cap = 0;
  long long false_converged = 0;
  auto score = [&](const SparseApproximateInverse& p) {
    for (int m = 0; m < 2; ++m) {
      std::vector<real_t> x;
      const auto t = Clock::now();
      SolveResult res;
      {
        ScopedSpan span(tracer, "krylov.solve");
        res = solve(methods[m], a, b, p, x, data.solve);
      }
      solve_s += since(t);
      iterations += res.iterations;
      const auto cap = static_cast<long long>(
          std::ceil(kYCap * static_cast<double>(baseline[m])));
      past_cap += std::max(0LL, static_cast<long long>(res.iterations) - cap);
      if (res.converged() &&
          !(true_relative_residual(a, x, b) <= data.solve.tolerance)) {
        ++false_converged;
      }
    }
  };

  for (const AlphaGroup& group : group_grid_by_alpha(data.grid)) {
    const auto t = Clock::now();
    ReplicatedGridResult built;
    {
      ScopedSpan span(tracer, "mcmc.build");
      built = replicate_batched_grid_build(a, group.alpha, group.trials,
                                           replicate_seeds, mcmc);
    }
    build_s += since(t);
    for (BatchedGridResult& rep : built.replicates) {
      for (std::size_t i = 0; i < rep.preconditioners.size(); ++i) {
        transitions += rep.info[i].total_transitions;
        score(SparseApproximateInverse(std::move(rep.preconditioners[i]),
                                       "mcmcmi"));
      }
    }
  }
  // The near-zero-alpha divergence probes of the dataset builder.
  for (index_t d = 0; d < data.divergence_samples; ++d) {
    const McmcParams params{0.01 + 0.01 * static_cast<real_t>(d), 0.5, 0.5};
    for (index_t r = 0; r < kReplicates; ++r) {
      McmcOptions options = mcmc;
      options.seed = replicate_seeds[static_cast<std::size_t>(r)];
      const auto t = Clock::now();
      CsrMatrix pm;
      long long steps = 0;
      {
        ScopedSpan span(tracer, "mcmc.build");
        McmcInverter inverter(a, params, options);
        pm = inverter.compute();
        steps = inverter.info().total_transitions;
      }
      build_s += since(t);
      transitions += steps;
      score(SparseApproximateInverse(std::move(pm), "mcmcmi"));
    }
  }
  report.set("mcmc.build_s", build_s, "s");
  report.set("mcmc.transitions", static_cast<double>(transitions), "count");
  report.set("mcmc.transitions_per_s",
             build_s > 0 ? static_cast<double>(transitions) / build_s : 0.0,
             "1/s");
  report.set("krylov.solve_s", solve_s, "s");
  report.set("krylov.iterations", static_cast<double>(iterations), "count");
  report.set("krylov.iterations_past_cap", static_cast<double>(past_cap),
             "count");
  report.set("krylov.label_false_converged",
             static_cast<double>(false_converged), "count");
}

}  // namespace

void run_tune_paper(const Args& args, Tracer& tracer, Report& report) {
  omp_set_num_threads(capped_threads(kThreads));
  Inputs in;
  {
    ScopedSpan span(tracer, "gen.matrices");
    in.corpus = training_matrix_set(kCorpusMaxDim);
    in.targets.push_back(make_matrix(kUnseen));
    for (const char* name : kHeldOut) in.targets.push_back(make_matrix(name));
  }
  const double setup_s = seconds_since_process_start(args);

  // The untraced rounds fill the run (the first half of a traced run,
  // which then replays the same rounds traced and compares their bits).
  const auto start = Clock::now();
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Round> untraced;
  tracer.set_enabled(false);
  do {
    untraced.push_back(run_round(
        in, round_seed(args.seed, static_cast<long long>(untraced.size())),
        tracer, report));
  } while (since(start) < untraced_budget);
  const double measured_s = since(start);

  if (!args.trace) {
    report.set("setup_s", setup_s, "s");
    report.set("time_to_warm_s",
               median_of(untraced, [](const Round& r) { return r.warm_s; }),
               "s");
    report.set("time_to_solution_s",
               median_of(untraced, [](const Round& r) { return r.loop_s; }),
               "s");
    report.set("warm_p50_ms", 1e3 * median_of(untraced, [](const Round& r) {
                                return r.recommend_s;
                              }),
               "ms");
    report.set("ops_per_s", static_cast<double>(report.attempted) / measured_s,
               "1/s");
    return;
  }

  tracer.set_enabled(true);
  std::vector<Round> traced;
  const auto traced_start = Clock::now();
  do {
    const std::size_t j = traced.size();
    traced.push_back(run_round(
        in, round_seed(args.seed, static_cast<long long>(j)), tracer, report));
    if (j < untraced.size() && traced[j].signature != untraced[j].signature) {
      report.broken("a traced round's labels, recommendations or y's "
                    "differ from the untraced round");
    }
  } while (since(traced_start) < args.seconds - untraced_budget);
  decompose_labelling(in, round_seed(args.seed, 0), tracer, report);

  const std::size_t paired = std::min(traced.size(), untraced.size());
  const std::vector<Round> untraced_paired(untraced.begin(),
                                           untraced.begin() + paired);
  const std::vector<Round> traced_paired(traced.begin(),
                                         traced.begin() + paired);
  auto loop = [](const Round& r) { return r.loop_s; };
  report.set("trace.overhead_pct",
             100.0 * (median_of(traced_paired, loop) /
                          median_of(untraced_paired, loop) -
                      1.0),
             "%");
  report.set("pipeline.label_s",
             median_of(traced, [](const Round& r) { return r.label_s; }), "s");
  report.set("pipeline.labels",
             median_of(traced, [](const Round& r) { return r.labels; }),
             "count");
  report.set("pipeline.labels_capped",
             median_of(traced, [](const Round& r) { return r.capped; }),
             "count");
  report.set("pipeline.verify_s",
             median_of(traced, [](const Round& r) { return r.verify_s; }),
             "s");
  report.set("surrogate.train_s",
             median_of(traced, [](const Round& r) { return r.train_s; }), "s");
  report.set("surrogate.epochs",
             median_of(traced, [](const Round& r) { return r.epochs; }),
             "count");
  report.set("surrogate.val_loss",
             median_of(traced, [](const Round& r) { return r.val_loss; }),
             "1");
  report.set("features.extract_s",
             median_of(traced, [](const Round& r) { return r.extract_s; }),
             "s");
  report.set("gnn.cache_s",
             median_of(traced, [](const Round& r) { return r.cache_s; }), "s");
  report.set("bo.recommend_s",
             median_of(traced, [](const Round& r) { return r.bo_s; }), "s");
  report_self_times(tracer, report);
}

}  // namespace perfbench
