// perfbench: one end-to-end benchmark binary for the three user paths of
// mcmi (the tuning workflow, large solves, served requests).
//
//   perfbench --workload <tune_paper|solve_large|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--t0-ns <ns>] [--out <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Progress and problems go to
// standard error.  perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the metrics and their definitions.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tune_paper|solve_large|serve_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--t0-ns <ns>] [--out <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) usage("bad --trace");
    } else if (key == "--t0-ns") {
      args.t0_ns = std::strtoll(value, &end, 10);
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad number for " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Tracer tracer;
  tracer.set_enabled(args.trace);
  perfbench::Report report;
  try {
    if (args.workload == "tune_paper") {
      perfbench::run_tune_paper(args, tracer, report);
    } else if (args.workload == "solve_large") {
      perfbench::run_solve_large(args, tracer, report);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, tracer, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "_trace" : "");
  ::mkdir(args.out_dir.c_str(), 0755);
  if (args.trace && !tracer.write_chrome_json(stem + ".trace.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 stem.c_str());
  }
  const std::string line = report.json();
  if (std::FILE* f = std::fopen((stem + ".result.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return report.correct ? 0 : 1;
}
