#pragma once
// The three workloads.  Each one builds its inputs from the seed, times its
// own cold set-up from the process start, runs whole rounds of the same
// operations until the time is up, checks every answer, and fills the
// report with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

void run_tune_paper(const Args& args, Tracer& tracer, Report& report);
void run_solve_large(const Args& args, Tracer& tracer, Report& report);
void run_serve_mixed(const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench
