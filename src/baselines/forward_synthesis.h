// Forward execution synthesis baseline (ESD-like, Zamfir & Candea 2010).
//
// The approach the paper argues against for long executions: start from the
// program's initial state and search forward with symbolic execution for an
// execution that reaches the failure. Its cost is proportional to the length
// of the whole execution (and explodes with branching), whereas RES's cost
// tracks only the suffix length. Benchmarks F1/F2 quantify exactly that gap.
//
// Scope: single-threaded programs (the paper's ESD handled concurrency via
// additional machinery; the arbitrary-length comparison doesn't need it).
#ifndef RES_BASELINES_FORWARD_SYNTHESIS_H_
#define RES_BASELINES_FORWARD_SYNTHESIS_H_

#include <cstdint>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"

namespace res {

struct ForwardSynthOptions {
  size_t max_blocks = 2'000'000;    // total blocks symbolically executed
};

struct ForwardSynthResult {
  bool reached_failure = false;     // found a path to the trap PC that traps
  bool budget_exhausted = false;
  bool unsupported = false;         // program uses threads
  size_t blocks_executed = 0;       // the headline cost metric
  size_t states_forked = 0;
  size_t path_length_blocks = 0;    // length of the found path
};

ForwardSynthResult ForwardSynthesize(const Module& module, const Coredump& dump,
                                     ForwardSynthOptions options = {});

}  // namespace res

#endif  // RES_BASELINES_FORWARD_SYNTHESIS_H_
