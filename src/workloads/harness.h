// Failure-driving harness: runs a workload under a seeded preemptive
// scheduler until the expected failure fires, then captures the coredump.
//
// This stands in for "production": the harness records nothing, and RES sees
// only the module and the coredump, exactly as the paper prescribes.
#ifndef RES_WORKLOADS_HARNESS_H_
#define RES_WORKLOADS_HARNESS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/support/status.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace res {

struct FailureRunOptions {
  uint64_t first_seed = 1;
  uint64_t max_steps_per_try = 200000;
  // Require that no thread has exited when the trap fires (keeps racing
  // peers' stacks in the dump).
  bool require_live_peers = false;
};

struct FailureRun {
  Coredump dump;
  RunResult run;
  uint64_t seed = 0;              // scheduler seed that triggered the failure
  uint64_t tries = 0;             // seeds attempted
};

// Runs `spec` until its expected trap fires. Each attempt uses a fresh VM
// (all sharing one lowering of `module`), RandomScheduler(seed,
// spec.switch_permille) and the spec's scripted channel-0 inputs (falling
// back to zeroes when the script is empty).
Result<FailureRun> RunToFailure(const Module& module, const WorkloadSpec& spec,
                                FailureRunOptions options = {});

// Live hardware-fault simulation (paper §3.2): runs the module normally for
// `flip_after_steps` instructions, flips one random bit of one mapped
// global-segment word (a DRAM fault), and resumes. If the corruption makes
// the program fail, returns the resulting coredump — a dump whose failure no
// feasible execution can explain. Returns NotFound when the run still
// completes normally (the flip hit dead state); callers retry with another
// seed / flip point.
Result<Coredump> RunWithMemoryFault(const Module& module,
                                    const std::vector<int64_t>& inputs,
                                    uint64_t flip_after_steps, uint64_t rng_seed);

}  // namespace res

#endif  // RES_WORKLOADS_HARNESS_H_
