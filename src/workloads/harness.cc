#include "src/workloads/harness.h"

#include <vector>

#include "src/support/rng.h"
#include "src/support/string_util.h"

namespace res {

namespace {

// Scheduler seeds tried before a workload is declared non-failing.
constexpr uint64_t kMaxSeedTries = 20000;

}  // namespace

Result<FailureRun> RunToFailure(const Module& module, const WorkloadSpec& spec,
                                FailureRunOptions options) {
  // One lowering per call, shared by every attempt's VM.
  const PredecodedModule predecoded = PredecodedModule::Build(module);
  for (uint64_t attempt = 0; attempt < kMaxSeedTries; ++attempt) {
    uint64_t seed = options.first_seed + attempt;
    VmOptions vm_options;
    vm_options.max_steps = options.max_steps_per_try;
    Vm vm(&module, vm_options);
    vm.set_predecoded(&predecoded);
    RandomScheduler scheduler(seed, spec.switch_permille);
    RoundRobinScheduler round_robin;
    if (spec.multithreaded) {
      vm.set_scheduler(&scheduler);
    } else {
      vm.set_scheduler(&round_robin);
    }
    QueueInputProvider inputs(/*fallback=*/0);
    inputs.PushAll(0, spec.channel0_inputs);
    vm.set_input_provider(&inputs);
    Status reset = vm.Reset();
    if (!reset.ok()) {
      return reset;
    }
    RunResult run = vm.Run();
    if (run.outcome != RunOutcome::kTrapped || run.trap.kind != spec.expected_trap) {
      if (!spec.multithreaded) {
        break;  // deterministic schedule: retrying cannot change the outcome
      }
      continue;
    }
    if (options.require_live_peers) {
      bool any_exited = false;
      for (const Thread& t : vm.threads()) {
        if (t.state == ThreadState::kExited) {
          any_exited = true;
          break;
        }
      }
      if (any_exited) {
        continue;
      }
    }
    if (spec.dump_predicate) {
      Coredump probe = CaptureCoredump(vm);
      if (!spec.dump_predicate(module, probe)) {
        continue;
      }
    }
    FailureRun result;
    result.dump = CaptureCoredump(vm);
    result.run = run;
    result.seed = seed;
    result.tries = attempt + 1;
    return result;
  }
  return NotFound(StrFormat("workload '%s' did not produce trap '%s' within %llu seeds",
                            spec.name.c_str(),
                            std::string(TrapKindName(spec.expected_trap)).c_str(),
                            static_cast<unsigned long long>(kMaxSeedTries)));
}

Result<Coredump> RunWithMemoryFault(const Module& module,
                                    const std::vector<int64_t>& inputs,
                                    uint64_t flip_after_steps, uint64_t rng_seed) {
  Vm vm(&module);
  RoundRobinScheduler scheduler;
  vm.set_scheduler(&scheduler);
  QueueInputProvider provider(/*fallback=*/1);
  provider.PushAll(0, inputs);
  vm.set_input_provider(&provider);
  RES_RETURN_IF_ERROR(vm.Reset());

  RunResult phase1 = vm.RunBounded(flip_after_steps);
  if (phase1.outcome != RunOutcome::kStepLimit) {
    return NotFound("program finished before the fault could be injected");
  }

  // Flip one bit of one mapped globals-segment word.
  std::vector<uint64_t> candidates;
  vm.memory().ForEachWord([&candidates](uint64_t addr, int64_t value) {
    if (IsGlobalAddress(addr)) {
      candidates.push_back(addr);
    }
  });
  if (candidates.empty()) {
    return NotFound("no global words to corrupt");
  }
  Rng rng(rng_seed);
  uint64_t addr = candidates[rng.NextBelow(candidates.size())];
  int bit = static_cast<int>(rng.NextBelow(64));
  int64_t old_value = vm.memory().ReadWord(addr).value();
  int64_t new_value =
      static_cast<int64_t>(static_cast<uint64_t>(old_value) ^ (1ULL << bit));
  vm.mutable_memory()->WriteWordUnchecked(addr, new_value);

  RunResult phase2 = vm.Run();
  if (phase2.outcome != RunOutcome::kTrapped || !IsFailureTrap(phase2.trap.kind)) {
    return NotFound("corruption did not cause a failure");
  }
  return CaptureCoredump(vm);
}

}  // namespace res
