// Synthetic buggy-program corpus.
//
// The paper's prototype was evaluated on three synthetic concurrency bugs
// (data races / atomicity violations, §4); its use-case discussion (§3)
// additionally names use-after-free, buffer overflow, exploitable input-
// driven crashes, deadlocks, and semantic bugs. This corpus provides all of
// them as resvm programs, plus the two scaling workloads the claims need:
// an arbitrarily-long-execution generator (title claim) and a hard-to-invert
// hash chain (§6 limitation + its "inputs still in memory" workaround).
//
// Workloads are built so the racing peer threads are still live (running or
// blocked) at the crash — the engine attributes suffix units only to threads
// whose stacks survive in the coredump, like the paper's prototype.
#ifndef RES_WORKLOADS_WORKLOADS_H_
#define RES_WORKLOADS_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/root_cause.h"
#include "src/vm/trap.h"

namespace res {

// --- The three §4-style concurrency bugs. ---

// Two workers each perform two non-atomic increments of a shared counter and
// assert the "counter is even when quiescent" invariant; a lost-update /
// torn interleaving fires the assert. Root cause: data race.
Module BuildRacyCounter();

// The same bug with `workers` competing increment pairs: widens the
// backward interleaving frontier so sibling subtrees re-derive permuted
// copies of the same conflicting constraint pairs — the learned-clause
// sharing workload (tests/clause_sharing_test.cc and the F2d section of
// bench_fig_suffix_depth). BuildRacyCounter() == BuildRacyCounterWide(2).
Module BuildRacyCounterWide(int workers);

// Classic TOCTOU: a user thread checks a shared pointer then dereferences it
// again while a second thread nulls it in between. Root cause: atomicity
// violation; failure: wild load of address 0.
Module BuildAtomicityViolation();

// Producer/consumer without synchronization: the consumer divides by a value
// the producer has not published yet. Root cause: order violation; failure:
// division by zero.
Module BuildOrderViolation();

// --- §3 use-case bug classes. ---

// Index read from input overflows a 4-word buffer and corrupts an adjacent
// canary word; a later assert on the canary crashes. Exploitable (§3.1).
Module BuildBufferOverflow();

// Allocation freed through a helper, then dereferenced via one of two
// input-selected call paths — one root cause, two distinct crash stacks.
Module BuildUseAfterFree();

// The same helper frees an allocation twice.
Module BuildDoubleFree();

// Divides by an unvalidated external input (exploitable flavour).
Module BuildDivByZeroInput();

// Stores a miscomputed value and asserts on it later (single-thread
// semantic bug; no concurrency involved).
Module BuildSemanticAssert();

// Two threads acquire two mutexes in opposite orders: ABBA deadlock.
Module BuildDeadlock();

// Correctly locked counter updates followed by an input-driven division —
// negative control: the failure is NOT a race and must not be reported as
// one despite the multithreaded suffix.
Module BuildLockedCounterInputBug();

// --- Scaling workloads. ---

// `iterations` of branchy, state-carrying loop prefix followed by the
// BuildDivByZeroInput failure. RES cost must be flat in `iterations`;
// forward synthesis from the execution start must grow with it.
Module BuildLongExecution(uint64_t iterations);

// Rounds of multiply/shift/xor mixing of an input, then an assert that a
// specific digest was not produced. With `spill_input` the raw input is also
// stored to a global (the paper's "inputs may still be on the stack"
// workaround): RES re-executes the hash concretely. Without it, reversal is
// blocked on inverting the mix. `crashing_input` selects the digest.
Module BuildHashChain(bool spill_input, int64_t crashing_input = 42);

// Root-cause distance ladder for the suffix-depth figure: `filler_blocks`
// branchy blocks separate the corrupting store from the failing assert.
Module BuildRootCauseDistance(uint32_t filler_blocks);

// --- Registry for benches / tests. ---

struct WorkloadSpec {
  std::string name;
  std::function<Module()> build;
  TrapKind expected_trap = TrapKind::kAssertFailure;
  RootCauseKind expected_cause = RootCauseKind::kUnknown;
  std::vector<int64_t> channel0_inputs;  // scripted inputs (empty = none)
  uint32_t switch_permille = 300;        // preemption aggressiveness
  bool multithreaded = false;
  bool requires_live_peers = false;      // seed search must keep peers alive
  // Closely related cause labels that are also correct for some schedules
  // (e.g. a lost update manifests as a data race in one interleaving and as
  // an interrupted read-modify-write in another).
  std::vector<RootCauseKind> also_acceptable;
  // Extra condition the captured dump must satisfy (e.g. "the producer had
  // already published"); null = no constraint.
  std::function<bool(const Module&, const Coredump&)> dump_predicate;
};

// All corpus entries with their ground truth.
const std::vector<WorkloadSpec>& AllWorkloads();

// Lookup by name; aborts on unknown names (test/bench programming error).
const WorkloadSpec& WorkloadByName(const std::string& name);

}  // namespace res

#endif  // RES_WORKLOADS_WORKLOADS_H_
