// Root-cause detectors over synthesized suffixes (paper §3).
//
// Once RES has a feasible suffix, these analyses name the defect class and
// the program locations responsible — the key enabler for root-cause-based
// triaging (§3.1). They operate purely on the suffix (accesses, events,
// locksets) plus the coredump; no ground truth from the workload leaks in.
//
// One detector, in two halves: a RootCauseContext folds each unit of a
// suffix chain in O(|unit|) (per-kind partial scans, candidate chains, a
// def-use origin fold), and DetectRootCausesIncremental consumes the folded
// context instead of re-walking the suffix. A pass falls back to a scan of
// the chain only where a sound screen cannot rule it out. The engine folds
// per appended unit while it detects per node, and folds a final verdict's
// chain once (src/res/reverse_engine.cc). tests/engine_golden_test.cc pins
// the detector's output.
#ifndef RES_RES_ROOT_CAUSE_H_
#define RES_RES_ROOT_CAUSE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/suffix.h"
#include "src/support/persistent.h"
#include "src/symbolic/expr.h"

namespace res {

enum class RootCauseKind : uint8_t {
  kDataRace = 0,
  kAtomicityViolation,
  kOrderViolation,
  kBufferOverflow,
  kUseAfterFree,
  kDoubleFree,
  kDivByZero,
  kSemanticBug,      // assert failure explained by an in-suffix writer
  kWildPointer,      // memory fault with an in-suffix address origin
  kDeadlock,
  kUnknown,
};

std::string_view RootCauseKindName(RootCauseKind kind);

struct RootCause {
  RootCauseKind kind = RootCauseKind::kUnknown;
  Pc site_a;             // primary location (e.g. racing write, free site)
  Pc site_b;             // secondary location (e.g. racing read, crash site)
  uint32_t thread_a = 0;
  uint32_t thread_b = 0;
  uint64_t address = 0;  // contended / corrupted memory word
  bool input_tainted = false;  // the defect is fed by external input (§3.1)
  std::string description;

  // Canonical bucket key: identical root causes map to identical signatures
  // even when the failure sites differ (the WER-beating property).
  std::string BucketSignature(const Module& module) const;
};

// Detector work is counted into ResStats::detector_units_scanned
// (src/res/reverse_engine.h): one visit per folded unit, plus the fallback
// scans detection could not answer from the context.
struct ResStats;

// Where a register value came from, chasing def-use chains backward through
// one thread's top-frame units.
struct ValueOrigin {
  std::vector<Pc> writer_pcs;   // in-suffix stores feeding the value
  std::vector<Pc> input_pcs;    // kInput instructions feeding the value
};

// The backward def-use walk behind a register's ValueOrigin, expressed as a
// fold so the detector can advance it one unit at a time: the engine
// appends units in reverse execution order (each new unit is EARLIER in
// time), which is exactly the order a backward walk visits them, so the
// fold state after k appends is the walk's state after its first k units.
// The fold state forks with its hypothesis, so every member is a persistent
// (structurally-shared) container: the live sets shrink as writers are found
// (PersistentEraseSet), the emitted-pc vectors only append. A pathological
// fan-in chain (wide def-use frontier) therefore costs forks O(delta), not
// O(frontier).
struct OriginFold {
  PersistentEraseSet<RegId> live_regs;
  PersistentEraseSet<uint64_t> live_addrs;
  PersistentVector<Pc> writer_pcs;
  PersistentVector<Pc> input_pcs;
  bool stopped = false;  // hit a frame boundary; no further units matter

  // The walk body over instructions [0, scan_end) of `unit` (tracked
  // thread `tid`; foreign units only feed live addrs).
  void ProcessUnit(const Module& module, const SuffixUnit& unit, uint32_t tid,
                   uint32_t scan_end);

  ValueOrigin Finish() const {
    ValueOrigin origin;
    origin.writer_pcs = writer_pcs.Materialize();
    origin.input_pcs = input_pcs.Materialize();
    return origin;
  }
};

// Deadlock detection needs no suffix: the waits-for cycle is in the dump.
std::optional<RootCause> DetectDeadlockCycle(const Module& module,
                                             const Coredump& dump);

// Per-engine immutable precomputation shared by every hypothesis's context:
// everything about detection that depends only on <module, dump>.
struct RootCauseSetup {
  // Cached DetectDeadlockCycle verdict (a pure function of the dump).
  std::optional<RootCause> deadlock;
  // Trap-operand def-use tracking is live for this dump: the trap kind is
  // div/assert/fault, the trap instruction exists, and it has the operand.
  bool track_origin = false;
  RegId origin_operand = kNoReg;
  uint32_t trap_thread = 0;
  // Lock words blocked threads wait on (sorted unique). With a context's
  // lock_mutexes, the words whose owners at suffix start seed the lockset
  // scan.
  std::vector<uint64_t> blocked_mutexes;
};

RootCauseSetup MakeRootCauseSetup(const Module& module, const Coredump& dump);

// Per-hypothesis detector state, threaded through the suffix chain the way
// SolverContext threads solver state: forked (value-copied) with its
// hypothesis in O(delta) — the bulk of the state is shared immutable chains
// — and advanced by AppendUnit once per appended unit.
struct RootCauseContext {
  // --- Buffer-overflow pass: per-unit witnesses, found at append time. ---
  // Chain of prebuilt causes; head = newest append = earliest execution, so
  // walking `prev` yields the witnesses in execution order.
  struct OverflowWitness {
    RootCause cause;           // complete except a possible taint refinement
    bool needs_taint = false;  // run the def-use track at detect time
    uint32_t value_reg = 0;    // stored register to track (winst->ra)
    uint32_t before_index = 0; // the write's instruction index
    uint32_t tid = 0;
    size_t unit_depth = 0;     // owning unit's chain depth (ui = n - depth)
    std::shared_ptr<const OverflowWitness> prev;
  };
  std::shared_ptr<const OverflowWitness> overflows;

  // --- Concurrency pass screen. ---
  // A data-race / atomicity / order-violation match needs two non-sync
  // accesses to one address from two distinct threads, at least one a
  // write. Per-address thread/writer masks make that condition checkable in
  // O(1) per appended access; while it is false the whole concurrency scan
  // is provably empty and is skipped. Once true it latches (the scan runs
  // on a materialized view from then on — exactness over cleverness).
  struct AddrConcInfo {
    uint64_t tids = 0;     // bit t: thread t performed a non-sync access
    uint64_t writers = 0;  // bit t: thread t performed a non-sync write
  };
  PersistentMap<uint64_t, AddrConcInfo> addr_info;
  bool conc_candidate = false;

  // Mutex words seen in lock ops (sorted unique). With the setup's blocked
  // mutexes, the words whose owners at suffix start seed the lockset scan.
  std::vector<uint64_t> lock_mutexes;

  // --- Use-after-free / double-free pass: units containing kFree events.
  // Same chain discipline as `overflows`. Nodes keep the unit alive.
  struct FreeUnit {
    SuffixChainPtr node;
    std::shared_ptr<const FreeUnit> prev;
  };
  std::shared_ptr<const FreeUnit> frees;

  // --- Trap-operand origin fold (when setup.track_origin). ---
  // Seeded with the trap instruction's operand register on first append.
  OriginFold origin;
  bool origin_seeded = false;

  // Folds the chain's new head unit into the context. O(|unit|).
  void AppendUnit(const RootCauseSetup& setup, const Module& module,
                  const Coredump& dump, const SuffixChainPtr& head);
};

// Detection from `ctx`, the context folded over the chain at `chain_head`.
// `lock_owners` (owner tid per mutex word at suffix start) is consulted only
// when ctx.conc_candidate is set; `chain_head` is walked only for fallback
// scans, which count into stats->detector_units_scanned.
std::vector<RootCause> DetectRootCausesIncremental(
    const Module& module, const Coredump& dump, const RootCauseSetup& setup,
    const RootCauseContext& ctx, const SuffixChainNode* chain_head,
    const std::map<uint64_t, uint32_t>& lock_owners, ResStats* stats);

}  // namespace res

#endif  // RES_RES_ROOT_CAUSE_H_
