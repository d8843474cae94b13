// Bug-report triaging (paper §3.1).
//
// Two bucketers over incoming coredumps:
//  - StackBucketer: the WER-style baseline — group by the faulting thread's
//    call-stack signature. One root cause that crashes at several sites is
//    split across buckets; unrelated bugs that crash at the same site merge.
//  - ResBucketer: run RES on each dump and group by the root cause's
//    canonical signature; falls back to the stack signature when RES finds
//    no cause within budget.
//
// Plus exploitability rating (§3.1's second half):
//  - HeuristicExploitabilityRater: a !exploitable-style classifier that only
//    sees the trap kind and faulting access.
//  - ResExploitabilityRater: uses RES's taint verdict (failure fed by
//    external input) for the rating.
#ifndef RES_TRIAGE_TRIAGE_H_
#define RES_TRIAGE_TRIAGE_H_

#include <map>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/reverse_engine.h"

namespace res {

// Result -> verdict mappings shared by the solo classes below and by
// TriageDaemon (src/triage/triage_daemon.h), which derives bucket AND
// rating from one engine run per dump instead of two.
std::string BucketFromResult(const Module& module, const Coredump& dump,
                             const ResResult& result);

class StackBucketer {
 public:
  explicit StackBucketer(const Module& module) : module_(module) {}
  std::string BucketFor(const Coredump& dump) const;

 private:
  const Module& module_;
};

class ResBucketer {
 public:
  ResBucketer(const Module& module, ResOptions options = {})
      : module_(module), options_(options) {}
  // Runs a fresh RES engine over the dump; returns the root-cause signature
  // or "stack:<signature>" when no cause was established. When `stats` is
  // given it receives the engine run's counters (bench perf records).
  std::string BucketFor(const Coredump& dump, ResStats* stats = nullptr) const;

 private:
  const Module& module_;
  ResOptions options_;
};

// Pairwise bucketing accuracy: over all report pairs, the fraction whose
// same-bucket relation matches the ground-truth same-bug relation. 1.0 is
// perfect; WER-style bucketing loses points on split/merged buckets.
double PairwiseBucketingAccuracy(const std::vector<std::string>& buckets,
                                 const std::vector<std::string>& ground_truth);

enum class Exploitability : uint8_t {
  kExploitable = 0,
  kProbablyExploitable = 1,
  kProbablyNotExploitable = 2,
  kUnknown = 3,
};

std::string_view ExploitabilityName(Exploitability e);

// The RES taint-based rating over a finished engine run (the other half of
// the shared result -> verdict logic; see BucketFromResult).
Exploitability RateFromResult(const ResResult& result);

class HeuristicExploitabilityRater {
 public:
  // Trap-kind heuristics in the spirit of Microsoft !exploitable.
  Exploitability Rate(const Coredump& dump) const;
};

class ResExploitabilityRater {
 public:
  ResExploitabilityRater(const Module& module, ResOptions options = {})
      : module_(module), options_(options) {}
  // kExploitable iff RES shows external input feeding the failure. When
  // `stats` is given it receives the engine run's counters (bench records).
  Exploitability Rate(const Coredump& dump, ResStats* stats = nullptr) const;

 private:
  const Module& module_;
  ResOptions options_;
};

}  // namespace res

#endif  // RES_TRIAGE_TRIAGE_H_
