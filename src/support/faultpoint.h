// Deterministic fault injection for the triage pipeline's failure domains.
//
// A production triage backend ingests untrusted coredumps and must survive
// every internal failure mode — parse errors, invariant violations, solver
// faults — without crashing the batch or poisoning cross-task state. Those
// recovery paths are only trustworthy if they can be *exercised*: this
// header provides named fault sites compiled into the hot paths (coredump
// deserialization, IR verification, solver strategy dispatch, engine steps,
// runtime promotion) and a FaultPlan that makes a chosen site fail on its
// Nth hit, deterministically, as an ordinary Status error.
//
// Usage at a fault site (the site registers itself at static-init time, so
// tests can enumerate every site in the binary):
//
//   RES_FAULT_SITE(kFaultDeserialize, "coredump.deserialize",
//                  StatusCode::kDataLoss);
//   ...
//   RES_RETURN_IF_ERROR(faults.Check(kFaultDeserialize));
//
// Scoping: a FaultScope binds a plan to one logical task (a dump index in a
// triage batch), so a test can poison exactly dump K of a batch. A scope
// with no explicit plan falls back to the process-wide plan parsed from the
// RES_FAULT_PLAN environment variable ("site[=nth][@task],..."), so any
// binary can be fault-tested without recompilation. With no plan armed
// anywhere, Check is two loads and a compare — cheap enough to leave in
// release builds.
//
// Determinism contract: an armed fault fires exactly once, on the Nth
// matching hit. One engine run hits its sites in a fixed order (it searches
// on one thread), so a task-scoped arm fires on the same check in every
// run, and the engine fails that run with the injected Status (see
// ResEngine::Run's finish-time fault check). Across concurrently running
// dumps the hit order of an unscoped (kAnyTask) arm is schedule-dependent;
// plans that need schedule-independent outcomes scope their arms to a
// task.
#ifndef RES_SUPPORT_FAULTPOINT_H_
#define RES_SUPPORT_FAULTPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace res {

// A named fault site. Construct only at namespace scope (via
// RES_FAULT_SITE), from string literals: registration happens once at
// static-init time and the registry stores the views.
class FaultSite {
 public:
  FaultSite(std::string_view name, StatusCode code);

  std::string_view name() const { return name_; }
  // The failure this site surfaces as when it fires (kDataLoss for parse
  // sites, kInternal for invariant sites, ...).
  StatusCode code() const { return code_; }

 private:
  std::string_view name_;
  StatusCode code_;
};

// Declares (and statically registers) one fault site.
#define RES_FAULT_SITE(var, site_name, status_code) \
  static const ::res::FaultSite var { site_name, status_code }

// Every site name registered in this binary, sorted and deduped. Complete
// once static initialization has run (i.e. anywhere inside main/tests).
std::vector<std::string_view> RegisteredFaultSites();

// A set of armed faults: site -> fire on the Nth matching hit. Thread-safe;
// one plan may be consulted concurrently by any number of engine runs.
class FaultPlan {
 public:
  // Matches any task scope (see FaultScope).
  static constexpr int kAnyTask = -1;

  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // Arms `site` to fire on its nth matching hit (nth >= 1), once. `task`
  // restricts the arm to hits from a FaultScope bound to that task;
  // kAnyTask matches every scope.
  void Arm(std::string_view site, uint64_t nth = 1, int task = kAnyTask);

  // Parses a comma-separated arm list: "site[=nth][@task],..." — e.g.
  // "coredump.deserialize,solver.strategy=3@1". Unknown sites are accepted
  // (they simply never fire); malformed numbers are an error.
  Status Parse(std::string_view spec);

  // Consumes one hit of `site` under task scope `task`; true exactly when
  // a matching arm reaches its Nth hit (the arm is then spent).
  bool Fire(std::string_view site, int task = kAnyTask);

  // Total arms spent so far (tests use this to tell whether a poisoned
  // path was reached at all).
  uint64_t fired() const;

  bool empty() const;
  void Clear();

 private:
  struct ArmState {
    int task = kAnyTask;
    uint64_t countdown = 1;  // fires when a matching hit decrements it to 0
    bool spent = false;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<ArmState>, std::less<>> arms_;
  uint64_t fired_ = 0;
};

// The process-wide plan parsed from RES_FAULT_PLAN on first use, or nullptr
// when the variable is unset/empty. Parse errors are reported once to the
// log and leave the plan empty (fail open: never crash the host over a bad
// spec).
FaultPlan* EnvFaultPlan();

// A (plan, task) binding passed down a component stack. Value type, two
// words; default-constructed scopes consult the RES_FAULT_PLAN env plan
// with no task restriction, so free functions can take
// `const FaultScope& faults = {}` and stay env-testable.
struct FaultScope {
  FaultPlan* plan = nullptr;  // nullptr => EnvFaultPlan()
  int task = FaultPlan::kAnyTask;

  // OK, or the injected error ("fault injected at <site>", with the site's
  // StatusCode) when an armed fault fires on this hit.
  Status Check(const FaultSite& site) const;
};

}  // namespace res

#endif  // RES_SUPPORT_FAULTPOINT_H_
