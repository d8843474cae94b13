// Scheduler policy registry: string-addressable scheduler construction.
//
// A SchedulerSpec is the parsed form of a spec string like
//
//   "rr:quantum=16"  "random:seed=3,permille=350"
//   "pct:seed=7,depth=3,steps=4096"  "delay:seed=5,permille=250,max_delay=4"
//
// Grammar:  policy[:knob=value[,knob=value]...]   (docs/SCENARIOS.md)
//
// Every knob is optional (defaults below); unknown policies, knobs that do
// not apply to the policy, and malformed values are InvalidArgument — never
// a crash. MakeScheduler(spec) is a deterministic function of the spec:
// the same (spec, seed) always reproduces the same interleaving, which is
// what lets the scenario sweep driver (src/scenario/) treat each
// policy x seed grid point as a reproducible workload variant.
//
// The registry lists only the policies a spec can build. The replay
// scheduler (SliceScheduler) is not among them: its defining argument is
// an explicit schedule, produced by the replay pipeline, not a knob.
#ifndef RES_VM_SCHEDULER_SPEC_H_
#define RES_VM_SCHEDULER_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"
#include "src/vm/scheduler.h"

namespace res {

// Largest accepted pct depth. PctScheduler samples depth-1 change points up
// front, so the cap bounds its construction; the corpus uses depths 1..5.
inline constexpr uint32_t kMaxPctDepth = 64;

struct SchedulerSpec {
  std::string policy = "rr";   // canonical registry name
  uint64_t seed = 1;           // random / pct / delay
  uint32_t quantum = 16;       // rr / delay (delay's inner round-robin)
  uint32_t permille = 300;     // random (switch) / delay (injection) chance
  uint32_t depth = 3;          // pct: bug depth (depth-1 change points)
  uint64_t steps = 4096;       // pct: change-point sampling horizon
  uint32_t max_delay = 4;      // delay: longest injected yield burst

  // Canonical round-trippable spec string: policy name plus exactly the
  // knobs that apply to it, in registry order.
  std::string ToString() const;

  bool operator==(const SchedulerSpec&) const = default;
};

// One registry row per policy. `knobs` is the comma-separated list of knob
// names the policy accepts.
struct SchedulerPolicyInfo {
  std::string_view name;
  std::string_view knobs;
  std::string_view summary;
};

// All registered policies, in catalog order. docs/SCENARIOS.md's policy
// catalog is kept in sync with this list by tools/check_docs.sh.
const std::vector<SchedulerPolicyInfo>& RegisteredSchedulerPolicies();

// Parses a spec string. Errors (unknown policy, unknown or inapplicable
// knob, malformed value, a value that does not fit its field, pct depth
// above kMaxPctDepth) are InvalidArgument.
Result<SchedulerSpec> ParseSchedulerSpec(std::string_view text);

// Builds the scheduler the spec describes, using spec.seed for the seeded
// policies. Returns InvalidArgument for an unregistered policy.
Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec);

// Grid-sweep form: same spec, explicit seed (overrides spec.seed). The
// sweep driver holds one parsed spec per policy and varies only the seed.
Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec,
                                                 uint64_t seed);

}  // namespace res

#endif  // RES_VM_SCHEDULER_SPEC_H_
