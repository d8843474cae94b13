#include "src/vm/scheduler_spec.h"

#include <charconv>
#include <limits>

#include "src/support/string_util.h"

namespace res {

namespace {

// Knob applicability, mirrored in RegisteredSchedulerPolicies() and in the
// docs/SCENARIOS.md catalog (tools/check_docs.sh keeps the names in sync).
bool KnobApplies(std::string_view policy, std::string_view knob) {
  if (policy == "rr") {
    return knob == "quantum";
  }
  if (policy == "random") {
    return knob == "seed" || knob == "permille";
  }
  if (policy == "pct") {
    return knob == "seed" || knob == "depth" || knob == "steps";
  }
  if (policy == "delay") {
    return knob == "seed" || knob == "permille" || knob == "max_delay" ||
           knob == "quantum";
  }
  return false;
}

Result<uint64_t> ParseKnobValue(std::string_view policy, std::string_view knob,
                                std::string_view value) {
  uint64_t parsed = 0;
  const char* begin = value.data();
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || ptr != end || value.empty()) {
    return InvalidArgument(StrFormat(
        "scheduler spec: knob '%.*s=%.*s' of policy '%.*s' is not an "
        "unsigned integer",
        static_cast<int>(knob.size()), knob.data(),
        static_cast<int>(value.size()), value.data(),
        static_cast<int>(policy.size()), policy.data()));
  }
  return parsed;
}

}  // namespace

const std::vector<SchedulerPolicyInfo>& RegisteredSchedulerPolicies() {
  static const std::vector<SchedulerPolicyInfo>* policies = [] {
    auto* v = new std::vector<SchedulerPolicyInfo>{
        {"rr", "quantum",
         "fixed-quantum round-robin; fully deterministic, seed-free"},
        {"random", "seed,permille",
         "seeded per-step preemption (the classic corpus driver)"},
        {"pct", "seed,depth,steps",
         "randomized thread priorities with depth-1 seeded change points"},
        {"delay", "seed,permille,max_delay,quantum",
         "round-robin with seeded extra yields injected at schedule points"},
    };
    return v;
  }();
  return *policies;
}

std::string SchedulerSpec::ToString() const {
  if (policy == "rr") {
    return StrFormat("rr:quantum=%u", quantum);
  }
  if (policy == "random") {
    return StrFormat("random:seed=%llu,permille=%u",
                     static_cast<unsigned long long>(seed), permille);
  }
  if (policy == "pct") {
    return StrFormat("pct:seed=%llu,depth=%u,steps=%llu",
                     static_cast<unsigned long long>(seed), depth,
                     static_cast<unsigned long long>(steps));
  }
  if (policy == "delay") {
    return StrFormat("delay:seed=%llu,permille=%u,max_delay=%u,quantum=%u",
                     static_cast<unsigned long long>(seed), permille,
                     max_delay, quantum);
  }
  return policy;
}

Result<SchedulerSpec> ParseSchedulerSpec(std::string_view text) {
  std::string_view trimmed = StrTrim(text);
  if (trimmed.empty()) {
    return InvalidArgument("scheduler spec: empty string");
  }
  std::string_view name = trimmed;
  std::string_view knob_text;
  if (size_t colon = trimmed.find(':'); colon != std::string_view::npos) {
    name = trimmed.substr(0, colon);
    knob_text = trimmed.substr(colon + 1);
  }
  const SchedulerPolicyInfo* info = nullptr;
  for (const SchedulerPolicyInfo& p : RegisteredSchedulerPolicies()) {
    if (p.name == name) {
      info = &p;
      break;
    }
  }
  if (info == nullptr) {
    return InvalidArgument(StrFormat(
        "scheduler spec: unknown policy '%.*s'",
        static_cast<int>(name.size()), name.data()));
  }

  SchedulerSpec spec;
  spec.policy = std::string(name);
  for (std::string_view pair : StrSplit(knob_text, ',', /*skip_empty=*/true)) {
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument(StrFormat(
          "scheduler spec: knob '%.*s' is not of the form name=value",
          static_cast<int>(pair.size()), pair.data()));
    }
    std::string_view knob = StrTrim(pair.substr(0, eq));
    std::string_view value = StrTrim(pair.substr(eq + 1));
    if (!KnobApplies(spec.policy, knob)) {
      return InvalidArgument(StrFormat(
          "scheduler spec: policy '%s' does not accept knob '%.*s' "
          "(accepts: %.*s)",
          spec.policy.c_str(), static_cast<int>(knob.size()), knob.data(),
          static_cast<int>(info->knobs.size()), info->knobs.data()));
    }
    RES_ASSIGN_OR_RETURN(uint64_t parsed,
                         ParseKnobValue(spec.policy, knob, value));
    // Every knob but seed and steps is a uint32_t field: a wider value is
    // rejected, never truncated (truncation would print back unparseable).
    if (knob != "seed" && knob != "steps" &&
        parsed > std::numeric_limits<uint32_t>::max()) {
      return InvalidArgument(StrFormat(
          "scheduler spec: %.*s=%llu does not fit in 32 bits",
          static_cast<int>(knob.size()), knob.data(),
          static_cast<unsigned long long>(parsed)));
    }
    if (knob == "seed") {
      spec.seed = parsed;
    } else if (knob == "quantum") {
      spec.quantum = static_cast<uint32_t>(parsed);
    } else if (knob == "permille") {
      if (parsed > 1000) {
        return InvalidArgument(StrFormat(
            "scheduler spec: permille=%llu exceeds 1000",
            static_cast<unsigned long long>(parsed)));
      }
      spec.permille = static_cast<uint32_t>(parsed);
    } else if (knob == "depth") {
      if (parsed == 0 || parsed > kMaxPctDepth) {
        return InvalidArgument(
            StrFormat("scheduler spec: pct depth must be in 1..%u",
                      kMaxPctDepth));
      }
      spec.depth = static_cast<uint32_t>(parsed);
    } else if (knob == "steps") {
      if (parsed == 0) {
        return InvalidArgument("scheduler spec: pct steps must be >= 1");
      }
      spec.steps = parsed;
    } else if (knob == "max_delay") {
      if (parsed == 0) {
        return InvalidArgument("scheduler spec: delay max_delay must be >= 1");
      }
      spec.max_delay = static_cast<uint32_t>(parsed);
    }
  }
  return spec;
}

Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec) {
  return MakeScheduler(spec, spec.seed);
}

Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec,
                                                 uint64_t seed) {
  if (spec.policy == "rr") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<RoundRobinScheduler>(spec.quantum));
  }
  if (spec.policy == "random") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<RandomScheduler>(seed, spec.permille));
  }
  if (spec.policy == "pct") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<PctScheduler>(seed, spec.depth, spec.steps));
  }
  if (spec.policy == "delay") {
    return std::unique_ptr<Scheduler>(std::make_unique<DelayInjectionScheduler>(
        seed, spec.permille, spec.max_delay, spec.quantum));
  }
  return InvalidArgument(StrFormat(
      "scheduler spec: unknown policy '%s'",
      spec.policy.c_str()));
}

}  // namespace res
