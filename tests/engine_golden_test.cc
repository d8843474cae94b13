// Golden engine signatures: each case's full observable outcome — stop
// reason, hardware verdict, synthesized suffix (units, schedule, rendered
// constraints), root causes, and every engine and solver counter — is hashed
// and compared against a checked-in line. The lines were generated by the
// engine this suite pins, so a mismatch means the search changed what it
// publishes or what it counts. On a mismatch the
// test prints the full signature and the line the current engine would
// check in; update the table only after reviewing why the output moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <iterator>
#include <string>
#include <string_view>

#include "src/res/res_api.h"
#include "src/support/hash.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// Everything observable about an engine run, rendered to one string.
// Deliberately includes the constraint vector (rendered through the
// deterministic variable names) and the per-unit schedule, not just coarse
// outcomes.
struct Signature {
  std::string stop;
  size_t units = 0;
  std::string first_cause = "none";
  std::string text;

  // `<case> <stop> <units> <first cause> <64-bit hash of the signature>`.
  std::string Line(const char* name) const {
    return StrFormat("%s %s %zu %s %016" PRIx64, name, stop.c_str(), units,
                     first_cause.c_str(), FnvHashString(text));
  }
};

Signature RunSignature(const Module& module, const Coredump& dump,
                       const ResOptions& options) {
  ResEngine engine(module, dump, options);
  ResResult result = engine.Run();

  Signature sig;
  sig.stop = std::string(StopReasonName(result.stop));
  sig.text += StrFormat("stop=%s hw=%d inconsistent=%d explored=%llu\n",
                        sig.stop.c_str(),
                        result.hardware_error_suspected ? 1 : 0,
                        result.dump_inconsistent_at_trap ? 1 : 0,
                        static_cast<unsigned long long>(
                            result.stats.hypotheses_explored));
  if (result.suffix.has_value()) {
    const SynthesizedSuffix& s = *result.suffix;
    sig.units = s.units.size();
    sig.text += StrFormat("suffix units=%zu verified=%d\n", s.units.size(),
                          s.verified ? 1 : 0);
    sig.text += SuffixToString(module, s);
    sig.text += "constraints:\n";
    for (const Expr* c : s.constraints) {
      sig.text += ExprToString(*engine.pool(), c);
      sig.text += "\n";
    }
  } else {
    sig.text += "suffix none\n";
  }
  sig.text += StrFormat("causes=%zu\n", result.causes.size());
  for (const RootCause& cause : result.causes) {
    sig.text += StrFormat("  %s | %s | %s\n",
                          std::string(RootCauseKindName(cause.kind)).c_str(),
                          cause.BucketSignature(module).c_str(),
                          cause.description.c_str());
  }
  if (!result.causes.empty()) {
    sig.first_cause = std::string(RootCauseKindName(result.causes.front().kind));
  }
  // Every engine and solver counter, one line each, walked from the lists.
  sig.text += "counters:\n";
  result.stats.ForEachCounter([&sig](std::string_view key, uint64_t value) {
    sig.text += StrFormat("%s=%llu\n", std::string(key).c_str(),
                          static_cast<unsigned long long>(value));
  });
  return sig;
}

void ExpectGolden(const char* name, const char* golden, const Module& module,
                  const Coredump& dump, const ResOptions& options) {
  Signature sig = RunSignature(module, dump, options);
  const std::string line = sig.Line(name);
  EXPECT_EQ(line, golden) << "signature:\n" << sig.text;
}

// Golden lines, one per case.
constexpr const char* kCorpusGolden[] = {
    "div_by_zero_input root_cause_found 2 div_by_zero 2a41d41801d156d6",
    "semantic_assert root_cause_found 2 semantic_bug d86e6618e5b1e7db",
    "use_after_free root_cause_found 4 use_after_free a6f3971bf4ef6526",
    "double_free root_cause_found 3 double_free ad244a064d2ba4f9",
    "racy_counter root_cause_found 5 atomicity_violation 3384711ff8f03dc6",
    "buffer_overflow root_cause_found 3 buffer_overflow 354af35c068f718a",
    "atomicity_violation root_cause_found 3 atomicity_violation "
    "da596f1d25210549",
    "order_violation reached_start 6 order_violation 746aafc94b2507c6",
};
constexpr const char* kDeepChainGolden =
    "root_cause_distance_48 root_cause_found 50 semantic_bug c516da69c49acf21";
constexpr const char* kFullSynthesisGolden =
    "full_synthesis reached_start 2 div_by_zero c4f0effa0808c8a3";

TEST(EngineGoldenTest, WorkloadCorpus) {
  const char* names[] = {"div_by_zero_input", "semantic_assert",
                         "use_after_free",    "double_free",
                         "racy_counter",      "buffer_overflow",
                         "atomicity_violation", "order_violation"};
  static_assert(std::size(names) == std::size(kCorpusGolden));
  for (size_t i = 0; i < std::size(names); ++i) {
    const WorkloadSpec& spec = WorkloadByName(names[i]);
    Module module = spec.build();
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    ASSERT_TRUE(run.ok()) << names[i];
    ExpectGolden(names[i], kCorpusGolden[i], module, run.value().dump,
                 ResOptions{});
  }
}

TEST(EngineGoldenTest, DeepSuffixChain) {
  // The depth-scaling workload: incremental solver contexts forked down a
  // long linear chain.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ExpectGolden("root_cause_distance_48", kDeepChainGolden, module,
               run.value().dump, options);
}

TEST(EngineGoldenTest, FullSynthesis) {
  // stop_at_root_cause=false reaches back to program start: the
  // complete-start step instead of detection.
  Module module = BuildDivByZeroInput();
  const WorkloadSpec& spec = WorkloadByName("div_by_zero_input");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.stop_at_root_cause = false;
  ExpectGolden("full_synthesis", kFullSynthesisGolden, module,
               run.value().dump, options);
}

}  // namespace
}  // namespace res
