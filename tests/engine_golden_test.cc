// Golden engine signatures: each case's full observable outcome — stop
// reason, hardware verdict, synthesized suffix (units, schedule, rendered
// constraints), root causes with their taint flags and threads, every
// engine and solver counter, and the size of the run's expression pool — is
// hashed and compared against a checked-in line. Each line carries two
// hashes: the full one, and one over the rendered output alone (taint,
// threads and counters left out) with every variable renamed by first
// appearance, so a change that only renumbers the variables the engine mints
// keeps the second hash while moving the first. The lines were generated by
// the engine this suite pins, so a mismatch means the search changed what it
// publishes or what it counts. On a mismatch the test prints the full
// signature and the line the current engine would check in; update the table
// only after reviewing why the output moved.
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <iterator>
#include <map>
#include <string>
#include <string_view>

#include "src/coredump/serialize.h"
#include "src/ir/builder.h"
#include "src/res/res_api.h"
#include "src/scenario/scenario.h"
#include "src/support/hash.h"
#include "src/support/string_util.h"
#include "src/symbolic/expr.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// `text` with every engine variable (a word that ParseVarKeyName accepts)
// renamed `<tag>#<k>`, k numbering the distinct variables in order of first
// appearance.
std::string RenameVars(const std::string& text) {
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::map<std::string, std::string> names;
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (!is_word(text[i])) {
      out += text[i++];
      continue;
    }
    size_t end = i;
    while (end < text.size() && is_word(text[end])) {
      ++end;
    }
    const std::string word = text.substr(i, end - i);
    i = end;
    if (!ParseVarKeyName(word)) {
      out += word;
      continue;
    }
    auto [slot, fresh] = names.emplace(word, "");
    if (fresh) {
      slot->second = StrFormat("%s#%zu", word.substr(0, word.find('_')).c_str(),
                               names.size() - 1);
    }
    out += slot->second;
  }
  return out;
}

// Everything observable about an engine run, rendered to one string.
// Deliberately includes the constraint vector (rendered through the
// deterministic variable names) and the per-unit schedule, not just coarse
// outcomes.
struct Signature {
  std::string stop;
  size_t units = 0;
  std::string first_cause = "none";
  std::string text;     // the output, then every counter
  std::string renamed;  // the output alone, variables renamed (RenameVars)

  // `<case> <stop> <units> <first cause> <hash of text> <hash of renamed>`.
  std::string Line(const char* name) const {
    return StrFormat("%s %s %zu %s %016" PRIx64 " %016" PRIx64, name,
                     stop.c_str(), units, first_cause.c_str(),
                     FnvHashString(text), FnvHashString(renamed));
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
  sig.renamed = RenameVars(sig.text);
  // Each cause's taint flag and threads, which the rendered causes above
  // leave out; then every engine and solver counter, one line each, walked
  // from the lists, then the size of the run's private pool.
  for (const RootCause& cause : result.causes) {
    sig.text += StrFormat("taint=%d t%u/t%u\n", cause.input_tainted ? 1 : 0,
                          cause.thread_a, cause.thread_b);
  }
  sig.text += "counters:\n";
  result.stats.ForEachCounter([&sig](std::string_view key, uint64_t value) {
    sig.text += StrFormat("%s=%llu\n", std::string(key).c_str(),
                          static_cast<unsigned long long>(value));
  });
  sig.text += StrFormat("pool_vars=%zu\npool_nodes=%zu\n",
                        engine.pool()->var_count(),
                        engine.pool()->node_count());
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
    "div_by_zero_input root_cause_found 2 div_by_zero "
    "0484b618b8a787fc db2e290cb0b1f603",
    "semantic_assert root_cause_found 2 semantic_bug "
    "deafe4b47b00ac37 ccb30f9374a36c77",
    "use_after_free root_cause_found 4 use_after_free "
    "95367c0b74ea20dd b464612ff13a544a",
    "double_free root_cause_found 3 double_free "
    "854772e8df7eaf7f 9cf00da63237a67d",
    "racy_counter root_cause_found 5 atomicity_violation "
    "a9c46ddcccb33695 6641805f830a202e",
    "buffer_overflow root_cause_found 3 buffer_overflow "
    "a041114d42349524 3dbfa7c92043f515",
    "atomicity_violation root_cause_found 3 atomicity_violation "
    "83140462217f1333 117eff5a023a2151",
    "order_violation reached_start 6 order_violation "
    "94dcb35f3355aed8 b11148896be58671",
    "deadlock root_cause_found 0 deadlock "
    "0f04039b0a8e18fe 08df21ca33bb67bb",
    "locked_counter_input_bug root_cause_found 2 div_by_zero "
    "546fcfc60e2f496a 457e2d550c64fbed",
};
constexpr const char* kMinidumpGolden =
    "use_after_free_minidump frontier_exhausted 3 none "
    "4d13269a8ddcbc9d 27c0d3fb277a5620";
constexpr const char* kSweepGolden =
    "sweep_grid fixtures=67 315 with_cause=67 "
    "b42a87312bf7af0e d1f27b03d67d89da";
constexpr const char* kDeepChainGolden =
    "root_cause_distance_48 root_cause_found 50 semantic_bug "
    "b951719311375605 0aad6abaa80e9f44";
constexpr const char* kFullSynthesisGolden =
    "full_synthesis reached_start 2 div_by_zero "
    "a97c86270aaba7d2 b7df6adde8c565f8";
constexpr const char* kSpawnForkGolden[] = {
    "racy_wide4_budget budget 17 atomicity_violation "
    "b666f3755a482c54 73b9f3cef314777c",
    "racy_wide4_full reached_start 21 atomicity_violation "
    "b1c08431af2e6501 9b9a64d84b4435be",
};
constexpr const char* kAddressForkGolden =
    "address_fork reached_start 2 semantic_bug "
    "1b592f0297da2a59 c1e2349b9bcf6a8f";
constexpr const char* kDecisionProceduresGolden[] = {
    "hash_chain_spilled reached_start 4 semantic_bug "
    "22d63e092c6a0e30 bf13edebe454f102",
    "hash_chain_unspilled reached_start 4 semantic_bug "
    "5f0db65cc162d55d 848b69faec13f5f8",
    "long_execution_no_breadcrumbs max_depth 24 div_by_zero "
    "273f60e6b9a0d87a 3763096d7a63f978",
};

TEST(EngineGoldenTest, WorkloadCorpus) {
  const char* names[] = {"div_by_zero_input",   "semantic_assert",
                         "use_after_free",      "double_free",
                         "racy_counter",        "buffer_overflow",
                         "atomicity_violation", "order_violation",
                         "deadlock",            "locked_counter_input_bug"};
  static_assert(std::size(names) == std::size(kCorpusGolden));
  ASSERT_EQ(std::size(names), AllWorkloads().size());
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

TEST(EngineGoldenTest, Minidump) {
  // A dump without its memory image: the detector screens must stay sound
  // when memory reads are unconstrained.
  const WorkloadSpec& spec = WorkloadByName("use_after_free");
  Module module = spec.build();
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ExpectGolden("use_after_free_minidump", kMinidumpGolden, module,
               MakeMinidump(run.value().dump), ResOptions{});
}

TEST(EngineGoldenTest, SweepGrid) {
  // Every fixture the fixed schedule-space grid mints, analyzed with the
  // default options: one line over all of them, in sweep order. The line's
  // middle fields count the fixtures, their suffix units and the fixtures
  // with a cause.
  auto sweep = RunSweep(DefaultSweepGrid());
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  Signature all;
  size_t with_cause = 0;
  for (size_t i = 0; i < sweep.value().fixtures.size(); ++i) {
    const FixtureRecord& f = sweep.value().fixtures[i];
    Module module = WorkloadByName(f.workload).build();
    auto dump = DeserializeCoredump(sweep.value().dump_blobs[i]);
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    Signature sig = RunSignature(module, dump.value(), ResOptions{});
    const std::string header =
        StrFormat("fixture %s %s seed=%llu\n", f.workload.c_str(),
                  f.policy.c_str(), static_cast<unsigned long long>(f.seed));
    all.text += header + sig.text;
    all.renamed += header + sig.renamed;
    all.units += sig.units;
    with_cause += sig.first_cause != "none" ? 1 : 0;
  }
  all.stop = StrFormat("fixtures=%zu", sweep.value().fixtures.size());
  all.first_cause = StrFormat("with_cause=%zu", with_cause);
  EXPECT_EQ(all.Line("sweep_grid"), kSweepGolden);
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

TEST(EngineGoldenTest, SpawnForks) {
  // Four identical live workers: reversing main's kSpawns links each to one
  // of several threads still at birth, a multi-way choice at every spawn.
  // Full synthesis under a tight and a looser hypothesis budget.
  Module module = BuildRacyCounterWide(4);
  const WorkloadSpec& spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.stop_at_root_cause = false;
  options.max_units = 48;
  const char* names[] = {"racy_wide4_budget", "racy_wide4_full"};
  const size_t budgets[] = {50, 200};
  static_assert(std::size(names) == std::size(kSpawnForkGolden));
  for (size_t i = 0; i < std::size(names); ++i) {
    options.max_hypotheses = budgets[i];
    ExpectGolden(names[i], kSpawnForkGolden[i], module, run.value().dump,
                 options);
  }
}

// Stores 7 through `slots + Select(x < 10, 0, 8)` with x an input, then
// asserts that the two slots do not sum to 7: reversing the store forks on
// its symbolic address.
Module BuildAddressFork() {
  ModuleBuilder mb;
  mb.AddGlobal("slots", 2);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId verify = fb.NewBlock("verify");
  fb.SetInsertPoint(0);
  RegId x = fb.Input(0);
  RegId ten = fb.Const(10);
  RegId low = fb.CmpLtS(x, ten);
  RegId zero = fb.Const(0);
  RegId eight = fb.Const(8);
  RegId offset = fb.Select(low, zero, eight);
  RegId slots = fb.GlobalAddr("slots");
  RegId addr = fb.Add(slots, offset);
  RegId seven = fb.Const(7);
  fb.Store(addr, 0, seven);
  fb.Br(verify);
  fb.SetInsertPoint(verify);
  RegId first = fb.LoadGlobal("slots", 0);
  RegId second = fb.LoadGlobal("slots", 1);
  RegId sum = fb.Add(first, second);
  RegId bad = fb.Const(7);
  RegId ok = fb.CmpNe(sum, bad);
  fb.Assert(ok, "the slots sum to 7");
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  return std::move(mb).Build();
}

TEST(EngineGoldenTest, AddressFork) {
  Module module = BuildAddressFork();
  auto run = RunToFailure(module, WorkloadByName("semantic_assert"), {});
  ASSERT_TRUE(run.ok());
  ExpectGolden("address_fork", kAddressForkGolden, module, run.value().dump,
               ResOptions{});
}

TEST(EngineGoldenTest, DecisionProcedures) {
  // Gates that propagation, the cached model and the memo cache cannot
  // settle, so they reach the solver's decision procedures (local search
  // does the work in all three): a hash chain reversed through its spilled
  // input, the same chain with the input held only in a register (some
  // gates stay unknown), and a long loop searched without breadcrumbs.
  ResOptions full;
  full.stop_at_root_cause = false;
  for (bool spill : {true, false}) {
    const int64_t input = spill ? 42 : 77777777777;
    Module module = BuildHashChain(spill, input);
    WorkloadSpec spec = WorkloadByName("semantic_assert");
    spec.channel0_inputs = {input};
    spec.expected_trap = TrapKind::kAssertFailure;
    auto run = RunToFailure(module, spec, {});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectGolden(spill ? "hash_chain_spilled" : "hash_chain_unspilled",
                 kDecisionProceduresGolden[spill ? 0 : 1], module,
                 run.value().dump, full);
  }
  Module module = BuildLongExecution(64);
  auto run = RunToFailure(module, WorkloadByName("div_by_zero_input"), {});
  ASSERT_TRUE(run.ok());
  ResOptions options = full;
  options.max_units = 24;
  options.use_lbr = false;
  options.use_error_log = false;
  ExpectGolden("long_execution_no_breadcrumbs", kDecisionProceduresGolden[2],
               module, run.value().dump, options);
}

}  // namespace
}  // namespace res
