// Cross-cutting properties over the whole corpus — invariants that must hold
// for every workload and every dump, not just the curated happy paths.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/coredump/serialize.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/res/res_api.h"
#include "src/support/persistent.h"
#include "src/support/rng.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"
#include "tests/ground_truth_recorder.h"

namespace res {
namespace {

class CorpusPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    spec_ = WorkloadByName(GetParam());
    module_ = spec_.build();
    FailureRunOptions options;
    options.require_live_peers = spec_.requires_live_peers;
    auto run = RunToFailure(module_, spec_, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    failure_ = std::move(run).value();
  }

  WorkloadSpec spec_;
  Module module_;
  FailureRun failure_;
};

// Property: genuine software-bug dumps are NEVER flagged as hardware errors
// (zero false positives is what makes the §3.2 use case viable).
TEST_P(CorpusPropertyTest, NoHardwareFalsePositive) {
  ResEngine engine(module_, failure_.dump);
  ResResult result = engine.Run();
  EXPECT_FALSE(result.hardware_error_suspected);
  EXPECT_FALSE(result.dump_inconsistent_at_trap);
}

// Property: analysis is a pure function of <module, dump> — running on a
// dump that round-tripped through serialization yields the same stop reason,
// suffix shape and cause kinds.
TEST_P(CorpusPropertyTest, DeterministicThroughTheWire) {
  auto restored = DeserializeCoredump(SerializeCoredump(failure_.dump));
  ASSERT_TRUE(restored.ok());

  ResEngine engine_a(module_, failure_.dump);
  ResEngine engine_b(module_, restored.value());
  ResResult a = engine_a.Run();
  ResResult b = engine_b.Run();
  EXPECT_EQ(a.stop, b.stop);
  ASSERT_EQ(a.suffix.has_value(), b.suffix.has_value());
  if (a.suffix.has_value()) {
    ASSERT_EQ(a.suffix->units.size(), b.suffix->units.size());
    for (size_t i = 0; i < a.suffix->units.size(); ++i) {
      EXPECT_EQ(a.suffix->units[i].tid, b.suffix->units[i].tid);
      EXPECT_TRUE(a.suffix->units[i].block == b.suffix->units[i].block);
    }
  }
  ASSERT_EQ(a.causes.size(), b.causes.size());
  for (size_t i = 0; i < a.causes.size(); ++i) {
    EXPECT_EQ(a.causes[i].kind, b.causes[i].kind);
    EXPECT_EQ(a.causes[i].BucketSignature(module_),
              b.causes[i].BucketSignature(module_));
  }
}

// Property: the suffix's units only reference threads that exist in the
// dump, blocks that exist in the module, and access addresses that are
// mapped at crash time (memory never unmaps).
TEST_P(CorpusPropertyTest, SuffixIsWellFormed) {
  ResEngine engine(module_, failure_.dump);
  ResResult result = engine.Run();
  if (!result.suffix.has_value()) {
    GTEST_SKIP();
  }
  for (const SuffixUnit& u : result.suffix->units) {
    ASSERT_LT(u.tid, failure_.dump.threads.size());
    ASSERT_LT(u.block.func, module_.functions().size());
    const Function& fn = module_.function(u.block.func);
    ASSERT_LT(u.block.block, fn.blocks.size());
    ASSERT_LE(u.end_index, fn.blocks[u.block.block].instructions.size());
    for (const MemAccess& a : u.accesses) {
      EXPECT_TRUE(failure_.dump.memory.IsMappedWord(a.addr))
          << module_.PcToString(a.pc);
    }
  }
}

// Property: minidump mode must never crash, never claim a depth-0
// inconsistency, and never claim hardware on a genuine software dump whose
// register state is intact.
TEST_P(CorpusPropertyTest, MinidumpModeIsSafe) {
  Coredump mini = MakeMinidump(failure_.dump);
  ResEngine engine(module_, mini);
  ResResult result = engine.Run();
  EXPECT_FALSE(result.dump_inconsistent_at_trap);
}

// Property: the engine respects its hypothesis budget.
TEST_P(CorpusPropertyTest, BudgetRespected) {
  ResOptions options;
  options.max_hypotheses = 5;
  options.stop_at_root_cause = false;
  ResEngine engine(module_, failure_.dump, options);
  ResResult result = engine.Run();
  EXPECT_LE(result.stats.hypotheses_explored, 5u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusPropertyTest,
                         ::testing::Values("racy_counter", "atomicity_violation",
                                           "order_violation", "buffer_overflow",
                                           "use_after_free", "double_free",
                                           "div_by_zero_input", "semantic_assert",
                                           "deadlock", "locked_counter_input_bug"),
                         [](const auto& info) { return info.param; });

// Parser robustness: every line-boundary truncation of a printed module must
// produce a clean error or a valid module — never a crash or an unverifiable
// module claimed as success.
TEST(ParserRobustnessTest, LinePrefixesNeverCrash) {
  Module m = BuildUseAfterFree();
  std::string text = PrintModule(m);
  std::vector<size_t> line_starts = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      line_starts.push_back(i + 1);
    }
  }
  for (size_t end : line_starts) {
    auto parsed = ParseModule(std::string_view(text).substr(0, end));
    if (parsed.ok()) {
      // Whatever parses must at least be structurally coherent enough to
      // verify or to fail verification gracefully.
      (void)VerifyModule(parsed.value());
    }
  }
  SUCCEED();
}

// Mutation robustness: single-character corruptions of the text format are
// rejected or produce a verifiable module, never UB.
TEST(ParserRobustnessTest, PointMutationsNeverCrash) {
  Module m = BuildDivByZeroInput();
  std::string text = PrintModule(m);
  Rng rng(5150);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = text;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(' ' + rng.NextBelow(95));
    auto parsed = ParseModule(mutated);
    if (parsed.ok()) {
      (void)VerifyModule(parsed.value());
    }
  }
  SUCCEED();
}

// --- Persistent-structure differentials. ---
//
// The reverse engine keeps all fork-heavy hypothesis state in structurally
// shared containers (src/support/persistent.h, CowOverlay). Each container
// is driven through a random interleaved fork/append/read script against an
// eagerly deep-copied STL oracle: every branch must read back exactly like
// its oracle at every step, which pins structure sharing (freeze layers,
// chunk chains, compaction) to plain value semantics. Seeds are fixed so
// failures replay.

TEST(PersistentStructureTest, PersistentVectorMatchesStdVectorAcrossForks) {
  Rng rng(20260731);
  struct Branch {
    PersistentVector<int> pv;
    std::vector<int> oracle;
  };
  std::vector<Branch> branches(1);
  for (int step = 0; step < 1200; ++step) {
    Branch& b = branches[rng.NextBelow(branches.size())];
    switch (rng.NextBelow(5)) {
      case 0:  // fork (bounded fan-out)
        if (branches.size() < 24) {
          branches.push_back(b);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2: {  // append
        int v = static_cast<int>(rng.NextBelow(1000));
        b.pv.push_back(v);
        b.oracle.push_back(v);
        break;
      }
      case 3: {  // random suffix read (the solver's CopySuffix access path)
        ASSERT_EQ(b.pv.size(), b.oracle.size());
        size_t from = rng.NextBelow(b.oracle.size() + 1);
        std::vector<int> got;
        b.pv.AppendSuffixTo(from, &got);
        std::vector<int> want(b.oracle.begin() + static_cast<ptrdiff_t>(from),
                              b.oracle.end());
        ASSERT_EQ(got, want) << "step " << step;
        break;
      }
      default: {  // full in-order read
        ASSERT_EQ(b.pv.Materialize(), b.oracle) << "step " << step;
        break;
      }
    }
  }
  for (const Branch& b : branches) {
    ASSERT_EQ(b.pv.Materialize(), b.oracle);
  }
}

TEST(PersistentStructureTest, PersistentSetMatchesStdSetAcrossForks) {
  Rng rng(5150777);
  struct Branch {
    PersistentSet<int> ps;
    std::unordered_set<int> oracle;
  };
  std::vector<Branch> branches(1);
  for (int step = 0; step < 1200; ++step) {
    Branch& b = branches[rng.NextBelow(branches.size())];
    int v = static_cast<int>(rng.NextBelow(256));  // small domain: collisions
    switch (rng.NextBelow(5)) {
      case 0:  // fork (bounded fan-out)
        if (branches.size() < 24) {
          branches.push_back(b);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2: {  // insert; the dedup verdict must match the oracle's
        bool inserted = b.ps.insert(v);
        ASSERT_EQ(inserted, b.oracle.insert(v).second) << "step " << step;
        break;
      }
      default: {  // membership probe
        ASSERT_EQ(b.ps.contains(v), b.oracle.count(v) != 0) << "step " << step;
        break;
      }
    }
  }
  for (const Branch& b : branches) {
    ASSERT_EQ(b.ps.size(), b.oracle.size());
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(b.ps.contains(v), b.oracle.count(v) != 0) << "value " << v;
    }
  }
}

TEST(PersistentStructureTest, PersistentEraseSetMatchesStdSetAcrossForks) {
  // The origin fold's live sets both grow and shrink; the erase-capable set
  // (tombstone layers + live count) must track a plain set exactly across
  // interleaved fork/insert/erase/probe sequences, including the flattening
  // rebuild once the layer chain deepens.
  Rng rng(9070431);
  struct Branch {
    PersistentEraseSet<int> ps;
    std::unordered_set<int> oracle;
  };
  std::vector<Branch> branches(1);
  for (int step = 0; step < 2000; ++step) {
    Branch& b = branches[rng.NextBelow(branches.size())];
    int v = static_cast<int>(rng.NextBelow(64));  // small domain: churn
    switch (rng.NextBelow(6)) {
      case 0:  // fork (bounded fan-out)
        if (branches.size() < 24) {
          branches.push_back(b);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2: {  // insert; the verdict must match the oracle's
        bool inserted = b.ps.insert(v);
        ASSERT_EQ(inserted, b.oracle.insert(v).second) << "step " << step;
        break;
      }
      case 3: {  // erase; the verdict must match the oracle's
        bool erased = b.ps.erase(v);
        ASSERT_EQ(erased, b.oracle.erase(v) != 0) << "step " << step;
        break;
      }
      default: {  // membership + size/emptiness probes
        ASSERT_EQ(b.ps.contains(v), b.oracle.count(v) != 0) << "step " << step;
        ASSERT_EQ(b.ps.size(), b.oracle.size()) << "step " << step;
        ASSERT_EQ(b.ps.empty(), b.oracle.empty()) << "step " << step;
        break;
      }
    }
  }
  for (const Branch& b : branches) {
    ASSERT_EQ(b.ps.size(), b.oracle.size());
    for (int v = 0; v < 64; ++v) {
      ASSERT_EQ(b.ps.contains(v), b.oracle.count(v) != 0) << "value " << v;
    }
  }
}

TEST(PersistentStructureTest, CowOverlayMatchesPlainMapAcrossForks) {
  // The snapshot overlay (a PersistentMap under the hood) under the same
  // interleaved fork/write/read discipline, including the shadowed-write
  // ForEach contract the detectors' screens rely on.
  Rng rng(987123);
  ExprPool pool;
  std::vector<const Expr*> values;
  for (int i = 0; i < 10; ++i) {
    values.push_back(pool.Var("v" + std::to_string(i), VarOrigin::kHavocMem));
  }
  struct Branch {
    CowOverlay cow;
    std::unordered_map<uint64_t, const Expr*> oracle;
  };
  std::vector<Branch> branches(1);
  for (int step = 0; step < 1200; ++step) {
    Branch& b = branches[rng.NextBelow(branches.size())];
    uint64_t addr = 8 * rng.NextBelow(96);
    switch (rng.NextBelow(5)) {
      case 0:  // fork (bounded fan-out)
        if (branches.size() < 24) {
          branches.push_back(b);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2: {  // write (shadows earlier layers)
        const Expr* v = values[rng.NextBelow(values.size())];
        b.cow.Set(addr, v);
        b.oracle[addr] = v;
        break;
      }
      case 3: {  // point read
        auto it = b.oracle.find(addr);
        ASSERT_EQ(b.cow.Find(addr), it == b.oracle.end() ? nullptr : it->second)
            << "step " << step << " addr " << addr;
        break;
      }
      default: {  // full sweep: each live pair visited exactly once
        size_t visited = 0;
        bool ok = true;
        b.cow.ForEach([&](uint64_t a, const Expr* v) {
          ++visited;
          auto it = b.oracle.find(a);
          ok = ok && it != b.oracle.end() && it->second == v;
        });
        ASSERT_TRUE(ok) << "step " << step;
        ASSERT_EQ(visited, b.oracle.size()) << "step " << step;
        ASSERT_EQ(b.cow.DistinctCount(), b.oracle.size());
        break;
      }
    }
  }
}

// The whole content of `map` through ForEach, which must visit each live key
// once, with its newest value, in ascending key order.
std::vector<std::pair<uint64_t, int>> Contents(
    const PersistentMap<uint64_t, int>& map) {
  std::vector<std::pair<uint64_t, int>> out;
  map.ForEach([&out](uint64_t key, int value) { out.emplace_back(key, value); });
  return out;
}

TEST(PersistentStructureTest, PersistentMapCopiesHoldAtEveryDeltaSize) {
  // A copy after every write takes the private delta at every size from 0
  // to 15 (the 16th distinct key freezes it), over 48 freezes: past the
  // flatten of the 32-layer chain. A quarter of the writes overwrite a live
  // key, in the delta or shadowing a frozen layer, and every fifth copy
  // writes once on its own. At the end every copy, and the source, must
  // read exactly as its oracle: the source's later writes never reach a
  // copy, and a copy's writes never reach the source.
  Rng rng(4242017);
  PersistentMap<uint64_t, int> map;
  std::map<uint64_t, int> oracle;
  std::vector<std::pair<PersistentMap<uint64_t, int>, std::map<uint64_t, int>>>
      copies;
  uint64_t fresh = 0;
  for (int step = 0; step < 16 * 48; ++step) {
    const uint64_t key =
        fresh > 0 && rng.NextChance(1, 4) ? rng.NextBelow(fresh) : fresh++;
    map.Set(key, step);
    oracle[key] = step;
    copies.emplace_back(map, oracle);
    if (step % 5 == 0) {
      const uint64_t own = rng.NextBelow(fresh + 1);
      copies.back().first.Set(own, -step);
      copies.back().second[own] = -step;
    }
  }
  copies.emplace_back(map, oracle);
  for (size_t c = 0; c < copies.size(); ++c) {
    const auto& [copy, want] = copies[c];
    const std::vector<std::pair<uint64_t, int>> want_contents(want.begin(),
                                                              want.end());
    ASSERT_EQ(Contents(copy), want_contents) << "copy " << c;
    ASSERT_EQ(copy.DistinctCount(), want.size()) << "copy " << c;
    for (uint64_t key = 0; key <= fresh; ++key) {
      auto it = want.find(key);
      const int* got = copy.Find(key);
      ASSERT_EQ(got != nullptr, it != want.end()) << "copy " << c << " key " << key;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second) << "copy " << c << " key " << key;
      }
    }
  }
}

TEST(PersistentStructureTest, PersistentEraseSetTombstonesHoldThroughTheFlatten) {
  // Erase writes a tombstone, and the flatten drops tombstones once no
  // older layer is left to shadow. A copy after every operation, over
  // enough churn on 96 keys to flatten the chain more than once, must keep
  // reading as its oracle: an erased key stays absent, a re-inserted one is
  // present, and size() stays exact.
  Rng rng(1357911);
  PersistentEraseSet<uint64_t> set;
  std::set<uint64_t> oracle;
  std::vector<std::pair<PersistentEraseSet<uint64_t>, std::set<uint64_t>>> copies;
  for (int step = 0; step < 16 * 48 * 3; ++step) {
    const uint64_t key = rng.NextBelow(96);
    if (rng.NextChance(1, 2)) {
      ASSERT_EQ(set.insert(key), oracle.insert(key).second) << "step " << step;
    } else {
      ASSERT_EQ(set.erase(key), oracle.erase(key) != 0) << "step " << step;
    }
    copies.emplace_back(set, oracle);
  }
  for (size_t c = 0; c < copies.size(); ++c) {
    const auto& [copy, want] = copies[c];
    ASSERT_EQ(copy.size(), want.size()) << "copy " << c;
    for (uint64_t key = 0; key < 96; ++key) {
      ASSERT_EQ(copy.contains(key), want.count(key) != 0)
          << "copy " << c << " key " << key;
    }
  }
}

// VM determinism across the whole corpus: same module + same seed + same
// inputs => identical trap, step count and block trace.
TEST(VmCorpusDeterminism, IdenticalRunsAcrossCorpus) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    VmOptions vm_options;
    vm_options.max_steps = 200000;
    auto run_once = [&]() {
      Vm vm(&module, vm_options);
      RandomScheduler sched(1234, spec.switch_permille);
      QueueInputProvider inputs(0);
      inputs.PushAll(0, spec.channel0_inputs);
      GroundTruthRecorder recorder;
      vm.set_scheduler(&sched);
      vm.set_input_provider(&inputs);
      vm.set_recorder(&recorder);
      EXPECT_TRUE(vm.Reset().ok());
      RunResult r = vm.Run();
      return std::make_pair(r.steps, recorder.block_trace());
    };
    auto [steps_a, trace_a] = run_once();
    auto [steps_b, trace_b] = run_once();
    EXPECT_EQ(steps_a, steps_b) << spec.name;
    EXPECT_EQ(trace_a, trace_b) << spec.name;
  }
}

}  // namespace
}  // namespace res
