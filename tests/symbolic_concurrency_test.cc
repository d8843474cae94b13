// Concurrent interning into one shared ExprPool: threads that intern the
// same expressions must receive pointer-identical nodes, and the pool must
// end up exactly as large as a single-threaded run leaves it. Runs under
// the TSan job (stress label) and the ASan job.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/symbolic/expr.h"

namespace res {
namespace {

// One interning step. Operands index earlier steps, so a script builds a
// DAG and every thread replaying it builds the same one.
struct Step {
  enum class Kind : uint8_t { kConst, kVar, kBinary, kSelect } kind;
  int64_t value = 0;  // kConst
  VarKey key;         // kVar
  BinOp op = BinOp::kAdd;
  size_t a = 0, b = 0, c = 0;
};

std::vector<Step> MakeScript(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<Step> script;
  script.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    Step s;
    const uint64_t pick = i < 8 ? rng.NextBelow(2) : rng.NextBelow(10);
    if (pick == 0) {
      s.kind = Step::Kind::kConst;
      // Mostly small values, so the constant cache sees hits and
      // direct-mapped collisions; some wide ones.
      s.value = rng.NextChance(3, 4) ? rng.NextInRange(-64, 64)
                                     : static_cast<int64_t>(rng.Next());
    } else if (pick == 1) {
      s.kind = Step::Kind::kVar;
      s.key.tag = static_cast<VarTag>(rng.NextBelow(3));
      s.key.ns = rng.NextBelow(16);
      s.key.seq = static_cast<uint32_t>(rng.NextBelow(64));
    } else if (pick < 8) {
      s.kind = Step::Kind::kBinary;
      s.op = static_cast<BinOp>(rng.NextBelow(17));
      s.a = rng.NextBelow(i);
      s.b = rng.NextBelow(i);
    } else {
      s.kind = Step::Kind::kSelect;
      s.a = rng.NextBelow(i);
      s.b = rng.NextBelow(i);
      s.c = rng.NextBelow(i);
    }
    script.push_back(s);
  }
  return script;
}

std::vector<const Expr*> Replay(ExprPool* pool, const std::vector<Step>& script) {
  std::vector<const Expr*> out;
  out.reserve(script.size());
  for (const Step& s : script) {
    switch (s.kind) {
      case Step::Kind::kConst:
        out.push_back(pool->Const(s.value));
        break;
      case Step::Kind::kVar:
        out.push_back(pool->InternVar(s.key, VarOrigin::kHavocMem,
                                      HashCombine(s.key.ns, s.key.seq)));
        break;
      case Step::Kind::kBinary:
        out.push_back(pool->Binary(s.op, out[s.a], out[s.b]));
        break;
      case Step::Kind::kSelect:
        out.push_back(pool->Select(out[s.a], out[s.b], out[s.c]));
        break;
    }
  }
  return out;
}

TEST(SymbolicConcurrencyTest, ConcurrentInterningIsPointerIdentical) {
  constexpr size_t kThreads = 4;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<Step> script = MakeScript(seed, 20000);

    ExprPool serial;
    const std::vector<const Expr*> expected = Replay(&serial, script);

    ExprPool shared;
    std::vector<std::vector<const Expr*>> got(kThreads);
    std::atomic<size_t> ready{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Start together so the threads race on the same shards.
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        got[t] = Replay(&shared, script);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }

    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(got[t], got[0]) << "seed " << seed << " thread " << t;
    }
    // Same shapes as the serial pool, node for node.
    for (size_t i = 0; i < script.size(); ++i) {
      ASSERT_EQ(got[0][i]->kind, expected[i]->kind) << i;
      ASSERT_EQ(got[0][i]->det_hash, expected[i]->det_hash) << i;
    }
    EXPECT_EQ(shared.node_count(), serial.node_count()) << "seed " << seed;
    EXPECT_EQ(shared.var_count(), serial.var_count()) << "seed " << seed;
    // Every keyed step after a variable's first registration is a hit.
    size_t var_steps = 0;
    for (const Step& s : script) {
      var_steps += s.kind == Step::Kind::kVar ? 1 : 0;
    }
    EXPECT_EQ(shared.var_intern_hits(),
              kThreads * var_steps - shared.var_count());
  }
}

}  // namespace
}  // namespace res
