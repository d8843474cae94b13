// Pins what a hypothesis fork allocates. The reverse engine copies a
// hypothesis's persistent containers, its snapshot and its solver context
// at every backward step; each copy must allocate in proportion to what the
// child changes, not to the state it shares with its parent. This binary
// replaces the global operator new (every throwing and nothrow form, so
// each allocation is freed by a matching delete) with a counting one and
// counts the allocations of each copy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/snapshot.h"
#include "src/support/persistent.h"
#include "src/symbolic/expr.h"
#include "src/symbolic/solver.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace res {
namespace {

// Allocations made by `fn`.
template <typename Fn>
size_t AllocationsOf(Fn&& fn) {
  const size_t before = g_allocations;
  fn();
  return g_allocations - before;
}

TEST(ForkCostTest, PersistentMapCopyIsOneAllocation) {
  // 15 distinct keys: one short of the freeze, so all of them sit in the
  // private delta that every copy carries.
  PersistentMap<uint64_t, uint64_t> map;
  for (uint64_t k = 0; k < 15; ++k) {
    map.Set(8 * k, k);
  }
  const uint64_t* last = nullptr;
  size_t copies = AllocationsOf([&map, &last] {
    PersistentMap<uint64_t, uint64_t> copy = map;
    last = copy.Find(8 * 14);
  });
  EXPECT_LE(copies, 1u);
  EXPECT_NE(last, nullptr);
}

// A dump of `threads` threads, each 3 frames of 16 registers.
Coredump DumpOf(size_t threads) {
  Coredump dump;
  for (size_t t = 0; t < threads; ++t) {
    ThreadDump td;
    td.id = static_cast<uint32_t>(t);
    for (uint32_t f = 0; f < 3; ++f) {
      Frame frame;
      frame.func = 0;
      frame.block = f;
      frame.index = 1;
      frame.regs.assign(16, static_cast<int64_t>(t * 100 + f));
      td.frames.push_back(std::move(frame));
    }
    dump.threads.push_back(std::move(td));
  }
  return dump;
}

// Allocations of copying a snapshot of `threads` threads and changing one
// register of thread 1 in the copy.
size_t SnapshotForkCost(size_t threads) {
  Module module;
  ExprPool pool;
  Coredump dump = DumpOf(threads);
  SymSnapshot snap = SymSnapshot::FromCoredump(module, dump, &pool);
  const Expr* changed = pool.Const(-1);
  const Expr* read_back = nullptr;
  size_t cost = AllocationsOf([&] {
    SymSnapshot copy = snap;
    copy.MutableThread(1).frames.back().regs[0] = changed;
    read_back = copy.thread(1).frames.back().regs[0];
  });
  EXPECT_EQ(read_back, changed);
  // The source keeps its own value.
  EXPECT_EQ(snap.thread(1).frames.back().regs[0], pool.Const(100 + 2));
  return cost;
}

TEST(ForkCostTest, SnapshotForkClonesOnlyTheChangedThread) {
  const size_t five = SnapshotForkCost(5);
  // The copied thread vector, then the one cloned thread: its object, its
  // frame vector and its three register vectors.
  EXPECT_LE(five, 6u);
  EXPECT_EQ(SnapshotForkCost(2), five);
  EXPECT_EQ(SnapshotForkCost(20), five);
}

// Allocations of copying a solver context that holds `n` bindings (and the
// SAT witness over them).
size_t SolverContextCopyCost(size_t n) {
  ExprPool pool;
  Solver solver(&pool);
  std::vector<const Expr*> constraints;
  for (size_t i = 0; i < n; ++i) {
    const Expr* x = pool.Var("x" + std::to_string(i), VarOrigin::kInput);
    constraints.push_back(pool.Eq(x, pool.Const(static_cast<int64_t>(i))));
  }
  SolverContext ctx;
  SolveOutcome out = solver.CheckIncremental(&ctx, constraints);
  EXPECT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model != nullptr ? out.model->size() : 0, n);
  return AllocationsOf([&ctx] { SolverContext copy = ctx; });
}

TEST(ForkCostTest, SolverContextCopyIsConstant) {
  // At most one allocation per member: each persistent map's delta, the
  // residual and its provenance, the absorbed-constraint set and the
  // conflict core. The witness model is shared, not copied.
  const size_t bound = 8;
  EXPECT_LE(SolverContextCopyCost(200), bound);
  EXPECT_LE(SolverContextCopyCost(1000), bound);
}

}  // namespace
}  // namespace res
