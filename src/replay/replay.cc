#include "src/replay/replay.h"

#include <algorithm>
#include <limits>

#include "src/support/string_util.h"

namespace res {

Result<ReplayState> BuildReplayState(const Module& module, const Coredump& dump,
                                     const SynthesizedSuffix& suffix,
                                     ExprPool* pool) {
  if (!suffix.verified) {
    return FailedPrecondition("suffix is not solver-verified; no model to replay");
  }
  ReplayState state;
  const SymSnapshot& snap = suffix.initial_state;

  // --- Memory: dump image, minus regions not yet allocated, plus the
  //     model-evaluated overlay. ---
  state.memory = dump.memory.Clone();
  for (const auto& [base, alloc] : snap.heap()) {
    if (alloc.state == SnapAllocState::kUnallocated) {
      state.memory.UnmapRegion(base, alloc.size_words);
    }
  }
  snap.overlay().ForEach([&](uint64_t addr, const Expr* expr) {
    const SnapAlloc* covering = snap.FindAlloc(addr);
    if (covering != nullptr && covering->state == SnapAllocState::kUnallocated) {
      return;  // word does not exist yet; kAlloc will map it zeroed
    }
    state.memory.WriteWordUnchecked(addr, EvalExpr(expr, suffix.model));
  });

  // --- Heap metadata at suffix start. ---
  uint64_t next_free = dump.heap_next_free;
  uint64_t next_seq = dump.heap_next_seq;
  for (const auto& [base, alloc] : snap.heap()) {
    if (alloc.state == SnapAllocState::kUnallocated) {
      next_free = std::min(next_free, base);
      next_seq = std::min(next_seq, alloc.alloc_seq);
      continue;
    }
    Allocation a;
    a.base = alloc.base;
    a.size_words = alloc.size_words;
    a.alloc_seq = alloc.alloc_seq;
    a.state = alloc.state == SnapAllocState::kAllocated ? AllocState::kAllocated
                                                        : AllocState::kFreed;
    state.heap.RestoreAllocation(a);
  }
  state.heap.set_next_free(next_free);
  state.heap.set_next_seq(next_seq);

  // --- Threads. ---
  for (size_t tid = 0; tid < snap.thread_count(); ++tid) {
    const SymThread& st = snap.thread(tid);
    Thread t;
    t.id = st.id;
    if (st.opaque) {
      t.state = ThreadState::kExited;
    } else if (st.spawn_linked) {
      t.state = ThreadState::kUnborn;  // created by a kSpawn inside the suffix
    } else {
      t.state = ThreadState::kRunnable;
    }
    if (!st.spawn_linked) {
      for (const SymFrame& sf : st.frames) {
        Frame f;
        f.func = sf.func;
        f.block = sf.block;
        f.index = sf.index;
        f.caller_result_reg = sf.caller_result_reg;
        f.regs.reserve(sf.regs.size());
        for (const Expr* e : sf.regs) {
          f.regs.push_back(EvalExpr(e, suffix.model));
        }
        t.frames.push_back(std::move(f));
      }
    }
    state.threads.push_back(std::move(t));
  }

  // --- Schedule and inputs. ---
  std::vector<ScheduleSlice> slices = BuildSchedule(module, dump, suffix);
  state.schedule.reserve(slices.size());
  for (const ScheduleSlice& s : slices) {
    state.schedule.emplace_back(s.tid, s.steps);
  }
  for (const SuffixUnit& u : suffix.units) {
    for (const UnitEvent& e : u.events) {
      if (e.kind == UnitEventKind::kInput && e.expr != nullptr) {
        state.inputs.emplace_back(u.tid, EvalExpr(e.expr, suffix.model));
      }
    }
  }
  return state;
}

namespace {

bool FramesEqual(const std::vector<Frame>& a, const std::vector<Frame>& b,
                 std::string* why) {
  if (a.size() != b.size()) {
    *why = StrFormat("frame count %zu vs %zu", a.size(), b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].func != b[i].func || a[i].block != b[i].block ||
        a[i].index != b[i].index) {
      *why = StrFormat("frame %zu position differs", i);
      return false;
    }
    if (a[i].regs != b[i].regs) {
      *why = StrFormat("frame %zu registers differ", i);
      return false;
    }
  }
  return true;
}

bool IsBlockedOrParkedEquivalent(ThreadState a, ThreadState b) {
  auto normalized = [](ThreadState s) {
    return s == ThreadState::kBlockedOnLock || s == ThreadState::kBlockedOnJoin
               ? ThreadState::kRunnable
               : s;
  };
  return normalized(a) == normalized(b);
}

}  // namespace

bool CompareCoredumps(const Module& module, const Coredump& expected,
                      const Coredump& actual, std::string* why) {
  std::string local;
  std::string* out = why != nullptr ? why : &local;
  if (expected.trap.kind != actual.trap.kind) {
    *out = StrFormat("trap kind %s vs %s",
                     std::string(TrapKindName(expected.trap.kind)).c_str(),
                     std::string(TrapKindName(actual.trap.kind)).c_str());
    return false;
  }
  if (expected.trap.kind != TrapKind::kDeadlock) {
    if (expected.trap.thread != actual.trap.thread) {
      *out = StrFormat("trap thread %u vs %u", expected.trap.thread,
                       actual.trap.thread);
      return false;
    }
    if (!(expected.trap.pc == actual.trap.pc)) {
      *out = StrFormat("trap pc %s vs %s",
                       module.PcToString(expected.trap.pc).c_str(),
                       module.PcToString(actual.trap.pc).c_str());
      return false;
    }
    if (expected.trap.address != actual.trap.address) {
      *out = "trap address differs";
      return false;
    }
  }
  if (expected.has_memory && actual.has_memory &&
      !(expected.memory == actual.memory)) {
    // Locate the first differing word for diagnostics.
    std::string diff = "memory image differs";
    expected.memory.ForEachWord([&](uint64_t addr, int64_t value) {
      auto other = actual.memory.ReadWord(addr);
      if ((!other.ok() || other.value() != value) && diff == "memory image differs") {
        diff = StrFormat("memory differs at 0x%llx: %lld vs %s",
                         static_cast<unsigned long long>(addr),
                         static_cast<long long>(value),
                         other.ok() ? std::to_string(other.value()).c_str()
                                    : "<unmapped>");
      }
    });
    *out = diff;
    return false;
  }
  if (expected.threads.size() != actual.threads.size()) {
    *out = "thread count differs";
    return false;
  }
  for (size_t i = 0; i < expected.threads.size(); ++i) {
    const ThreadDump& te = expected.threads[i];
    const ThreadDump& ta = actual.threads[i];
    if (!IsBlockedOrParkedEquivalent(te.state, ta.state)) {
      *out = StrFormat("thread %zu state differs", i);
      return false;
    }
    std::string frame_why;
    if (!FramesEqual(te.frames, ta.frames, &frame_why)) {
      *out = StrFormat("thread %zu: %s", i, frame_why.c_str());
      return false;
    }
  }
  if (expected.heap_allocations.size() != actual.heap_allocations.size()) {
    *out = "heap allocation count differs";
    return false;
  }
  for (size_t i = 0; i < expected.heap_allocations.size(); ++i) {
    const Allocation& ae = expected.heap_allocations[i];
    const Allocation& aa = actual.heap_allocations[i];
    if (ae.base != aa.base || ae.size_words != aa.size_words ||
        ae.state != aa.state) {
      *out = StrFormat("heap allocation %zu differs", i);
      return false;
    }
  }
  return true;
}

Result<ReplayOutcome> ReplaySuffix(const Module& module, const Coredump& dump,
                                   const SynthesizedSuffix& suffix, ExprPool* pool,
                                   const PredecodedModule* predecoded) {
  RES_ASSIGN_OR_RETURN(ReplayState state,
                       BuildReplayState(module, dump, suffix, pool));

  Vm vm(&module);
  if (predecoded != nullptr) {
    vm.set_predecoded(predecoded);
  }
  SliceScheduler scheduler(state.schedule);
  ReplayInputProvider inputs;
  for (const auto& [tid, value] : state.inputs) {
    inputs.Push(tid, value);
  }
  vm.set_scheduler(&scheduler);
  vm.set_input_provider(&inputs);
  vm.RestoreForReplay(std::move(state.memory), std::move(state.heap),
                      std::move(state.threads));

  ReplayOutcome outcome;
  outcome.run = vm.Run();
  outcome.schedule_followed =
      outcome.run.outcome != RunOutcome::kScheduleDiverged;
  outcome.replay_dump = CaptureCoredump(vm);
  outcome.trap_matches = outcome.run.outcome == RunOutcome::kTrapped &&
                         outcome.run.trap.kind == dump.trap.kind &&
                         (dump.trap.kind == TrapKind::kDeadlock ||
                          (outcome.run.trap.pc == dump.trap.pc &&
                           outcome.run.trap.thread == dump.trap.thread));
  outcome.state_matches =
      CompareCoredumps(module, dump, outcome.replay_dump, &outcome.mismatch);
  return outcome;
}

}  // namespace res
