#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/coredump/corruptor.h"
#include "src/coredump/serialize.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

Coredump DumpOf(const char* workload) {
  const WorkloadSpec& spec = WorkloadByName(workload);
  Module module = spec.build();
  FailureRunOptions options;
  options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value().dump : Coredump{};
}

TEST(CoredumpTest, CaptureHasFullState) {
  const WorkloadSpec& spec = WorkloadByName("use_after_free");
  Module module = spec.build();
  auto run = RunToFailure(module, spec);
  ASSERT_TRUE(run.ok());
  const Coredump& dump = run.value().dump;
  EXPECT_EQ(dump.trap.kind, TrapKind::kUseAfterFree);
  EXPECT_TRUE(dump.has_memory);
  EXPECT_GT(dump.memory.MappedWordCount(), 0u);
  ASSERT_FALSE(dump.threads.empty());
  EXPECT_FALSE(dump.FaultingThread().frames.empty());
  EXPECT_FALSE(dump.heap_allocations.empty());
  // The allocation the UAF touched is marked freed.
  bool freed_alloc = false;
  for (const Allocation& a : dump.heap_allocations) {
    freed_alloc |= a.state == AllocState::kFreed;
  }
  EXPECT_TRUE(freed_alloc);
}

TEST(CoredumpTest, StackSignatureReflectsCallPath) {
  Module module = BuildUseAfterFree();
  const WorkloadSpec& spec = WorkloadByName("use_after_free");

  WorkloadSpec path_a = spec;
  path_a.channel0_inputs = {1};
  WorkloadSpec path_b = spec;
  path_b.channel0_inputs = {2};

  auto run_a = RunToFailure(module, path_a);
  auto run_b = RunToFailure(module, path_b);
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());
  std::string sig_a = FaultingStackSignature(module, run_a.value().dump);
  std::string sig_b = FaultingStackSignature(module, run_b.value().dump);
  EXPECT_NE(sig_a, sig_b);  // same bug, different stacks — the WER trap
  EXPECT_NE(sig_a.find("use_via_reader"), std::string::npos);
  EXPECT_NE(sig_b.find("use_via_flusher"), std::string::npos);
}

TEST(CoredumpTest, MinidumpStripsMemory) {
  Coredump full = DumpOf("div_by_zero_input");
  Coredump mini = MakeMinidump(full);
  EXPECT_FALSE(mini.has_memory);
  EXPECT_EQ(mini.memory.MappedWordCount(), 0u);
  EXPECT_TRUE(mini.heap_allocations.empty());
  EXPECT_EQ(mini.threads.size(), full.threads.size());
  EXPECT_EQ(mini.trap.kind, full.trap.kind);
  // Stacks and registers survive.
  EXPECT_EQ(mini.FaultingThread().frames, full.FaultingThread().frames);
}

class SerializeRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SerializeRoundTripTest, ExactRoundTrip) {
  Coredump dump = DumpOf(GetParam());
  std::vector<uint8_t> bytes = SerializeCoredump(dump);
  auto restored = DeserializeCoredump(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Coredump& r = restored.value();
  EXPECT_EQ(r.trap.kind, dump.trap.kind);
  EXPECT_TRUE(r.trap.pc == dump.trap.pc);
  EXPECT_EQ(r.trap.message, dump.trap.message);
  EXPECT_TRUE(r.memory == dump.memory);
  ASSERT_EQ(r.threads.size(), dump.threads.size());
  for (size_t i = 0; i < r.threads.size(); ++i) {
    EXPECT_EQ(r.threads[i], dump.threads[i]) << "thread " << i;
  }
  ASSERT_EQ(r.heap_allocations.size(), dump.heap_allocations.size());
  EXPECT_EQ(r.heap_next_free, dump.heap_next_free);
  ASSERT_EQ(r.error_log.size(), dump.error_log.size());
  // Serialization is deterministic.
  EXPECT_EQ(SerializeCoredump(r), bytes);
}

INSTANTIATE_TEST_SUITE_P(Corpus, SerializeRoundTripTest,
                         ::testing::Values("div_by_zero_input", "use_after_free",
                                           "deadlock", "racy_counter",
                                           "buffer_overflow"));

TEST(SerializeTest, RejectsTruncation) {
  Coredump dump = DumpOf("div_by_zero_input");
  std::vector<uint8_t> bytes = SerializeCoredump(dump);
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(DeserializeCoredump(truncated).ok()) << "cut at " << cut;
  }
}

TEST(SerializeTest, RejectsBadMagic) {
  Coredump dump = DumpOf("div_by_zero_input");
  std::vector<uint8_t> bytes = SerializeCoredump(dump);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DeserializeCoredump(bytes).ok());
}

TEST(SerializeTest, RejectsTrailingGarbage) {
  Coredump dump = DumpOf("div_by_zero_input");
  std::vector<uint8_t> bytes = SerializeCoredump(dump);
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeCoredump(bytes).ok());
}

// --- Memory images the VM cannot capture. Each page costs 4 KiB whatever
// the wire carries, so a blob must fail before a page is built rather than
// make the daemon map far more memory than it carries. ---

// `bytes` must fail with kDataLoss, for the reason `why` names.
void ExpectDataLoss(const std::vector<uint8_t>& bytes, const std::string& why) {
  auto parsed = DeserializeCoredump(bytes);
  ASSERT_FALSE(parsed.ok()) << why;
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << why;
  EXPECT_NE(parsed.status().message().find(why), std::string::npos)
      << parsed.status().ToString();
}

TEST(SerializeTest, RejectsOneWordPerPageImage) {
  Coredump hostile = DumpOf("div_by_zero_input");
  ASSERT_TRUE(hostile.heap_allocations.empty());
  // One word on each of 64 pages of the heap segment, no allocation under
  // any of them.
  for (uint64_t i = 0; i < 64; ++i) {
    hostile.memory.WriteWordUnchecked(
        kHeapBase + i * AddressSpace::kPageBytes, static_cast<int64_t>(i));
  }
  ExpectDataLoss(SerializeCoredump(hostile),
                 "outside globals and heap allocations");
}

TEST(SerializeTest, RejectsSparseWordsInALargeAllocation) {
  Coredump hostile = DumpOf("div_by_zero_input");
  ASSERT_TRUE(hostile.heap_allocations.empty());
  constexpr uint64_t kPages = 64;
  Allocation big;
  big.base = kHeapBase;
  big.size_words = kPages * AddressSpace::kPageWords;
  big.alloc_seq = 1;
  hostile.heap_allocations = {big};
  hostile.heap_next_free = kHeapBase + kPages * AddressSpace::kPageBytes;
  hostile.heap_next_seq = 2;
  for (uint64_t i = 0; i < kPages; ++i) {
    hostile.memory.WriteWordUnchecked(
        kHeapBase + i * AddressSpace::kPageBytes, static_cast<int64_t>(i));
  }
  ExpectDataLoss(SerializeCoredump(hostile), "allocation word missing");
  // The same allocation fully present is an image the VM captures.
  for (uint64_t w = 0; w < big.size_words; ++w) {
    hostile.memory.WriteWordUnchecked(kHeapBase + w * kWordSize, 0);
  }
  auto dense = DeserializeCoredump(SerializeCoredump(hostile));
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_TRUE(dense.value().memory == hostile.memory);
}

TEST(SerializeTest, RejectsMisshapenImages) {
  const Coredump dump = DumpOf("use_after_free");
  ASSERT_FALSE(dump.heap_allocations.empty());
  ASSERT_GE(dump.memory.MappedWordCount(), 2u);
  const std::vector<uint8_t> bytes = SerializeCoredump(dump);
  // The has_memory byte follows magic, version and the trap record; the
  // word count and then the (address, value) words follow it.
  const size_t has_memory =
      8 + 4 + (1 + 4 + 12 + 8 + 8) + dump.trap.message.size();
  const size_t first_word = has_memory + 1 + 8;
  ASSERT_EQ(bytes[has_memory], 1);

  std::vector<uint8_t> unaligned = bytes;
  unaligned[first_word] ^= 4;
  ExpectDataLoss(unaligned, "not aligned and ascending");

  std::vector<uint8_t> swapped = bytes;
  std::swap_ranges(swapped.begin() + first_word,
                   swapped.begin() + first_word + 16,
                   swapped.begin() + first_word + 16);
  ExpectDataLoss(swapped, "not aligned and ascending");

  Coredump gap = dump;
  gap.heap_allocations.front().base += kWordSize;
  ExpectDataLoss(SerializeCoredump(gap), "do not tile the heap");

  std::vector<uint8_t> minidump_with_image = bytes;
  minidump_with_image[has_memory] = 0;
  ExpectDataLoss(minidump_with_image, "minidump carries a memory image");
  auto mini = DeserializeCoredump(SerializeCoredump(MakeMinidump(dump)));
  EXPECT_TRUE(mini.ok()) << mini.status().ToString();
}

TEST(CorruptorTest, MemoryBitFlipChangesExactlyOneWord) {
  Coredump dump = DumpOf("div_by_zero_input");
  Coredump corrupted = dump;
  Rng rng(42);
  auto fault = InjectMemoryBitFlip(&corrupted, &rng);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->kind, InjectedFaultKind::kMemoryBitFlip);
  size_t diffs = 0;
  dump.memory.ForEachWord([&](uint64_t addr, int64_t value) {
    auto other = corrupted.memory.ReadWord(addr);
    if (!other.ok() || other.value() != value) {
      ++diffs;
      EXPECT_EQ(addr, fault->address);
      // Exactly one bit differs.
      uint64_t x = static_cast<uint64_t>(value ^ other.value());
      EXPECT_EQ(x & (x - 1), 0u);
    }
  });
  EXPECT_EQ(diffs, 1u);
}

TEST(CorruptorTest, RegisterCorruptionTouchesOneFrame) {
  Coredump dump = DumpOf("racy_counter");
  Coredump corrupted = dump;
  Rng rng(43);
  auto fault = InjectRegisterCorruption(&corrupted, &rng);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->kind, InjectedFaultKind::kRegisterCorruption);
  const Frame& frame = corrupted.threads[fault->thread].frames[fault->frame];
  EXPECT_EQ(frame.regs[fault->reg], fault->new_value);
  EXPECT_NE(fault->old_value, fault->new_value);
}

TEST(CorruptorTest, MemoryFlipOnMinidumpFails) {
  Coredump mini = MakeMinidump(DumpOf("div_by_zero_input"));
  Rng rng(1);
  EXPECT_FALSE(InjectMemoryBitFlip(&mini, &rng).has_value());
}

// --- Untrusted-input hardening (ISSUE 6 satellite): random corruption of
// the wire bytes must never crash, OOB-read, or OOM the deserializer —
// every failure is a kDataLoss Status, and anything that still parses must
// survive semantic validation without crashing either. ---

struct WorkloadDump {
  Module module;
  Coredump dump;
};

WorkloadDump ModuleAndDumpOf(const char* workload) {
  const WorkloadSpec& spec = WorkloadByName(workload);
  WorkloadDump wd{spec.build(), {}};
  FailureRunOptions options;
  options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(wd.module, spec, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) {
    wd.dump = std::move(run).value().dump;
  }
  return wd;
}

TEST(SerializeTest, CorruptionFuzzSweepNeverCrashes) {
  for (const char* workload :
       {"div_by_zero_input", "use_after_free", "racy_counter"}) {
    WorkloadDump wd = ModuleAndDumpOf(workload);
    const std::vector<uint8_t> bytes = SerializeCoredump(wd.dump);
    ASSERT_GT(bytes.size(), 16u);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Rng rng(0xC0FFEE ^ seed);
      for (int iter = 0; iter < 128; ++iter) {
        std::vector<uint8_t> mutated = bytes;
        switch (rng.NextBelow(4)) {
          case 0:  // scattered byte corruption
            for (uint64_t k = 0; k <= rng.NextBelow(8); ++k) {
              mutated[rng.NextBelow(mutated.size())] ^=
                  static_cast<uint8_t>(1 + rng.NextBelow(255));
            }
            break;
          case 1: {  // length-field attack: splice a hostile u64 anywhere
            const size_t pos = rng.NextBelow(mutated.size() - 8);
            // Bias toward the adversarial extremes (huge / near-overflow).
            const uint64_t v = rng.NextBool() ? rng.Next()
                                              : UINT64_MAX - rng.NextBelow(16);
            for (int b = 0; b < 8; ++b) {
              mutated[pos + b] = static_cast<uint8_t>(v >> (8 * b));
            }
            break;
          }
          case 2:  // truncation
            mutated.resize(rng.NextBelow(mutated.size()));
            break;
          default: {  // duplicate an interior chunk (structure shear)
            const size_t from = rng.NextBelow(mutated.size());
            const size_t len =
                rng.NextBelow(mutated.size() - from) + 1;
            mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(from),
                           mutated.begin() + static_cast<ptrdiff_t>(from),
                           mutated.begin() + static_cast<ptrdiff_t>(from + len));
            break;
          }
        }
        auto parsed = DeserializeCoredump(mutated);
        if (!parsed.ok()) {
          EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
              << workload << " seed=" << seed << " iter=" << iter << ": "
              << parsed.status().ToString();
        } else {
          // Structurally fine but possibly semantic garbage: Validate must
          // classify it (either way) without crashing.
          (void)parsed.value().Validate(wd.module);
        }
      }
    }
  }
}

TEST(ValidateTest, LegitimateCorpusPasses) {
  for (const char* workload :
       {"div_by_zero_input", "use_after_free", "deadlock", "racy_counter",
        "buffer_overflow"}) {
    WorkloadDump wd = ModuleAndDumpOf(workload);
    Status s = wd.dump.Validate(wd.module);
    EXPECT_TRUE(s.ok()) << workload << ": " << s.ToString();
    // And survives a serialization round trip.
    auto restored = DeserializeCoredump(SerializeCoredump(wd.dump));
    ASSERT_TRUE(restored.ok());
    s = restored.value().Validate(wd.module);
    EXPECT_TRUE(s.ok()) << workload << ": " << s.ToString();
  }
}

TEST(ValidateTest, RejectsSemanticGarbage) {
  WorkloadDump wd = ModuleAndDumpOf("use_after_free");
  auto expect_rejected = [&](Coredump mutant, const char* what) {
    Status s = mutant.Validate(wd.module);
    EXPECT_FALSE(s.ok()) << what;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << what;
  };

  {
    Coredump m = wd.dump;
    m.trap.kind = static_cast<TrapKind>(200);
    expect_rejected(std::move(m), "trap kind out of range");
  }
  {
    Coredump m = wd.dump;
    m.trap.thread = static_cast<uint32_t>(m.threads.size());
    expect_rejected(std::move(m), "trap thread out of range");
  }
  {
    Coredump m = wd.dump;
    m.trap.pc.func = static_cast<FuncId>(wd.module.functions().size());
    expect_rejected(std::move(m), "trap pc outside module");
  }
  {
    Coredump m = wd.dump;
    m.FaultingThread();  // ensure the faulting thread exists
    m.threads[m.trap.thread].frames.back().regs.push_back(0);
    expect_rejected(std::move(m), "register file size mismatch");
  }
  {
    Coredump m = wd.dump;
    m.threads[0].state = static_cast<ThreadState>(9);
    expect_rejected(std::move(m), "thread state out of range");
  }
  {
    Coredump m = wd.dump;
    m.threads[0].frames[0].block = 0xfffffff0u;
    expect_rejected(std::move(m), "frame block outside function");
  }
  {
    Coredump m = wd.dump;
    BranchRecord junk;
    junk.source = Pc{0, 0, 0};
    junk.dest = Pc{static_cast<FuncId>(wd.module.functions().size()), 0, 0};
    m.threads[0].lbr.assign(1, junk);
    expect_rejected(std::move(m), "LBR entry outside module");
  }
  if (!wd.dump.heap_allocations.empty()) {
    Coredump m = wd.dump;
    m.heap_allocations.front().alloc_seq = m.heap_next_seq + 7;
    expect_rejected(std::move(m), "allocation sequence outside heap epoch");
    m = wd.dump;
    m.heap_allocations.front().size_words = UINT64_MAX / 4;
    expect_rejected(std::move(m), "allocation extent overflows");
  }
  if (!wd.dump.error_log.empty()) {
    Coredump m = wd.dump;
    m.error_log.front().thread = static_cast<uint32_t>(m.threads.size() + 3);
    expect_rejected(std::move(m), "error-log thread out of range");
  }
}

TEST(ValidateTest, GlobalsImageIsTheModulesGlobals) {
  WorkloadDump wd = ModuleAndDumpOf("div_by_zero_input");
  ASSERT_TRUE(wd.dump.Validate(wd.module).ok());
  auto expect_rejected = [&wd](const Coredump& mutant, const char* why) {
    Status s = mutant.Validate(wd.module);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_NE(s.message().find(why), std::string::npos) << s.ToString();
  };
  // One undeclared word on each page of the globals segment: an image the
  // deserializer admits, since each word lies in the segment.
  Coredump spread = wd.dump;
  constexpr uint64_t kPages = (kGlobalLimit - kGlobalBase) / AddressSpace::kPageBytes;
  for (uint64_t p = 1; p <= kPages; ++p) {
    spread.memory.WriteWordUnchecked(
        kGlobalBase + p * AddressSpace::kPageBytes - kWordSize, static_cast<int64_t>(p));
  }
  const std::vector<uint8_t> blob = SerializeCoredump(spread);
  EXPECT_LT(blob.size(), 66'000u);
  auto parsed = DeserializeCoredump(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  expect_rejected(parsed.value(), "globals the module does not declare");
  // Given the module, the deserializer refuses that image itself, before it
  // builds a page per word; the VM's own dump still deserializes.
  auto refused = DeserializeCoredump(blob, {}, &wd.module);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("globals the module does not declare"),
            std::string::npos)
      << refused.status().ToString();
  auto own = DeserializeCoredump(SerializeCoredump(wd.dump), {}, &wd.module);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_TRUE(own.value().Validate(wd.module).ok());
  // Each declared global word is in the image.
  for (const GlobalVar& g : wd.module.globals()) {
    Coredump missing = wd.dump;
    missing.memory.UnmapRegion(g.address, 1);
    expect_rejected(missing, "declared global word missing");
  }
  // A minidump carries no image to check.
  EXPECT_TRUE(MakeMinidump(wd.dump).Validate(wd.module).ok());
}

TEST(ValidateTest, ErrorLogNoLongerThanItsRing) {
  // No VM keeps more than kErrorLogCapacity entries, but wire bytes can
  // carry any number: a full ring validates, one entry more is data loss.
  WorkloadDump wd = ModuleAndDumpOf("use_after_free");
  ErrorLogEntry entry;
  entry.thread = wd.dump.trap.thread;
  entry.pc = wd.dump.trap.pc;
  Coredump full = wd.dump;
  full.error_log.assign(kErrorLogCapacity, entry);
  Status s = full.Validate(wd.module);
  EXPECT_TRUE(s.ok()) << s.ToString();
  Coredump over = wd.dump;
  over.error_log.assign(kErrorLogCapacity + 1, entry);
  s = over.Validate(wd.module);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

}  // namespace
}  // namespace res
