#include "perfbench/src/corpus.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "src/coredump/coredump.h"
#include "src/coredump/serialize.h"
#include "src/ir/builder.h"
#include "src/ir/module_serialize.h"
#include "src/ir/verifier.h"
#include "src/scenario/scenario.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/vm/predecode.h"
#include "src/vm/scheduler.h"
#include "src/vm/vm.h"
#include "src/workloads/harness.h"

namespace perfbench {

namespace {

using res::Coredump;
using res::Module;

// Bug-free checker: stores constant pairs, re-derives them and asserts
// b == 2a in one block. Only a hardware fault (a flipped memory bit) can
// make it crash, and no feasible execution explains such a dump.
Module BuildChecker() {
  constexpr int kPairs = 4;
  res::ModuleBuilder mb;
  for (int i = 0; i < kPairs; ++i) {
    mb.AddGlobal("a" + std::to_string(i), 1);
    mb.AddGlobal("b" + std::to_string(i), 1);
  }
  res::FunctionBuilder fb = mb.DefineFunction("main", 0);
  res::BlockId check = fb.NewBlock("check");
  fb.SetInsertPoint(0);
  for (int i = 0; i < kPairs; ++i) {
    fb.StoreGlobal("a" + std::to_string(i), fb.Const(17 + 5 * i));
    fb.StoreGlobal("b" + std::to_string(i), fb.Const(2 * (17 + 5 * i)));
  }
  fb.Br(check);
  fb.SetInsertPoint(check);
  res::RegId two = fb.Const(2);
  for (int i = 0; i < kPairs; ++i) {
    res::RegId a = fb.LoadGlobal("a" + std::to_string(i));
    res::RegId b = fb.LoadGlobal("b" + std::to_string(i));
    fb.Assert(fb.CmpEq(fb.Mul(a, two), b), "invariant b == 2a violated");
  }
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  return std::move(mb).Build();
}

// Steps of BuildChecker's entry block: every pair stored, before the check.
constexpr uint64_t kCheckerFlipAfterSteps = 4 * 4;

// Adds a module to the corpus as RESMOD1 bytes and parses it back: the
// program only ever sees the blob.
res::Result<size_t> AddModuleBlob(Corpus* corpus, const std::string& name,
                                  std::vector<uint8_t> blob,
                                  const res::WorkloadSpec* spec) {
  CorpusModule m;
  m.name = name;
  m.blob = std::move(blob);
  RES_ASSIGN_OR_RETURN(Module parsed, res::DeserializeModule(m.blob));
  RES_RETURN_IF_ERROR(res::VerifyModule(parsed));
  m.module = std::make_unique<Module>(std::move(parsed));
  m.spec = spec;
  corpus->modules.push_back(std::move(m));
  return corpus->modules.size() - 1;
}

res::Result<size_t> AddModule(Corpus* corpus, const std::string& name,
                              const Module& built,
                              const res::WorkloadSpec* spec) {
  return AddModuleBlob(corpus, name, res::SerializeModule(built), spec);
}

bool AnyThreadExited(const Coredump& dump) {
  for (const res::ThreadDump& t : dump.threads) {
    if (t.state == res::ThreadState::kExited) {
      return true;
    }
  }
  return false;
}

// Keeps distinct dumps only (byte-identical blobs collapse).
class DumpSet {
 public:
  bool Add(Corpus* corpus, CorpusDump dump) {
    const uint64_t h = res::FnvHashBytes(dump.blob.data(), dump.blob.size());
    if (!seen_.insert(h).second) {
      return false;
    }
    corpus->dumps.push_back(std::move(dump));
    return true;
  }

 private:
  std::set<uint64_t> seen_;
};

}  // namespace

ProductionRun RunProduction(const Module& module,
                            const res::PredecodedModule& predecoded,
                            res::Scheduler* scheduler,
                            const std::vector<int64_t>& inputs,
                            res::TrapKind expected_trap, uint64_t max_steps,
                            Tracer* tracer, MintCounters* c) {
  res::VmOptions vm_options;
  vm_options.max_steps = max_steps;
  res::Vm vm(&module, vm_options);
  vm.set_predecoded(&predecoded);
  vm.set_scheduler(scheduler);
  res::QueueInputProvider provider(/*fallback=*/0);
  provider.PushAll(0, inputs);
  vm.set_input_provider(&provider);
  ProductionRun out;
  if (!vm.Reset().ok()) {
    return out;
  }
  {
    SpanScope span(tracer, "vm.run");
    const Clock::time_point t0 = Clock::now();
    out.run = vm.Run();
    c->vm_run_ms += MsBetween(t0, Clock::now());
  }
  ++c->vm_runs;
  c->vm_steps += out.run.steps;
  if (out.run.outcome != res::RunOutcome::kTrapped ||
      out.run.trap.kind != expected_trap) {
    return out;
  }
  out.crashed = true;
  SpanScope span(tracer, "coredump.capture");
  out.dump = res::CaptureCoredump(vm);
  return out;
}

namespace {

// Production runs of the small corpus programs end in well under this.
constexpr uint64_t kCorpusMaxSteps = 200000;

// fleet_mix submission streams of 4000, each with its own ranking. A 20 s
// run makes about 24 rounds, so each of them brings a new ranking: with
// eight rankings per run, ten seeds spread the p99 latency by 0.29.
constexpr int kFleetStreams = 32;
// Rounds a fleet_mix run makes at least: eight rankings.
constexpr size_t kFleetMinRounds = 8;

std::vector<uint8_t> Serialize(const Coredump& dump, Tracer* tracer) {
  SpanScope span(tracer, "coredump.serialize");
  return res::SerializeCoredump(dump);
}

void FinishDigest(Corpus* corpus) {
  Digest d;
  for (const CorpusModule& m : corpus->modules) {
    d.Add(m.name);
    d.Add(m.blob.data(), m.blob.size());
  }
  for (const CorpusDump& dump : corpus->dumps) {
    d.AddU64(dump.module);
    d.Add(dump.blob.data(), dump.blob.size());
  }
  for (const std::vector<size_t>& stream : corpus->streams) {
    d.AddU64(stream.size());
    for (size_t i : stream) {
      d.AddU64(i);
    }
  }
  for (uint64_t n : corpus->lengths) {
    d.AddU64(n);
  }
  corpus->digest = d.Hex();
}

void Shuffle(std::vector<size_t>* v, res::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

// Heavy-tailed stream over one seeded ranking of all distinct dumps: the
// dump at rank r is submitted in proportion to 1/(r+1) (Zipf's law), with
// counts fixed by largest remainder, in seeded arrival order. The shape is
// an assumption, not a fit: WER-style field streams are heavy-tailed, but
// no public crash-report data was available to fit an exponent to.
std::vector<size_t> HeavyTailedStream(const Corpus& corpus, size_t submissions,
                                      res::Rng* rng) {
  std::vector<size_t> ranked(corpus.dumps.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    ranked[i] = i;
  }
  Shuffle(&ranked, rng);
  std::vector<double> weight(ranked.size());
  double total = 0;
  for (size_t r = 0; r < ranked.size(); ++r) {
    weight[r] = 1.0 / static_cast<double>(r + 1);
    total += weight[r];
  }
  std::vector<size_t> count(ranked.size());
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t r = 0; r < ranked.size(); ++r) {
    const double exact = static_cast<double>(submissions) * weight[r] / total;
    count[r] = static_cast<size_t>(exact);
    assigned += count[r];
    remainder.push_back({-(exact - static_cast<double>(count[r])), r});
  }
  std::sort(remainder.begin(), remainder.end());
  for (size_t i = 0; assigned < submissions && i < remainder.size(); ++i) {
    ++count[remainder[i].second];
    ++assigned;
  }
  std::vector<size_t> stream;
  for (size_t r = 0; r < ranked.size(); ++r) {
    stream.insert(stream.end(), count[r], ranked[r]);
  }
  Shuffle(&stream, rng);
  return stream;
}

}  // namespace

res::Result<Corpus> MintFleet(uint64_t seed, bool tiny, Tracer* tracer,
                              MintCounters* c) {
  Corpus corpus;
  DumpSet distinct;
  res::Rng rng(res::HashCombine(0xf1ee7, seed));

  // 1. The schedule-space sweep over the multithreaded corpus, admission
  //    filters off: exited-peer crashes are part of the field stream.
  {
    res::ScenarioGrid grid = res::DefaultSweepGrid();
    // Knob variants of every spec-constructible family widen the set of
    // distinct failing states beyond the default grid's four policies.
    grid.policies = {
        "rr:quantum=1",
        "rr:quantum=2",
        "rr:quantum=3",
        "random:permille=150",
        "random:permille=350",
        "random:permille=600",
        "pct:depth=2,steps=32",
        "pct:depth=3,steps=64",
        "pct:depth=5,steps=128",
        "delay:permille=200,max_delay=2",
        "delay:permille=300,max_delay=3",
        "delay:permille=500,max_delay=6",
    };
    grid.first_seed = 1 + rng.NextBelow(1u << 20);
    grid.seeds_per_cell = tiny ? 1 : 60;
    grid.require_live_peers = false;
    grid.respect_workload_admission = false;
    grid.max_variants_per_bucket = 1u << 20;
    res::Result<res::SweepResult> sweep = [&] {
      SpanScope span(tracer, "scenario.sweep");
      return res::RunSweep(grid);
    }();
    RES_RETURN_IF_ERROR(sweep.status());
    const res::SweepResult& s = sweep.value();
    c->sweep_runs += s.stats.runs;
    c->sweep_crashes += s.stats.crashes;
    c->sweep_fixtures += s.fixtures.size();
    std::map<std::string, size_t> module_of;
    for (const auto& [name, blob] : s.module_blobs) {
      RES_ASSIGN_OR_RETURN(module_of[name],
                           AddModuleBlob(&corpus, name, blob,
                                         &res::WorkloadByName(name)));
    }
    for (size_t i = 0; i < s.fixtures.size(); ++i) {
      const size_t module = module_of.at(s.fixtures[i].workload);
      // Ground-truth bookkeeping only: the program gets the blob.
      RES_ASSIGN_OR_RETURN(Coredump dump, res::DeserializeCoredump(s.dump_blobs[i]));
      const CorpusModule& cm = corpus.modules[module];
      CorpusDump d;
      d.module = module;
      d.origin = "sweep";
      d.blob = s.dump_blobs[i];
      d.supported = !AnyThreadExited(dump) &&
                    (!cm.spec->dump_predicate ||
                     cm.spec->dump_predicate(*cm.module, dump));
      distinct.Add(&corpus, std::move(d));
    }
  }

  // 2. Single-threaded bug classes under varied inputs and schedules.
  for (const char* name : {"buffer_overflow", "use_after_free", "double_free",
                           "div_by_zero_input", "semantic_assert"}) {
    const res::WorkloadSpec& spec = res::WorkloadByName(name);
    RES_ASSIGN_OR_RETURN(size_t module,
                         AddModule(&corpus, name, spec.build(), &spec));
    const Module& m = *corpus.modules[module].module;
    const res::PredecodedModule predecoded = res::PredecodedModule::Build(m);
    const int tries = tiny ? 8 : 96;
    for (int t = 0; t < tries; ++t) {
      const int64_t base = spec.channel0_inputs.empty() ? 0 : spec.channel0_inputs[0];
      // Half the tries keep the spec's crashing input and vary the
      // schedule; the rest also vary the input.
      const int64_t input =
          t % 2 == 0 ? base : base + static_cast<int64_t>(rng.NextBelow(9)) - 4;
      res::RandomScheduler scheduler(rng.Next(), 350);
      ProductionRun run =
          RunProduction(m, predecoded, &scheduler, {input}, spec.expected_trap,
                        kCorpusMaxSteps, tracer, c);
      if (!run.crashed) {
        continue;
      }
      CorpusDump d;
      d.module = module;
      d.origin = "input";
      d.blob = Serialize(run.dump, tracer);
      distinct.Add(&corpus, std::move(d));
    }
  }

  // 3. Live DRAM bit flips in the bug-free checker.
  {
    RES_ASSIGN_OR_RETURN(size_t module,
                         AddModule(&corpus, "checker", BuildChecker(), nullptr));
    const Module& m = *corpus.modules[module].module;
    const int tries = tiny ? 8 : 200;
    for (int t = 0; t < tries; ++t) {
      ++c->fault_attempts;
      res::Result<Coredump> dump = [&] {
        SpanScope span(tracer, "workloads.fault");
        return res::RunWithMemoryFault(m, {}, kCheckerFlipAfterSteps, rng.Next());
      }();
      if (!dump.ok()) {
        continue;
      }
      ++c->fault_dumps;
      CorpusDump d;
      d.module = module;
      d.origin = "flip";
      d.truth = Truth::kHardware;
      d.blob = Serialize(dump.value(), tracer);
      distinct.Add(&corpus, std::move(d));
    }
  }

  // Each stream ranks the dumps anew, and each round of a run takes the
  // next stream, so a run's medians do not hang on which dump one ranking
  // puts on top.
  for (int k = 0; k < (tiny ? 1 : kFleetStreams); ++k) {
    corpus.streams.push_back(HeavyTailedStream(corpus, tiny ? 200 : 4000, &rng));
  }
  corpus.min_rounds = std::min(corpus.streams.size(), kFleetMinRounds);
  FinishDigest(&corpus);
  return corpus;
}

res::Result<Corpus> MintRacy(uint64_t seed, bool tiny, Tracer* tracer,
                             MintCounters* c) {
  Corpus corpus;
  DumpSet distinct;
  // The crash set is canonical: the first distinct live-peer crashes of a
  // fixed scheduler-seed sequence. RES cost per crash is bimodal (a third
  // reconstruct back to program start in a few ms, the rest spend the whole
  // hypothesis budget), so a seeded crash set would move the stream's cost
  // and memory by more than the benchmark's bounds. The workload seed
  // orders each stream, which sets the waves and the promotion order.
  res::Rng schedules(0x4ac1);
  res::Rng order(res::HashCombine(0x4ac1, seed));
  const res::WorkloadSpec& spec = res::WorkloadByName("racy_counter");
  RES_ASSIGN_OR_RETURN(size_t module,
                       AddModule(&corpus, "racy_counter_wide4",
                                 res::BuildRacyCounterWide(4), &spec));
  const Module& m = *corpus.modules[module].module;
  const res::PredecodedModule predecoded = res::PredecodedModule::Build(m);
  const size_t streams = tiny ? 2 : 4;
  const size_t per_stream = tiny ? 3 : 24;
  const size_t want = streams * per_stream;
  for (int t = 0; t < 100000 && corpus.dumps.size() < want; ++t) {
    res::RandomScheduler scheduler(schedules.Next(), spec.switch_permille);
    ProductionRun run = RunProduction(m, predecoded, &scheduler,
                                      spec.channel0_inputs, spec.expected_trap,
                                      kCorpusMaxSteps, tracer, c);
    if (!run.crashed || AnyThreadExited(run.dump)) {
      continue;
    }
    CorpusDump d;
    d.module = module;
    d.origin = "racy";
    d.blob = Serialize(run.dump, tracer);
    distinct.Add(&corpus, std::move(d));
  }
  if (corpus.dumps.size() < want) {
    return res::NotFound("racy_wide: too few distinct live-peer crashes");
  }
  // Latency is a running sum within a wave, so it hangs on which dumps share
  // a wave: with one order per block, a stream's median latency ranged from
  // 200 to 560 ms by seed. Each block is therefore submitted in rotations of
  // its seeded order. Rotating by k moves every dump k wave positions, and
  // the eight rotations of the wave size (taken in steps of 3, so that the
  // first rounds of a run already spread over them) put every dump at every
  // wave position once. Round r takes block r mod 4 at rotation r / 4.
  std::vector<std::vector<size_t>> blocks;
  for (size_t k = 0; k < streams; ++k) {
    std::vector<size_t> block;
    for (size_t i = k * per_stream; i < (k + 1) * per_stream; ++i) {
      block.push_back(i);
    }
    Shuffle(&block, &order);
    blocks.push_back(std::move(block));
  }
  const size_t rotations = tiny ? 1 : kWaveSize;
  for (size_t j = 0; j < rotations; ++j) {
    const size_t shift = (3 * j) % kWaveSize;
    for (const std::vector<size_t>& block : blocks) {
      std::vector<size_t> stream(block.begin() + shift, block.end());
      stream.insert(stream.end(), block.begin(), block.begin() + shift);
      corpus.streams.push_back(std::move(stream));
    }
  }
  corpus.min_rounds = streams;
  FinishDigest(&corpus);
  return corpus;
}

res::Result<Corpus> MintLong(uint64_t seed, bool tiny) {
  Corpus corpus;
  res::Rng rng(res::HashCombine(0x10c9, seed));
  const res::WorkloadSpec& spec = res::WorkloadByName("div_by_zero_input");
  const size_t count = tiny ? 3 : 20;
  const double lo = tiny ? 1000 : 60000;  // loop iterations; ~24.5 steps each
  // Log-uniform over one decade, stratified so every run spans it, then
  // scaled to the stratum midpoints' total: the seed moves the lengths but
  // not the round's amount of VM work.
  std::vector<double> raw;
  double raw_total = 0;
  double target_total = 0;
  for (size_t i = 0; i < count; ++i) {
    const double jitter = static_cast<double>(rng.NextBelow(1000)) / 1000.0;
    const double n = static_cast<double>(count);
    raw.push_back(lo * std::pow(10.0, (static_cast<double>(i) + jitter) / n));
    raw_total += raw.back();
    target_total += lo * std::pow(10.0, (static_cast<double>(i) + 0.5) / n);
  }
  for (double r : raw) {
    corpus.lengths.push_back(static_cast<uint64_t>(r * target_total / raw_total));
  }
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) {
    order[i] = i;
  }
  Shuffle(&order, &rng);
  std::vector<uint64_t> lengths;
  for (size_t i : order) {
    const uint64_t n = corpus.lengths[i];
    lengths.push_back(n);
    RES_RETURN_IF_ERROR(AddModule(&corpus, "long_execution_" + std::to_string(n),
                                  res::BuildLongExecution(n), &spec)
                            .status());
  }
  corpus.lengths = std::move(lengths);
  FinishDigest(&corpus);
  return corpus;
}

void TracePredecode(const Corpus& corpus, Tracer* tracer) {
  for (const CorpusModule& m : corpus.modules) {
    SpanScope span(tracer, "vm.predecode");
    res::PredecodedModule lowered = res::PredecodedModule::Build(*m.module);
    (void)lowered;
  }
}

}  // namespace perfbench
