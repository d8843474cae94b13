// Seeded crash corpora. Everything a workload feeds the program is minted
// here from the workload seed and handed over as bytes: RESMOD1 module blobs
// and serialized coredumps. The same seed gives the same corpus digest.
#ifndef PERFBENCH_SRC_CORPUS_H_
#define PERFBENCH_SRC_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/support/status.h"
#include "src/vm/predecode.h"
#include "src/vm/scheduler.h"
#include "src/workloads/workloads.h"

namespace perfbench {

struct CorpusModule {
  std::string name;
  std::vector<uint8_t> blob;              // RESMOD1 wire bytes
  std::unique_ptr<res::Module> module;    // parsed back from `blob`
  const res::WorkloadSpec* spec = nullptr;  // ground truth; null = checker
};

// What a correct report says about a dump.
enum class Truth : uint8_t {
  kSoftware,  // the root cause is in the module's WorkloadSpec
  kHardware,  // a bit flip in a bug-free program: hardware_error_suspected
};

struct CorpusDump {
  size_t module = 0;
  const char* origin = "";   // sweep | input | flip | racy
  std::vector<uint8_t> blob;
  Truth truth = Truth::kSoftware;
  // Inside the class RES claims to handle: every racing peer still live at
  // the crash, and the workload's own dump predicate holds. Outside it, a
  // missing or hardware verdict is the known gap, counted but not fatal.
  bool supported = true;
};

// The daemon's wave size in every triage workload.
constexpr size_t kWaveSize = 8;

struct Corpus {
  std::vector<CorpusModule> modules;
  std::vector<CorpusDump> dumps;   // distinct dumps
  // Submission orders (indices into dumps); round r of a run submits
  // streams[r % streams.size()].
  std::vector<std::vector<size_t>> streams;
  // Rounds an untraced run makes at least; the first min_rounds streams
  // submit every distinct dump.
  size_t min_rounds = 1;
  std::vector<uint64_t> lengths;   // long_run: loop iterations per module
  std::string digest;
};

// Work done by the production runs and generators while minting.
struct MintCounters {
  uint64_t vm_runs = 0;
  uint64_t vm_steps = 0;
  double vm_run_ms = 0;
  uint64_t sweep_runs = 0;
  uint64_t sweep_crashes = 0;
  uint64_t sweep_fixtures = 0;
  uint64_t fault_attempts = 0;
  uint64_t fault_dumps = 0;
};

// fleet_mix: sweep fixtures (admission filters off), single-threaded bug
// classes under varied inputs, and bit flips of a bug-free checker; 32
// Zipf-ranked, module-interleaved streams of 4000 submissions over them.
res::Result<Corpus> MintFleet(uint64_t seed, bool tiny, Tracer* tracer,
                              MintCounters* c);
// racy_wide / racy_wide_par: 96 distinct BuildRacyCounterWide(4) crashes
// with every peer live, in four blocks of 24, each submitted in the eight
// wave rotations of one seeded order (32 streams). The crash set is
// canonical; the seed orders each block.
res::Result<Corpus> MintRacy(uint64_t seed, bool tiny, Tracer* tracer,
                             MintCounters* c);
// long_run: BuildLongExecution modules at seeded lengths spanning a decade.
// The crashes themselves are produced in the timed phase, in module order.
res::Result<Corpus> MintLong(uint64_t seed, bool tiny);

// One production run on the predecoded VM, timed into `c` (and as a
// `vm.run` span); on the expected trap, the captured crash.
struct ProductionRun {
  res::RunResult run;
  res::Coredump dump;
  bool crashed = false;
};
ProductionRun RunProduction(const res::Module& module,
                            const res::PredecodedModule& predecoded,
                            res::Scheduler* scheduler,
                            const std::vector<int64_t>& inputs,
                            res::TrapKind expected_trap, uint64_t max_steps,
                            Tracer* tracer, MintCounters* c);

// Lowers every module once, timed as `vm.predecode` (traced runs only: the
// runtime's FactsFor builds the same lowering as part of set-up).
void TracePredecode(const Corpus& corpus, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CORPUS_H_
