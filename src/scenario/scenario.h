// Schedule-space scenario engine: policy x seed sweeps over the workload
// corpus (ROADMAP open item "schedule-space scenario engine").
//
// Every recorded failure used to come from one hard-wired scheduling
// policy, so the fixture corpus exercised a thin slice of interleaving
// space. The sweep driver here runs each workload under a grid of
// scheduler specs (src/vm/scheduler_spec.h) x seeds; each grid point is a
// fully deterministic workload variant. Crashing runs are captured through
// the existing coredump path (CaptureCoredump + SerializeCoredump) into
// fixtures, deduplicated, and described by a JSONL manifest.
//
// Dedup model: a fixture's bug identity is (trap PC, stack bucket); its
// schedule identity is the serialized dump fingerprint. Byte-identical
// dumps always collapse (seed-free policies, or seeds that happen to
// reproduce the same interleaving); distinct failing states of the same
// bug are kept up to `max_variants_per_bucket` per (workload, policy, bug
// identity) — those variants ARE the corpus growth: the same root cause
// frozen under different schedules.
//
// Cross-schedule differential (docs/SCENARIOS.md "determinism contract"):
// a bug caught under >= 2 policies is re-analyzed by RES once per policy
// and the detected root causes are byte-compared. The root cause is a
// property of the bug, not of the interleaving that exposed it, so the
// canonical cause signature must agree across schedules — a brand-new
// determinism axis alongside the batch-parallelism and daemon ones.
#ifndef RES_SCENARIO_SCENARIO_H_
#define RES_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/res/reverse_engine.h"
#include "src/vm/scheduler_spec.h"
#include "src/vm/trap.h"

namespace res {

struct ScenarioGrid {
  // Workload names (src/workloads/workloads.h registry). Empty = every
  // multithreaded corpus entry (the concurrency workloads — the ones whose
  // failures depend on the schedule).
  std::vector<std::string> workloads;
  // Scheduler spec strings (docs/SCENARIOS.md grammar). Each is parsed
  // once; the sweep varies only the seed.
  std::vector<std::string> policies;
  uint64_t first_seed = 1;
  uint64_t seeds_per_cell = 12;      // seeds per (workload, policy) cell
  uint64_t max_steps_per_run = 100000;
  // Distinct-dump variants kept per (workload, policy, trap PC, bucket).
  size_t max_variants_per_bucket = 16;
  // Fixture admission. The engine attributes suffix units only to threads
  // whose stacks survive in the coredump (workloads.h), so a crash whose
  // racing peer already exited is outside the supported fixture class —
  // RES would (correctly, per its contract) fail to find a feasible
  // schedule and suspect a hardware error. With `require_live_peers` the
  // sweep drops multithreaded-workload dumps with exited threads; with
  // `respect_workload_admission` it additionally applies the workload's
  // own dump_predicate (e.g. order_violation's "producer had published").
  // Both default on: the minted corpus must be RES-analyzable. Inadmissible
  // crashes are counted, not minted.
  bool require_live_peers = true;
  bool respect_workload_admission = true;
};

// The fixed grid the sweep bench, the stress test, and `resdbg sweep`
// default to — changing it invalidates bench/baselines.json sweep records.
ScenarioGrid DefaultSweepGrid();

// One kept fixture (after dedup).
struct FixtureRecord {
  std::string workload;
  std::string policy;            // canonical spec string
  uint64_t seed = 0;
  TrapKind trap = TrapKind::kNone;
  std::string trap_pc;           // module.PcToString of the trap site
  std::string bucket;            // WER-style faulting-stack signature
  uint64_t dump_fingerprint = 0; // FNV over the serialized dump bytes
  size_t dump_bytes = 0;
  size_t schedule_log_bytes = 0; // InputScheduleRecorder footprint
  uint64_t steps = 0;            // instructions executed before the trap
  std::string path;              // set by WriteSweepFixtures; else empty
  std::string module_path;       // workload's RESMOD1 blob; same lifecycle
};

struct SweepStats {
  uint64_t runs = 0;             // grid points executed
  uint64_t crashes = 0;          // runs that ended in a failure trap
  uint64_t clean_runs = 0;       // halted / step-limited runs
  uint64_t inadmissible = 0;     // crashes dropped by fixture admission
  uint64_t dedup_dropped = 0;    // byte-identical dumps collapsed
  uint64_t variant_capped = 0;   // distinct dumps over the per-bucket cap
};

struct SweepResult {
  std::vector<FixtureRecord> fixtures;
  // Serialized dump bytes, aligned with `fixtures` (fixtures are small;
  // keeping them in memory lets tests and the differential harness run
  // without touching disk).
  std::vector<std::vector<uint8_t>> dump_blobs;
  // RESMOD1 binary module blob per swept workload name (every selected
  // workload, fixtures or not) — a fixture without its module is not
  // replayable, so the sweep mints both.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> module_blobs;
  SweepStats stats;

  // Distinct (workload, trap PC, bucket) bug identities in the fixtures.
  size_t UniqueBugCount() const;
};

// Runs the grid. Errors only on malformed grids (unknown workload, bad
// policy spec); individual runs cannot fail — a run either crashes (fixture
// candidate) or completes (counted clean).
Result<SweepResult> RunSweep(const ScenarioGrid& grid);

// Writes each fixture to `<out_dir>/<workload>__<policy>__seed<N>.core`
// (spec punctuation sanitized) and each swept workload's binary module to
// `<out_dir>/<workload>.resmod`, records the paths in the FixtureRecords,
// and emits `<out_dir>/manifest.jsonl` — one JSON object per fixture with
// every FixtureRecord field. The directory must already exist.
Status WriteSweepFixtures(SweepResult* result, const std::string& out_dir);

// One cross-schedule differential group: a bug identity caught under >= 2
// policies, with the RES root cause per policy.
struct CrossScheduleGroup {
  std::string workload;
  std::string trap_pc;
  std::string bucket;
  std::vector<std::string> policies;     // distinct policies, sweep order
  std::vector<std::string> root_causes;  // canonical signature per policy
  bool causes_equal = false;             // all root_causes byte-identical
};

struct CrossScheduleDiffOptions {
  ResOptions res;          // engine options for the per-dump analyses
  size_t max_groups = 0;   // 0 = diff every eligible group
};

// Groups fixtures by (workload, trap PC, bucket), keeps groups spanning
// >= 2 policies, runs RES on one representative dump per policy (the
// earliest fixture in sweep order — deterministic), and byte-compares the
// canonical root-cause signatures (BucketFromResult: cause signature, or
// the stack fallback when no cause was established).
Result<std::vector<CrossScheduleGroup>> CrossScheduleDiff(
    const SweepResult& sweep, const CrossScheduleDiffOptions& options = {});

}  // namespace res

#endif  // RES_SCENARIO_SCENARIO_H_
