// T5 — the motivation numbers (paper §1): always-on record-replay is too
// expensive for production. Quotes: SMP-ReVirt ~400%, ODR ~60% overhead.
// We regenerate the *shape* on our VM: full memory-op logging vs
// input+schedule logging vs native, on CPU- and memory-bound workloads.
#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "src/support/string_util.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

namespace {

// One timed mode: the median of 5 runs, and what one run retired and logged.
struct Timing {
  double median_ms = -1;
  uint64_t steps = 0;
  size_t log_bytes = 0;
};

// Runs `module` 5 times, each on a fresh VM with a fresh recorder from
// `make_recorder` (none when it is null: the native run).
Timing TimeRun(const Module& module,
               std::unique_ptr<Recorder> (*make_recorder)() = nullptr) {
  Timing out;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    Vm vm(&module);
    RoundRobinScheduler scheduler;
    vm.set_scheduler(&scheduler);
    QueueInputProvider inputs(/*fallback=*/1);  // divisor 1: no trap
    vm.set_input_provider(&inputs);
    std::unique_ptr<Recorder> recorder =
        make_recorder != nullptr ? make_recorder() : nullptr;
    vm.set_recorder(recorder.get());
    if (!vm.Reset().ok()) {
      return out;
    }
    WallTimer timer;
    RunResult run = vm.Run();
    times.push_back(timer.ElapsedMs());
    out.steps = run.steps;
    out.log_bytes = recorder != nullptr ? recorder->LogBytes() : 0;
  }
  std::sort(times.begin(), times.end());
  out.median_ms = times[times.size() / 2];
  return out;
}

}  // namespace

int main() {
  PrintHeader("T5: record-replay runtime overhead (motivation, paper §1)");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workload", "mode", "median ms", "overhead", "log size"});

  const uint64_t kIters = 300000;
  Module module = BuildLongExecution(kIters);

  const Timing native = TimeRun(module);
  const Timing full = TimeRun(module, []() -> std::unique_ptr<Recorder> {
    return std::make_unique<FullMemoryRecorder>();
  });
  const Timing light = TimeRun(module, []() -> std::unique_ptr<Recorder> {
    return std::make_unique<InputScheduleRecorder>();
  });
  const double native_ms = native.median_ms;

  auto overhead = [native_ms](double ms) {
    return StrFormat("%+.0f%%", 100.0 * (ms - native_ms) / native_ms);
  };
  rows.push_back({"long_execution(300k)", "native (RES needs this)",
                  StrFormat("%.1f", native_ms), "baseline", "0 B"});
  rows.push_back({"long_execution(300k)", "full memory log (SMP-ReVirt-like)",
                  StrFormat("%.1f", full.median_ms), overhead(full.median_ms),
                  StrFormat("%.1f MiB", full.log_bytes / (1024.0 * 1024.0))});
  rows.push_back({"long_execution(300k)", "input+schedule log (ODR-like)",
                  StrFormat("%.1f", light.median_ms),
                  overhead(light.median_ms),
                  StrFormat("%zu B", light.log_bytes)});
  PrintTable(rows);

  // Wall-clock-only records (no engine runs here): the overhead *shape* is
  // what matters, so these names are not baselined by tools/check_bench.py —
  // they exist to keep T5 in the same machine-readable trail as the rest.
  BenchJsonWriter json;
  BenchRecord r;
  r.name = "table5_recording_overhead/mode=native";
  r.wall_ms = native_ms;
  json.Append(r);
  r.name = "table5_recording_overhead/mode=full_memory_log";
  r.wall_ms = full.median_ms;
  json.Append(r);
  r.name = "table5_recording_overhead/mode=input_schedule_log";
  r.wall_ms = light.median_ms;
  json.Append(r);
  std::printf("\nexpected shape: full-logging overhead large and log size "
              "proportional to execution; RES's row is 'native' — it records "
              "nothing (paper quotes 400%% / 60%% for the two regimes)\n");

  // --- Execution substrate: the native runs' throughput on the predecoded
  // direct-threaded VM (docs/ARCHITECTURE.md §12). The step count is
  // deterministic, so it is baselined as a floor; throughput is
  // wall-dependent and reported only.
  PrintHeader("T5b: interpreter throughput (native run)");
  const double steps_per_sec =
      native_ms > 0 ? 1000.0 * static_cast<double>(native.steps) / native_ms
                    : 0.0;
  PrintTable({{"engine", "median ms", "steps", "Msteps/s"},
              {"predecoded direct-threaded", StrFormat("%.1f", native_ms),
               StrFormat("%llu", (unsigned long long)native.steps),
               StrFormat("%.2f", steps_per_sec / 1e6)}});

  r = BenchRecord{};
  r.name = "table5_recording_overhead/engine=predecode";
  r.wall_ms = native_ms;
  r.vm_steps = native.steps;
  r.vm_steps_per_sec = steps_per_sec;
  json.Append(r);
  return 0;
}
