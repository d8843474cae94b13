// F2 — path explosion vs root-cause distance (paper §6): RES cost grows with
// how far the root cause sits from the failure, NOT with execution length.
// Also the incremental-solver and detector scaling probe: at each distance it
// reports the solver work (propagation rounds, constraint visits,
// cache/model-reuse hits) and the detector's unit scans, and appends
// machine-readable records to BENCH_res_scaling.json.
#include "bench/bench_util.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

int main() {
  PrintHeader("F2: RES cost vs root-cause distance (paper §6)");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"distance(blocks)", "suffix units", "hypotheses", "time(ms)",
                  "prop rounds", "prop visits", "reuse+cache hits",
                  "detector scans", "cause found"});
  BenchJsonWriter json;

  WorkloadSpec spec = WorkloadByName("semantic_assert");
  for (uint32_t distance : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 200u}) {
    Module module = BuildRootCauseDistance(distance);
    auto run = RunToFailure(module, spec, {});
    if (!run.ok()) {
      rows.push_back({std::to_string(distance), "-", "-", "-", "-", "-", "-",
                      "-", "no failure"});
      continue;
    }
    ResOptions options;
    options.max_units = 256;
    WallTimer timer;
    ResEngine engine(module, run.value().dump, options);
    ResResult result = engine.Run();
    double ms = timer.ElapsedMs();
    const SolverStats& solver = result.stats.solver;
    rows.push_back(
        {std::to_string(distance),
         result.suffix ? std::to_string(result.suffix->units.size()) : "-",
         std::to_string(result.stats.hypotheses_explored), StrFormat("%.1f", ms),
         std::to_string(solver.propagation_rounds),
         std::to_string(solver.propagated_constraints),
         std::to_string(solver.model_reuse_hits + solver.cache_hits),
         std::to_string(result.stats.detector_units_scanned),
         result.causes.empty()
             ? "NO"
             : std::string(RootCauseKindName(result.causes.front().kind))});
    json.Append(StrFormat("suffix_depth/distance=%u", distance), ms,
                result.stats);
  }
  PrintTable(rows);
  std::printf("\nexpected shape: suffix length, hypotheses and detector scans "
              "grow linearly with the distance; the cause is found at every "
              "distance\n");

  // --- Learned-clause sharing on the interleaving frontier.
  // Full synthesis over a 4-worker racy counter: sibling subtrees re-derive
  // permuted copies of the same conflicting constraint pairs, so the clause
  // store refutes them by membership probes instead of solver checks. Output
  // is byte-identical sharing on/off (tests/clause_sharing_test.cc); the
  // economy shows in clauses learned / hits and the solver verdict mix.
  PrintHeader("F2d: learned-clause sharing on the 4-worker interleaving frontier");
  Module cmodule = BuildRacyCounterWide(4);
  WorkloadSpec cspec = WorkloadByName("racy_counter");
  FailureRunOptions crun_options;
  crun_options.require_live_peers = cspec.requires_live_peers;
  auto crun = RunToFailure(cmodule, cspec, crun_options);
  if (!crun.ok()) {
    std::printf("no failure; skipping clause sharing\n");
    return 0;
  }
  std::vector<std::vector<std::string>> crows;
  crows.push_back({"sharing", "time(ms)", "clauses learned", "clause hits",
                   "solver unsat", "hypotheses"});
  for (bool sharing : {true, false}) {
    ResOptions options;
    options.stop_at_root_cause = false;
    options.max_units = 48;
    options.max_hypotheses = 1000;
    options.clause_sharing = sharing;
    WallTimer timer;
    ResEngine engine(cmodule, crun.value().dump, options);
    ResResult result = engine.Run();
    double ms = timer.ElapsedMs();
    const SolverStats& solver = result.stats.solver;
    crows.push_back({sharing ? "on" : "off", StrFormat("%.1f", ms),
                     std::to_string(solver.clauses_learned),
                     std::to_string(solver.clause_hits),
                     std::to_string(solver.unsat),
                     std::to_string(result.stats.hypotheses_explored)});
    json.Append(StrFormat("suffix_depth/clause_sharing/sharing=%s",
                          sharing ? "on" : "off"),
                ms, result.stats);
  }
  PrintTable(crows);
  std::printf("\nexpected shape: the sharing run reports clause hits > 0 "
              "(each one a sibling hypothesis refuted without a solver "
              "check); the run without sharing reports none\n");
  return 0;
}
