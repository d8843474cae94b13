// resdbg — command-line front end for the RES library.
//
//   resdbg run <program.resvm> [--sched SPEC] [--seed N] [--input V]...
//       Runs the program; on failure writes <program>.core next to it.
//       SPEC is a scheduler spec ("pct:seed=7,depth=3", "rr:quantum=16" —
//       see docs/SCENARIOS.md); default "random:permille=300". --seed
//       overrides the spec's seed.
//   resdbg sweep <outdir> [--workloads a,b] [--policies "p1;p2"]
//                [--seeds N] [--first-seed N] [--max-steps N] [--no-diff]
//       Schedule-space scenario sweep: runs the named corpus workloads
//       (default: every multithreaded one) under each scheduler policy x
//       seed, mints deduplicated coredump fixtures + manifest.jsonl into
//       <outdir> (must exist), and byte-compares RES root causes across
//       the schedules that caught the same bug.
//   resdbg analyze <program.resvm> <dump.core> [--max-units N] [--no-breadcrumbs]
//       Reverse execution synthesis: prints the suffix, root causes, bucket
//       signature, exploitability-relevant taint and the hardware verdict.
//   resdbg replay <program.resvm> <dump.core>
//       Re-synthesizes and deterministically replays the failure,
//       verifying the reproduced coredump against the original.
//   resdbg modc <in> <out>
//       Converts a module between the text IR format and the RESMOD1
//       binary wire format (direction inferred from the input's bytes:
//       binary in -> text out, text in -> binary out).
//
// Every command that takes a program accepts either format — binary
// modules are auto-detected by the RESMOD1 magic.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/ir/module_serialize.h"
#include "src/ir/printer.h"
#include "src/replay/replay.h"
#include "src/res/res_api.h"
#include "src/scenario/scenario.h"
#include "src/support/string_util.h"
#include "src/vm/scheduler_spec.h"

using namespace res;  // NOLINT: tool brevity

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Internal("cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return OkStatus();
}

Result<Module> LoadModule(const std::string& path) {
  RES_ASSIGN_OR_RETURN(std::string raw, ReadFile(path));
  std::vector<uint8_t> bytes(raw.begin(), raw.end());
  if (LooksLikeBinaryModule(bytes)) {
    RES_ASSIGN_OR_RETURN(Module module, DeserializeModule(bytes));
    RES_RETURN_IF_ERROR(VerifyModule(module));
    return module;
  }
  RES_ASSIGN_OR_RETURN(Module module, ParseModule(raw));
  RES_RETURN_IF_ERROR(VerifyModule(module));
  return module;
}

Result<Coredump> LoadDump(const std::string& path) {
  RES_ASSIGN_OR_RETURN(std::string raw, ReadFile(path));
  std::vector<uint8_t> bytes(raw.begin(), raw.end());
  return DeserializeCoredump(bytes);
}

int CmdRun(const std::string& program, int argc, char** argv) {
  auto module = LoadModule(program);
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.status().ToString().c_str());
    return 2;
  }
  SchedulerSpec sched_spec;
  sched_spec.policy = "random";
  sched_spec.permille = 300;
  bool seed_overridden = false;
  uint64_t seed = 1;
  QueueInputProvider inputs(/*fallback=*/0);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_overridden = true;
    } else if (std::strcmp(argv[i], "--sched") == 0 && i + 1 < argc) {
      auto parsed = ParseSchedulerSpec(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
        return 2;
      }
      sched_spec = parsed.value();
    } else if (std::strcmp(argv[i], "--input") == 0 && i + 1 < argc) {
      inputs.Push(0, std::strtoll(argv[++i], nullptr, 10));
    }
  }
  Vm vm(&module.value());
  auto scheduler = seed_overridden ? MakeScheduler(sched_spec, seed)
                                   : MakeScheduler(sched_spec);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "error: %s\n", scheduler.status().ToString().c_str());
    return 2;
  }
  vm.set_scheduler(scheduler.value().get());
  vm.set_input_provider(&inputs);
  if (Status s = vm.Reset(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  RunResult run = vm.Run();
  switch (run.outcome) {
    case RunOutcome::kHalted:
      std::printf("program halted normally after %llu steps\n",
                  static_cast<unsigned long long>(run.steps));
      return 0;
    case RunOutcome::kTrapped: {
      std::printf("FAILURE: %s (after %llu steps)\n",
                  run.trap.ToString(module.value()).c_str(),
                  static_cast<unsigned long long>(run.steps));
      Coredump dump = CaptureCoredump(vm);
      std::string core_path = program + ".core";
      if (Status s = WriteFile(core_path, SerializeCoredump(dump)); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
      std::printf("coredump written to %s (%zu bytes)\n", core_path.c_str(),
                  SerializeCoredump(dump).size());
      return 1;
    }
    default:
      std::printf("step limit reached without failing\n");
      return 0;
  }
}

int CmdAnalyze(const std::string& program, const std::string& core, int argc,
               char** argv) {
  auto module = LoadModule(program);
  auto dump = LoadDump(core);
  if (!module.ok() || !dump.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!module.ok() ? module.status() : dump.status()).ToString().c_str());
    return 2;
  }
  ResOptions options;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-units") == 0 && i + 1 < argc) {
      options.max_units = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-breadcrumbs") == 0) {
      options.use_lbr = false;
      options.use_error_log = false;
    } else if (std::strcmp(argv[i], "--full-path") == 0) {
      options.stop_at_root_cause = false;
    }
  }

  std::printf("failure: %s\n", dump.value().trap.ToString(module.value()).c_str());
  ResEngine engine(module.value(), dump.value(), options);
  ResResult result = engine.Run();

  std::printf("stop: %s (hypotheses %llu, max depth %zu, solver sat/unsat/unknown "
              "%llu/%llu/%llu)\n",
              std::string(StopReasonName(result.stop)).c_str(),
              static_cast<unsigned long long>(result.stats.hypotheses_explored),
              result.stats.max_depth,
              static_cast<unsigned long long>(result.stats.solver.sat),
              static_cast<unsigned long long>(result.stats.solver.unsat),
              static_cast<unsigned long long>(result.stats.solver.unknown));
  if (result.hardware_error_suspected) {
    std::printf("VERDICT: suspected HARDWARE ERROR — no feasible execution "
                "produces this coredump%s\n",
                result.dump_inconsistent_at_trap
                    ? " (the dump state cannot even raise its own trap)"
                    : "");
    return 3;
  }
  if (!result.suffix.has_value()) {
    std::printf("no suffix synthesized\n");
    return 1;
  }
  std::printf("\nexecution suffix (%zu units, %s):\n%s",
              result.suffix->units.size(),
              result.suffix->verified ? "solver-verified" : "UNVERIFIED",
              SuffixToString(module.value(), *result.suffix).c_str());
  ReadWriteSets sets = ComputeReadWriteSets(*result.suffix);
  std::printf("focus: %zu words read, %zu written in the suffix window\n",
              sets.reads.size(), sets.writes.size());
  for (const RootCause& cause : result.causes) {
    std::printf("\nroot cause: %s\n  bucket: %s\n  input-tainted: %s\n",
                cause.description.c_str(),
                cause.BucketSignature(module.value()).c_str(),
                cause.input_tainted ? "yes (attacker-reachable)" : "no");
  }
  return 0;
}

int CmdReplay(const std::string& program, const std::string& core) {
  auto module = LoadModule(program);
  auto dump = LoadDump(core);
  if (!module.ok() || !dump.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!module.ok() ? module.status() : dump.status()).ToString().c_str());
    return 2;
  }
  ResEngine engine(module.value(), dump.value());
  ResResult result = engine.Run();
  if (!result.suffix.has_value() || !result.suffix->verified) {
    std::fprintf(stderr, "no verified suffix to replay\n");
    return 1;
  }
  auto replay =
      ReplaySuffix(module.value(), dump.value(), *result.suffix, engine.pool());
  if (!replay.ok()) {
    std::fprintf(stderr, "replay error: %s\n",
                 replay.status().ToString().c_str());
    return 2;
  }
  std::printf("replayed %zu-unit suffix: trap %s, state %s\n",
              result.suffix->units.size(),
              replay.value().trap_matches ? "MATCHES" : "differs",
              replay.value().state_matches ? "MATCHES" : "differs");
  if (!replay.value().state_matches) {
    std::printf("  first mismatch: %s\n", replay.value().mismatch.c_str());
  }
  return replay.value().trap_matches && replay.value().state_matches ? 0 : 1;
}

int CmdSweep(const std::string& out_dir, int argc, char** argv) {
  ScenarioGrid grid = DefaultSweepGrid();
  bool run_diff = true;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workloads") == 0 && i + 1 < argc) {
      grid.workloads.clear();
      for (std::string_view name : StrSplit(argv[++i], ',', true)) {
        grid.workloads.emplace_back(name);
      }
    } else if (std::strcmp(argv[i], "--policies") == 0 && i + 1 < argc) {
      grid.policies.clear();
      for (std::string_view spec : StrSplit(argv[++i], ';', true)) {
        grid.policies.emplace_back(spec);
      }
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      grid.seeds_per_cell = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--first-seed") == 0 && i + 1 < argc) {
      grid.first_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-steps") == 0 && i + 1 < argc) {
      grid.max_steps_per_run = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-diff") == 0) {
      run_diff = false;
    } else {
      std::fprintf(stderr, "unknown sweep option '%s'\n", argv[i]);
      return 2;
    }
  }

  auto sweep = RunSweep(grid);
  if (!sweep.ok()) {
    std::fprintf(stderr, "error: %s\n", sweep.status().ToString().c_str());
    return 2;
  }
  SweepResult& result = sweep.value();
  if (Status s = WriteSweepFixtures(&result, out_dir); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf(
      "sweep: %llu runs -> %llu crashes (%llu clean, %llu inadmissible), "
      "%zu fixtures after dedup (%llu byte-identical dropped, %llu over "
      "variant cap), %zu unique bugs\n",
      static_cast<unsigned long long>(result.stats.runs),
      static_cast<unsigned long long>(result.stats.crashes),
      static_cast<unsigned long long>(result.stats.clean_runs),
      static_cast<unsigned long long>(result.stats.inadmissible),
      result.fixtures.size(),
      static_cast<unsigned long long>(result.stats.dedup_dropped),
      static_cast<unsigned long long>(result.stats.variant_capped),
      result.UniqueBugCount());
  std::printf("fixtures + manifest.jsonl written to %s\n", out_dir.c_str());
  if (!run_diff) {
    return 0;
  }

  auto diff = CrossScheduleDiff(result);
  if (!diff.ok()) {
    std::fprintf(stderr, "error: %s\n", diff.status().ToString().c_str());
    return 2;
  }
  int unequal = 0;
  for (const CrossScheduleGroup& g : diff.value()) {
    std::printf("diff %s %s [%zu policies]: %s — %s\n", g.workload.c_str(),
                g.trap_pc.c_str(), g.policies.size(),
                g.root_causes.front().c_str(),
                g.causes_equal ? "byte-equal across schedules" : "DIVERGED");
    if (!g.causes_equal) {
      ++unequal;
      for (size_t i = 0; i < g.policies.size(); ++i) {
        std::printf("    %-48s -> %s\n", g.policies[i].c_str(),
                    g.root_causes[i].c_str());
      }
    }
  }
  std::printf("cross-schedule differential: %zu groups, %d diverged\n",
              diff.value().size(), unequal);
  return unequal == 0 ? 0 : 1;
}

int CmdModc(const std::string& in_path, const std::string& out_path) {
  auto raw = ReadFile(in_path);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 2;
  }
  std::vector<uint8_t> in_bytes(raw.value().begin(), raw.value().end());
  const bool binary_in = LooksLikeBinaryModule(in_bytes);
  auto module = binary_in ? DeserializeModule(in_bytes) : ParseModule(raw.value());
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.status().ToString().c_str());
    return 2;
  }
  if (Status s = VerifyModule(module.value()); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  std::vector<uint8_t> out_bytes;
  if (binary_in) {
    std::string text = PrintModule(module.value());
    out_bytes.assign(text.begin(), text.end());
  } else {
    out_bytes = SerializeModule(module.value());
  }
  if (Status s = WriteFile(out_path, out_bytes); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("converted %s (%s, %zu bytes) -> %s (%s, %zu bytes)\n",
              in_path.c_str(), binary_in ? "binary" : "text", in_bytes.size(),
              out_path.c_str(), binary_in ? "text" : "binary",
              out_bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  resdbg run <program.resvm> [--sched SPEC] [--seed N]"
                 " [--input V]...\n"
                 "  resdbg analyze <program.resvm> <dump.core> [--max-units N]"
                 " [--no-breadcrumbs] [--full-path]\n"
                 "  resdbg replay <program.resvm> <dump.core>\n"
                 "  resdbg sweep <outdir> [--workloads a,b]"
                 " [--policies \"p1;p2\"] [--seeds N] [--first-seed N]"
                 " [--max-steps N] [--no-diff]\n"
                 "  resdbg modc <in> <out>\n"
                 "programs may be text IR (.resvm) or RESMOD1 binary"
                 " (.resmod); the format is auto-detected.\n");
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "sweep") {
    return CmdSweep(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "run") {
    return CmdRun(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "analyze" && argc >= 4) {
    return CmdAnalyze(argv[2], argv[3], argc - 4, argv + 4);
  }
  if (cmd == "replay" && argc >= 4) {
    return CmdReplay(argv[2], argv[3]);
  }
  if (cmd == "modc" && argc >= 4) {
    return CmdModc(argv[2], argv[3]);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
