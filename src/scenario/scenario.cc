#include "src/scenario/scenario.h"

#include <fstream>
#include <map>
#include <set>

#include "src/coredump/coredump.h"
#include "src/coredump/serialize.h"
#include "src/ir/module_serialize.h"
#include "src/support/hash.h"
#include "src/support/string_util.h"
#include "src/triage/triage.h"
#include "src/vm/predecode.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace res {

namespace {

// Non-aborting workload lookup (WorkloadByName asserts on unknown names —
// fine for tests, wrong for a sweep fed from the command line).
const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string BugIdentity(const std::string& workload, const std::string& trap_pc,
                        const std::string& bucket) {
  return workload + "|" + trap_pc + "|" + bucket;
}

std::string SanitizeForFilename(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out.push_back(
        (c == ':' || c == ',' || c == '=' || c == '/') ? '-' : c);
  }
  return out;
}

// Minimal JSON string escaping for manifest fields (they are identifiers,
// PC strings, and stack signatures — quotes/backslashes cannot appear
// today, but a manifest must never emit malformed JSON).
std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

ScenarioGrid DefaultSweepGrid() {
  ScenarioGrid grid;
  // Every multithreaded corpus entry (filled by RunSweep when empty), a
  // policy spread covering all four spec-constructible families, 12 seeds.
  // bench/baselines.json floor-gates the fixture yield of exactly this
  // grid; change it only together with a baseline refresh.
  grid.policies = {
      "rr:quantum=1",
      "random:seed=1,permille=350",
      // The corpus runs are tens-to-hundreds of instructions; a change-point
      // horizon of 64 puts PCT's priority inversions inside the run.
      "pct:seed=1,depth=3,steps=64",
      "delay:seed=1,permille=300,max_delay=3",
  };
  grid.first_seed = 1;
  grid.seeds_per_cell = 24;
  grid.max_steps_per_run = 100000;
  grid.max_variants_per_bucket = 16;
  return grid;
}

size_t SweepResult::UniqueBugCount() const {
  std::set<std::string> bugs;
  for (const FixtureRecord& f : fixtures) {
    bugs.insert(BugIdentity(f.workload, f.trap_pc, f.bucket));
  }
  return bugs.size();
}

Result<SweepResult> RunSweep(const ScenarioGrid& grid) {
  std::vector<const WorkloadSpec*> workloads;
  if (grid.workloads.empty()) {
    for (const WorkloadSpec& w : AllWorkloads()) {
      if (w.multithreaded) {
        workloads.push_back(&w);
      }
    }
  } else {
    for (const std::string& name : grid.workloads) {
      const WorkloadSpec* w = FindWorkload(name);
      if (w == nullptr) {
        return InvalidArgument("sweep: unknown workload '" + name + "'");
      }
      workloads.push_back(w);
    }
  }
  if (workloads.empty()) {
    return InvalidArgument("sweep: no workloads selected");
  }
  if (grid.policies.empty()) {
    return InvalidArgument("sweep: no policies selected");
  }
  std::vector<SchedulerSpec> specs;
  for (const std::string& policy : grid.policies) {
    RES_ASSIGN_OR_RETURN(SchedulerSpec spec, ParseSchedulerSpec(policy));
    specs.push_back(std::move(spec));
  }

  SweepResult result;
  std::set<std::string> seen_exact;            // ...|fingerprint
  std::map<std::string, size_t> variant_count; // per (wl, policy, bug id)
  for (const WorkloadSpec* wl : workloads) {
    Module module = wl->build();
    result.module_blobs.emplace_back(wl->name, SerializeModule(module));
    // One lowering per workload, shared by every grid point in the cell.
    const PredecodedModule predecoded = PredecodedModule::Build(module);
    for (const SchedulerSpec& spec : specs) {
      const std::string policy = spec.ToString();
      for (uint64_t i = 0; i < grid.seeds_per_cell; ++i) {
        const uint64_t seed = grid.first_seed + i;
        RES_ASSIGN_OR_RETURN(std::unique_ptr<Scheduler> scheduler,
                             MakeScheduler(spec, seed));
        VmOptions vm_options;
        vm_options.max_steps = grid.max_steps_per_run;
        Vm vm(&module, vm_options);
        vm.set_predecoded(&predecoded);
        vm.set_scheduler(scheduler.get());
        QueueInputProvider inputs(/*fallback=*/0);
        inputs.PushAll(0, wl->channel0_inputs);
        vm.set_input_provider(&inputs);
        InputScheduleRecorder recorder;
        vm.set_recorder(&recorder);
        RES_RETURN_IF_ERROR(vm.Reset());
        RunResult run = vm.Run();
        ++result.stats.runs;
        if (run.outcome != RunOutcome::kTrapped ||
            !IsFailureTrap(run.trap.kind)) {
          ++result.stats.clean_runs;
          continue;
        }
        ++result.stats.crashes;

        if (grid.require_live_peers && wl->multithreaded) {
          bool any_exited = false;
          for (const Thread& t : vm.threads()) {
            if (t.state == ThreadState::kExited) {
              any_exited = true;
              break;
            }
          }
          if (any_exited) {
            ++result.stats.inadmissible;
            continue;
          }
        }
        Coredump dump = CaptureCoredump(vm);
        if (grid.respect_workload_admission && wl->dump_predicate &&
            !wl->dump_predicate(module, dump)) {
          ++result.stats.inadmissible;
          continue;
        }
        std::vector<uint8_t> blob = SerializeCoredump(dump);
        FixtureRecord record;
        record.workload = wl->name;
        record.policy = policy;
        record.seed = seed;
        record.trap = run.trap.kind;
        record.trap_pc = module.PcToString(run.trap.pc);
        record.bucket = FaultingStackSignature(module, dump);
        record.dump_fingerprint = FnvHashBytes(blob.data(), blob.size());
        record.dump_bytes = blob.size();
        record.schedule_log_bytes = recorder.LogBytes();
        record.steps = run.steps;

        const std::string cell_bucket =
            policy + "|" +
            BugIdentity(record.workload, record.trap_pc, record.bucket);
        const std::string exact =
            cell_bucket + "|" + StrFormat("%016llx",
                static_cast<unsigned long long>(record.dump_fingerprint));
        if (!seen_exact.insert(exact).second) {
          ++result.stats.dedup_dropped;
          continue;
        }
        if (variant_count[cell_bucket] >= grid.max_variants_per_bucket) {
          ++result.stats.variant_capped;
          continue;
        }
        ++variant_count[cell_bucket];
        result.fixtures.push_back(std::move(record));
        result.dump_blobs.push_back(std::move(blob));
      }
    }
  }
  return result;
}

Status WriteSweepFixtures(SweepResult* result, const std::string& out_dir) {
  std::ofstream manifest(out_dir + "/manifest.jsonl", std::ios::trunc);
  if (!manifest) {
    return Internal("sweep: cannot write " + out_dir + "/manifest.jsonl");
  }
  std::map<std::string, std::string> module_paths;
  for (const auto& [workload, blob] : result->module_blobs) {
    const std::string path = out_dir + "/" + workload + ".resmod";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Internal("sweep: cannot write " + path);
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    module_paths[workload] = path;
  }
  for (size_t i = 0; i < result->fixtures.size(); ++i) {
    FixtureRecord& f = result->fixtures[i];
    f.path = out_dir + "/" + f.workload + "__" +
             SanitizeForFilename(f.policy) + "__seed" +
             std::to_string(f.seed) + ".core";
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Internal("sweep: cannot write " + f.path);
    }
    const std::vector<uint8_t>& blob = result->dump_blobs[i];
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    f.module_path = module_paths[f.workload];
    manifest << StrFormat(
        "{\"workload\": \"%s\", \"policy\": \"%s\", \"seed\": %llu, "
        "\"trap\": \"%s\", \"trap_pc\": \"%s\", \"bucket\": \"%s\", "
        "\"fingerprint\": \"%016llx\", \"dump_bytes\": %zu, "
        "\"schedule_log_bytes\": %zu, \"steps\": %llu, \"path\": \"%s\", "
        "\"module\": \"%s\"}\n",
        JsonEscape(f.workload).c_str(), JsonEscape(f.policy).c_str(),
        static_cast<unsigned long long>(f.seed),
        std::string(TrapKindName(f.trap)).c_str(),
        JsonEscape(f.trap_pc).c_str(), JsonEscape(f.bucket).c_str(),
        static_cast<unsigned long long>(f.dump_fingerprint), f.dump_bytes,
        f.schedule_log_bytes, static_cast<unsigned long long>(f.steps),
        JsonEscape(f.path).c_str(), JsonEscape(f.module_path).c_str());
  }
  return OkStatus();
}

Result<std::vector<CrossScheduleGroup>> CrossScheduleDiff(
    const SweepResult& sweep, const CrossScheduleDiffOptions& options) {
  // Group fixtures by bug identity, preserving first-appearance order.
  struct GroupBuild {
    std::string workload, trap_pc, bucket;
    // (policy, fixture index) — first fixture per policy wins.
    std::vector<std::pair<std::string, size_t>> reps;
  };
  std::vector<GroupBuild> groups;
  std::map<std::string, size_t> group_index;
  for (size_t i = 0; i < sweep.fixtures.size(); ++i) {
    const FixtureRecord& f = sweep.fixtures[i];
    const std::string id = BugIdentity(f.workload, f.trap_pc, f.bucket);
    auto [it, inserted] = group_index.emplace(id, groups.size());
    if (inserted) {
      groups.push_back(GroupBuild{f.workload, f.trap_pc, f.bucket, {}});
    }
    GroupBuild& g = groups[it->second];
    bool have_policy = false;
    for (const auto& [policy, rep] : g.reps) {
      if (policy == f.policy) {
        have_policy = true;
        break;
      }
    }
    if (!have_policy) {
      g.reps.emplace_back(f.policy, i);
    }
  }

  std::map<std::string, Module> modules;  // rebuilt once per workload
  std::vector<CrossScheduleGroup> out;
  for (const GroupBuild& g : groups) {
    if (g.reps.size() < 2) {
      continue;
    }
    if (options.max_groups != 0 && out.size() >= options.max_groups) {
      break;
    }
    auto mod_it = modules.find(g.workload);
    if (mod_it == modules.end()) {
      const WorkloadSpec* wl = FindWorkload(g.workload);
      if (wl == nullptr) {
        return Internal("diff: fixture for unknown workload " + g.workload);
      }
      mod_it = modules.emplace(g.workload, wl->build()).first;
    }
    const Module& module = mod_it->second;

    CrossScheduleGroup group;
    group.workload = g.workload;
    group.trap_pc = g.trap_pc;
    group.bucket = g.bucket;
    for (const auto& [policy, rep] : g.reps) {
      RES_ASSIGN_OR_RETURN(Coredump dump,
                           DeserializeCoredump(sweep.dump_blobs[rep]));
      ResEngine engine(module, dump, options.res);
      ResResult result = engine.Run();
      group.policies.push_back(policy);
      group.root_causes.push_back(BucketFromResult(module, dump, result));
    }
    group.causes_equal = true;
    for (const std::string& cause : group.root_causes) {
      if (cause != group.root_causes.front()) {
        group.causes_equal = false;
        break;
      }
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace res
