#include "src/triage/triage_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/coredump/serialize.h"
#include "src/ir/verifier.h"

namespace res {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ResOptions DegradedProfile(ResOptions base) {
  base.max_units = std::max<size_t>(1, base.max_units / 2);
  base.clause_sharing = false;
  return base;
}

TriageService::TriageService(ResRuntime* runtime, const Module& module,
                             TriageOptions options)
    : runtime_(runtime), module_(module), options_(std::move(options)) {}

std::vector<TriageReport> TriageService::RunBatch(
    const std::vector<const Coredump*>& dumps, TriageStats* stats_out) {
  return RunBatchImpl(dumps, std::vector<Status>(dumps.size(), OkStatus()),
                      stats_out);
}

std::vector<TriageReport> TriageService::RunBatchSerialized(
    const std::vector<std::vector<uint8_t>>& blobs, TriageStats* stats_out) {
  const size_t n = blobs.size();
  std::vector<Coredump> storage(n);
  std::vector<const Coredump*> ptrs(n, nullptr);
  std::vector<Status> admit(n, OkStatus());
  for (size_t i = 0; i < n; ++i) {
    Result<Coredump> parsed = DeserializeCoredump(
        blobs[i], FaultScope{options_.fault_plan, static_cast<int>(i)},
        &module_);
    if (parsed.ok()) {
      storage[i] = std::move(parsed).value();
      ptrs[i] = &storage[i];
    } else {
      admit[i] = parsed.status();
    }
  }
  return RunBatchImpl(ptrs, std::move(admit), stats_out);
}

std::vector<TriageReport> TriageService::RunBatchAdmitted(
    const std::vector<const Coredump*>& dumps, std::vector<Status> admit,
    TriageStats* stats_out) {
  admit.resize(dumps.size(), OkStatus());
  return RunBatchImpl(dumps, std::move(admit), stats_out);
}

std::vector<TriageReport> TriageService::RunBatchImpl(
    const std::vector<const Coredump*>& dumps, std::vector<Status> admit,
    TriageStats* stats_out) {
  const size_t n = dumps.size();
  TriageStats tstats;
  tstats.dumps = n;
  std::vector<TriageReport> reports(n);
  if (n == 0) {
    if (stats_out != nullptr) {
      *stats_out = tstats;
    }
    return reports;
  }

  // A quarantined slot carries only its identity and failure: the dump may
  // be arbitrary garbage, so neither an engine nor the baseline bucketers
  // ever touch it, and none of its (nonexistent) facts promote.
  auto quarantine = [&](size_t i, Status status) {
    TriageReport& report = reports[i];
    report = TriageReport{};
    report.index = i;
    report.outcome = TriageOutcome::kQuarantined;
    report.res_bucket =
        "quarantine:" + std::string(StatusCodeName(status.code()));
    report.status = std::move(status);
    ++tstats.quarantined;
    if (options_.on_result) {
      options_.on_result(report);
    }
  };

  // Batch admission, stage 1: the module. A module that fails verification
  // (or an "ir.verify" fault arm with batch scope) fails EVERY slot — no
  // engine can trust the IR.
  {
    Status module_ok =
        VerifyModule(module_, FaultScope{options_.fault_plan});
    if (!module_ok.ok()) {
      for (size_t i = 0; i < n; ++i) {
        quarantine(i, module_ok);
      }
      if (stats_out != nullptr) {
        *stats_out = tstats;
      }
      return reports;
    }
  }
  // Batch admission, stage 2: per-dump semantic validation, before any
  // engine exists. Missing slots (RunBatchSerialized parse failures) keep
  // their parse status.
  for (size_t i = 0; i < n; ++i) {
    if (dumps[i] == nullptr && admit[i].ok()) {
      admit[i] = DataLoss("coredump slot empty");
    }
    if (dumps[i] != nullptr && admit[i].ok()) {
      admit[i] = dumps[i]->Validate(
          module_, FaultScope{options_.fault_plan, static_cast<int>(i)});
    }
  }

  ResOptions res_options = options_.res;
  res_options.runtime = runtime_;
  res_options.consult_promoted = options_.cross_task_reuse;
  res_options.fault_plan = options_.fault_plan;

  const auto batch_start = std::chrono::steady_clock::now();

  struct Task {
    std::unique_ptr<ResEngine> engine;
    ResResult result;
    double wall_ms = 0;
    uint32_t deadline_events = 0;  // runs (first try + retry) that timed out
    bool retried = false;          // degraded retry launched
    bool degraded = false;         // retry finished under the deadline
    bool done = false;
  };
  std::vector<Task> tasks(n);

  // Runs one admitted dump to completion: first try at full fidelity, then
  // — only if the step deadline fired — exactly one retry under the
  // deterministic degraded profile. Both the decision and the profile are
  // pure functions of (dump, options), so the outcome is schedule-free.
  auto run_task = [&](size_t i, Task* t) {
    ResOptions task_options = res_options;
    task_options.fault_task = static_cast<int>(i);
    const auto t0 = std::chrono::steady_clock::now();
    t->engine = std::make_unique<ResEngine>(module_, *dumps[i], task_options);
    t->result = t->engine->Run();
    if (t->result.stop == StopReason::kDeadlineExceeded) {
      ++t->deadline_events;
      t->retried = true;
      ResOptions degraded_options = DegradedProfile(task_options);
      t->engine =
          std::make_unique<ResEngine>(module_, *dumps[i], degraded_options);
      t->result = t->engine->Run();
      if (t->result.stop == StopReason::kDeadlineExceeded) {
        ++t->deadline_events;
      } else if (t->result.stop != StopReason::kTaskFailed) {
        t->degraded = true;
      }
    }
    t->wall_ms = MsSince(t0);
  };

  // Commit one finished task, in submission order: promotion first (the
  // deterministic protocol point — and ONLY for full-fidelity successes:
  // quarantined tasks have no trustworthy facts and degraded tasks ran a
  // different profile, so neither publishes anything), then the report,
  // then release the run.
  auto commit = [&](size_t i) {
    Task& t = tasks[i];
    tstats.deadline_exceeded += t.deadline_events;
    if (t.retried) {
      ++tstats.degraded_retries;
    }
    if (!admit[i].ok()) {
      quarantine(i, admit[i]);
      return;
    }
    if (t.result.stop == StopReason::kTaskFailed) {
      t.engine.reset();
      quarantine(i, t.result.status);
      return;
    }
    if (t.result.stop == StopReason::kDeadlineExceeded) {
      t.engine.reset();
      quarantine(i, ResourceExhausted("step deadline exceeded twice"));
      return;
    }
    if (options_.cross_task_reuse && !t.degraded) {
      ResRuntime::Promotion promo = runtime_->Promote(
          module_, t.engine->learned_clauses(),
          t.result.stats.solver.cold_check_keys, t.engine->solver_fingerprint(),
          FaultScope{options_.fault_plan, static_cast<int>(i)});
      if (!promo.status.ok()) {
        // All-or-nothing: a faulted promotion published nothing, so the
        // batch's promoted state matches a batch without this dump.
        t.engine.reset();
        quarantine(i, promo.status);
        return;
      }
      tstats.clause_promotions += promo.new_cores;
      tstats.cache_promotions += promo.new_keys;
    }
    // The journal's only consumer was the promotion above; don't carry a
    // copy of it into every returned report.
    t.result.stats.solver.cold_check_keys.clear();
    TriageReport& report = reports[i];
    report.index = i;
    report.outcome =
        t.degraded ? TriageOutcome::kDegraded : TriageOutcome::kOk;
    report.degraded = t.degraded;
    report.res_bucket = BucketFromResult(module_, *dumps[i], t.result);
    report.stack_bucket = StackBucketer(module_).BucketFor(*dumps[i]);
    report.cause_signature =
        t.result.causes.empty()
            ? std::string()
            : t.result.causes.front().BucketSignature(module_);
    report.res_rating = RateFromResult(t.result);
    report.heuristic_rating = HeuristicExploitabilityRater().Rate(*dumps[i]);
    report.hardware_error_suspected = t.result.hardware_error_suspected;
    report.stats = t.result.stats;
    tstats.res += report.stats;
    t.engine.reset();  // release the run's state before later dumps commit
    if (options_.on_result) {
      options_.on_result(report);
    }
  };

  const size_t parallel =
      std::min(n, std::max<size_t>(1, options_.max_parallel_dumps));
  if (parallel == 1) {
    // Serial pipeline: each engine is constructed after every earlier task's
    // promotion, so its promoted-store watermark covers tasks 0..i-1 —
    // maximal intra-batch reuse AND a schedule-independent watermark.
    // Quarantined slots promote nothing, so the watermark every later task
    // sees equals a batch submitted without them.
    for (size_t i = 0; i < n; ++i) {
      if (admit[i].ok()) {
        run_task(i, &tasks[i]);
      }
      commit(i);
    }
  } else {
    // Parallel pipeline: every task screens against the same batch-start
    // watermark — pinned here explicitly, so engines can be constructed
    // lazily inside the workers (peak engine state stays O(parallel), not
    // O(n)) without worker timing leaking into any snapshot. The commit
    // loop below still promotes and streams in submission order.
    if (options_.cross_task_reuse) {
      res_options.promoted_watermark =
          runtime_->FactsFor(module_)->promoted_clauses.published();
    }
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        Task local;
        if (admit[i].ok()) {
          run_task(i, &local);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          tasks[i] = std::move(local);
          tasks[i].done = true;
        }
        cv.notify_all();
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(parallel);
    for (size_t w = 0; w < parallel; ++w) {
      workers.emplace_back(worker);
    }
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return tasks[i].done; });
      }
      commit(i);
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }

  tstats.wall_ms = MsSince(batch_start);
  if (n > 1) {
    double rest = 0;
    for (size_t i = 1; i < n; ++i) {
      rest += tasks[i].wall_ms;
    }
    const double saved = tasks[0].wall_ms * static_cast<double>(n - 1) - rest;
    tstats.cold_start_saved_ms = saved > 0 ? saved : 0;
  }
  if (stats_out != nullptr) {
    *stats_out = tstats;
  }
  return reports;
}

std::vector<TriageReport> TriageService::RunBatch(
    const std::vector<Coredump>& dumps, TriageStats* stats_out) {
  std::vector<const Coredump*> ptrs;
  ptrs.reserve(dumps.size());
  for (const Coredump& d : dumps) {
    ptrs.push_back(&d);
  }
  return RunBatch(ptrs, stats_out);
}

}  // namespace res
