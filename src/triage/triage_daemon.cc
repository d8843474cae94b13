#include "src/triage/triage_daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "src/coredump/serialize.h"
#include "src/ir/verifier.h"

namespace res {

// The daemon's own failure domains (see ARCHITECTURE.md §7 for the site
// table). Ingest faults surface as kAborted (the submission was accepted
// but its payload must not be trusted); wave-boundary faults as kInternal
// (the scheduler refused to hand the slot to an engine).
RES_FAULT_SITE(kFaultDaemonIngest, "daemon.ingest", StatusCode::kAborted);
RES_FAULT_SITE(kFaultDaemonPromoteWave, "daemon.promote_wave",
               StatusCode::kInternal);

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

TriageDaemon::TriageDaemon(ResRuntime* runtime, TriageDaemonOptions options)
    : runtime_(runtime), options_(std::move(options)) {
  if (options_.start_thread) {
    thread_ = std::thread([this] { ThreadMain(); });
  }
}

TriageDaemon::~TriageDaemon() { Shutdown(); }

Result<uint64_t> TriageDaemon::Submit(const Module& module, Coredump dump) {
  return Enqueue(module, std::move(dump), nullptr);
}

Result<uint64_t> TriageDaemon::SubmitSerialized(
    const Module& module, const std::vector<uint8_t>& blob) {
  return Enqueue(module, Coredump{}, &blob);
}

Result<uint64_t> TriageDaemon::Enqueue(const Module& module, Coredump dump,
                                       const std::vector<uint8_t>* blob) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!accepting_) {
    return FailedPrecondition("triage daemon is shutting down");
  }
  ++stats_.submitted;
  if (options_.queue_capacity > 0 &&
      pending_count_ >= options_.queue_capacity) {
    // Backpressure, not failure: nothing was enqueued and no seq was
    // consumed, so a later retry observes the same deterministic stream.
    ++stats_.rejected;
    return ResourceExhausted("triage daemon queue full");
  }
  const uint64_t seq = next_seq_++;
  Pending p;
  p.seq = seq;
  // Ingest fault: the submission is admitted but pre-failed — it flows
  // through its wave as a quarantined slot, so the stream still sees an
  // ordered report for it instead of a silent drop.
  p.admit = FaultScope{options_.fault_plan, static_cast<int>(seq)}.Check(
      kFaultDaemonIngest);
  if (p.admit.ok()) {
    if (blob != nullptr) {
      Result<Coredump> parsed = DeserializeCoredump(
          *blob, FaultScope{options_.fault_plan, static_cast<int>(seq)},
          &module);
      if (parsed.ok()) {
        p.dump = std::move(parsed).value();
      } else {
        p.admit = parsed.status();
      }
    } else {
      p.dump = std::move(dump);
    }
  }
  queues_[&module].push_back(std::move(p));
  ++pending_count_;
  ++stats_.admitted;
  cv_.notify_all();
  return seq;
}

bool TriageDaemon::HasFullWaveLocked() const {
  if (options_.wave_size == 0) {
    return false;  // drain-only cutting
  }
  for (const auto& [module, queue] : queues_) {
    if (queue.size() >= options_.wave_size) {
      return true;
    }
  }
  return false;
}

const Module* TriageDaemon::PickWaveLocked(bool flush_partial,
                                           std::vector<Pending>* wave) {
  const size_t k = options_.wave_size;
  auto best = queues_.end();
  size_t take = 0;
  // Full waves first, earliest-completed first: the wave whose K-th dump
  // has the smallest submission seq runs first. Selection is by seq, never
  // by map order, so the schedule is a pure function of submission order.
  if (k > 0) {
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      if (it->second.size() < k) {
        continue;
      }
      if (best == queues_.end() ||
          it->second[k - 1].seq < best->second[k - 1].seq) {
        best = it;
      }
    }
    take = k;
  }
  if (best == queues_.end()) {
    if (!flush_partial) {
      return nullptr;
    }
    // Drain: flush partial waves earliest-first-submission first.
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      if (it->second.empty()) {
        continue;
      }
      if (best == queues_.end() ||
          it->second.front().seq < best->second.front().seq) {
        best = it;
      }
    }
    if (best == queues_.end()) {
      return nullptr;
    }
    take = k == 0 ? best->second.size() : std::min(k, best->second.size());
  }
  const Module* module = best->first;
  wave->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    wave->push_back(std::move(best->second.front()));
    best->second.pop_front();
    --pending_count_;
  }
  if (best->second.empty()) {
    queues_.erase(best);
  }
  return module;
}

size_t TriageDaemon::Pump() { return RunWaves(/*flush_partial=*/false); }

size_t TriageDaemon::Drain() { return RunWaves(/*flush_partial=*/true); }

size_t TriageDaemon::RunWaves(bool flush_partial) {
  // One wave in flight at a time, process-wide per daemon: concurrent
  // pumpers serialize here, which is what keeps promotion order (and the
  // between-wave bounded-memory step's quiescence) deterministic.
  std::lock_guard<std::mutex> pump_lock(pump_mu_);
  size_t committed = 0;
  for (;;) {
    std::vector<Pending> wave;
    const Module* module = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      module = PickWaveLocked(flush_partial, &wave);
    }
    if (module == nullptr) {
      return committed;
    }
    committed += RunWave(*module, std::move(wave));
  }
}

size_t TriageDaemon::RunWave(const Module& module, std::vector<Pending> wave) {
  const TriageStats tstats = TriageWave(module, &wave);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_ += tstats;
    ++stats_.waves;
    stats_.wave_promotions +=
        tstats.clause_promotions + tstats.cache_promotions;
  }
  // Bounded-memory step, strictly between waves (no engine in flight on
  // this daemon; pump_mu_ is held). Cost-only by the reuse invariant:
  // whatever gets dropped is only ever re-derived, never re-decided.
  runtime_->AdvanceFactsTick();
  if (options_.facts_ttl_waves > 0 || options_.facts_max_resident > 0) {
    ResRuntime::FactsEviction ev = runtime_->EvictIdleFacts(
        options_.facts_max_resident, options_.facts_ttl_waves);
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.facts_evicted += ev.facts_evicted;
    stats_.facts_ttl_evicted += ev.ttl_evicted;
    stats_.promoted_cores_dropped += ev.cores_dropped;
  }
  if (options_.expr_pool_node_budget > 0 &&
      runtime_->pool()->node_count() > options_.expr_pool_node_budget) {
    ResRuntime::Reclaim rc = runtime_->ReclaimSubstrate();
    std::lock_guard<std::mutex> lock(state_mu_);
    if (rc.reclaimed) {
      ++stats_.pool_reclaims;
      stats_.pool_nodes_reclaimed += rc.nodes_reclaimed;
      stats_.promoted_cores_dropped += rc.cores_dropped;
      stats_.promoted_keys_dropped += rc.keys_dropped;
    }
  }
  return wave.size();
}

TriageStats TriageDaemon::TriageWave(const Module& module,
                                     std::vector<Pending>* wave_ptr) {
  std::vector<Pending>& wave = *wave_ptr;
  const size_t n = wave.size();
  const TriageOptions& options = options_.triage;
  FaultPlan* const plan = options_.fault_plan;
  // Every per-dump site is scoped to the dump's global submission seq.
  auto scope = [&](size_t i) {
    return FaultScope{plan, static_cast<int>(wave[i].seq)};
  };
  TriageStats tstats;
  tstats.dumps = n;

  // A quarantined slot carries only its identity and failure: the dump may
  // be arbitrary garbage, so neither an engine nor the baseline bucketers
  // ever touch it, and none of its (nonexistent) facts promote.
  auto quarantine = [&](size_t i, Status status) {
    TriageReport report;
    report.index = wave[i].seq;
    report.outcome = TriageOutcome::kQuarantined;
    report.res_bucket =
        "quarantine:" + std::string(StatusCodeName(status.code()));
    report.status = std::move(status);
    ++tstats.quarantined;
    if (options_.on_report) {
      options_.on_report(report);
    }
  };

  // Wave-boundary fault: poisons a slot at the point the scheduler hands
  // it to the wave. The slot quarantines through the standard path and
  // promotes nothing, so survivors match a stream submitted without it.
  for (size_t i = 0; i < n; ++i) {
    if (wave[i].admit.ok()) {
      wave[i].admit = scope(i).Check(kFaultDaemonPromoteWave);
    }
  }
  // Wave admission, stage 1: the module. A module that fails verification
  // (or an "ir.verify" fault arm with wave scope) fails EVERY slot — no
  // engine can trust the IR.
  const Status module_ok = VerifyModule(module, FaultScope{plan});
  if (!module_ok.ok()) {
    for (size_t i = 0; i < n; ++i) {
      quarantine(i, module_ok);
    }
    return tstats;
  }
  // Wave admission, stage 2: per-dump semantic validation, before any
  // engine exists. Pre-failed slots keep their status.
  for (size_t i = 0; i < n; ++i) {
    if (wave[i].admit.ok()) {
      wave[i].admit = wave[i].dump.Validate(module, scope(i));
    }
  }

  ResOptions res_options = options.res;
  res_options.runtime = runtime_;
  res_options.consult_promoted = options.cross_task_reuse;
  res_options.fault_plan = plan;

  const auto wave_start = std::chrono::steady_clock::now();

  struct Task {
    std::unique_ptr<ResEngine> engine;
    ResResult result;
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
    task_options.fault_task = static_cast<int>(wave[i].seq);
    t->engine = std::make_unique<ResEngine>(module, wave[i].dump, task_options);
    t->result = t->engine->Run();
    if (t->result.stop == StopReason::kDeadlineExceeded) {
      ++t->deadline_events;
      t->retried = true;
      t->engine = std::make_unique<ResEngine>(module, wave[i].dump,
                                              DegradedProfile(task_options));
      t->result = t->engine->Run();
      if (t->result.stop == StopReason::kDeadlineExceeded) {
        ++t->deadline_events;
      } else if (t->result.stop != StopReason::kTaskFailed) {
        t->degraded = true;
      }
    }
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
    if (!wave[i].admit.ok()) {
      quarantine(i, wave[i].admit);
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
    if (options.cross_task_reuse && !t.degraded) {
      ResRuntime::Promotion promo = runtime_->Promote(
          module, t.engine->learned_clauses(),
          t.result.stats.solver.cold_check_keys, t.engine->solver_fingerprint(),
          scope(i));
      if (!promo.status.ok()) {
        // All-or-nothing: a faulted promotion published nothing, so the
        // promoted state matches a stream without this dump.
        t.engine.reset();
        quarantine(i, promo.status);
        return;
      }
      tstats.clause_promotions += promo.new_cores;
      tstats.cache_promotions += promo.new_keys;
    }
    // The journal's only consumer was the promotion above; don't carry a
    // copy of it into the report.
    t.result.stats.solver.cold_check_keys.clear();
    const Coredump& dump = wave[i].dump;
    TriageReport report;
    report.index = wave[i].seq;
    report.outcome = t.degraded ? TriageOutcome::kDegraded : TriageOutcome::kOk;
    report.degraded = t.degraded;
    report.res_bucket = BucketFromResult(module, dump, t.result);
    report.stack_bucket = StackBucketer(module).BucketFor(dump);
    report.cause_signature =
        t.result.causes.empty()
            ? std::string()
            : t.result.causes.front().BucketSignature(module);
    report.res_rating = RateFromResult(t.result);
    report.heuristic_rating = HeuristicExploitabilityRater().Rate(dump);
    report.hardware_error_suspected = t.result.hardware_error_suspected;
    report.stats = t.result.stats;
    tstats.res += report.stats;
    t.engine.reset();  // release the run's state before later dumps commit
    if (options_.on_report) {
      options_.on_report(report);
    }
  };

  const size_t parallel =
      std::min(n, std::max<size_t>(1, options.max_parallel_dumps));
  if (parallel == 1) {
    // Serial pipeline: each engine is constructed after every earlier
    // dump's promotion, so its promoted-store watermark covers them all —
    // maximal reuse AND a schedule-independent watermark. Quarantined slots
    // promote nothing, so the watermark every later dump sees equals a
    // stream submitted without them.
    for (size_t i = 0; i < n; ++i) {
      if (wave[i].admit.ok()) {
        run_task(i, &tasks[i]);
      }
      commit(i);
    }
  } else {
    // Parallel pipeline: every dump screens against the same wave-start
    // watermark — pinned here explicitly, so engines can be constructed
    // lazily inside the workers (peak engine state stays O(parallel), not
    // O(n)) without worker timing leaking into any snapshot. The commit
    // loop below still promotes and streams in submission order.
    if (options.cross_task_reuse) {
      res_options.promoted_watermark =
          runtime_->FactsFor(module)->promoted_clauses.published();
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
        if (wave[i].admit.ok()) {
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

  tstats.wall_ms = MsSince(wave_start);
  return tstats;
}

void TriageDaemon::ThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state_mu_);
      cv_.wait(lock, [this] { return !accepting_ || HasFullWaveLocked(); });
      if (!accepting_ && pending_count_ == 0) {
        return;
      }
    }
    if (accepting()) {
      Pump();
    } else {
      Drain();
    }
  }
}

void TriageDaemon::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    accepting_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();  // the standing thread drains before exiting
  }
  // No-thread mode (or anything the thread left behind): drain here, so
  // every admitted dump has streamed its report by the time we return.
  Drain();
}

bool TriageDaemon::accepting() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return accepting_;
}

size_t TriageDaemon::pending() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return pending_count_;
}

TriageDaemonStats TriageDaemon::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

}  // namespace res
