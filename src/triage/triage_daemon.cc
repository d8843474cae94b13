#include "src/triage/triage_daemon.h"

#include <algorithm>
#include <utility>

#include "src/coredump/serialize.h"

namespace res {

// The daemon's own failure domains (see ARCHITECTURE.md §7 for the site
// table). Ingest faults surface as kAborted (the submission was accepted
// but its payload must not be trusted); wave-boundary faults as kInternal
// (the scheduler refused to hand the slot to an engine).
RES_FAULT_SITE(kFaultDaemonIngest, "daemon.ingest", StatusCode::kAborted);
RES_FAULT_SITE(kFaultDaemonPromoteWave, "daemon.promote_wave",
               StatusCode::kInternal);

TriageDaemon::TriageDaemon(ResRuntime* runtime, TriageDaemonOptions options)
    : runtime_(runtime), options_(std::move(options)) {
  if (options_.start_thread) {
    thread_ = std::thread([this] { ThreadMain(); });
  }
}

TriageDaemon::~TriageDaemon() { Shutdown(); }

Result<uint64_t> TriageDaemon::Submit(const Module& module, Coredump dump) {
  return Enqueue(module, std::move(dump), /*has_dump=*/true, nullptr);
}

Result<uint64_t> TriageDaemon::SubmitSerialized(
    const Module& module, const std::vector<uint8_t>& blob) {
  return Enqueue(module, Coredump{}, /*has_dump=*/false, &blob);
}

Result<uint64_t> TriageDaemon::Enqueue(const Module& module, Coredump dump,
                                       bool has_dump,
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
        p.has_dump = true;
      } else {
        p.admit = parsed.status();
      }
    } else if (has_dump) {
      p.dump = std::move(dump);
      p.has_dump = true;
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
  // has the smallest submission seq launched first in any equivalent
  // RunBatch sequence. Selection is by seq, never by map order, so the
  // schedule is a pure function of submission order.
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
  const size_t n = wave.size();
  std::vector<const Coredump*> dumps(n, nullptr);
  std::vector<Status> admit(n, OkStatus());
  for (size_t i = 0; i < n; ++i) {
    admit[i] = wave[i].admit;
    if (admit[i].ok()) {
      // Wave-boundary fault: poisons this slot at the point the scheduler
      // hands it to the wave's batch (scoped to the global seq). The slot
      // quarantines through the standard path and promotes nothing, so
      // survivors match a stream submitted without it.
      admit[i] =
          FaultScope{options_.fault_plan, static_cast<int>(wave[i].seq)}.Check(
              kFaultDaemonPromoteWave);
    }
    if (admit[i].ok() && wave[i].has_dump) {
      dumps[i] = &wave[i].dump;
    }
  }
  TriageOptions wave_options = options_.triage;
  wave_options.fault_plan = options_.fault_plan;
  wave_options.on_result = [this, &wave](const TriageReport& report) {
    if (!options_.on_report) {
      return;
    }
    TriageReport global = report;
    global.index = wave[report.index].seq;  // wave-local -> submission seq
    options_.on_report(global);
  };
  TriageService service(runtime_, module, wave_options);
  TriageStats tstats;
  service.RunBatchAdmitted(dumps, std::move(admit), &tstats);
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
  return n;
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
