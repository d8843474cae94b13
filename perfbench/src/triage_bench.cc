// fleet_mix, racy_wide and racy_wide_par: serialized crash streams through
// TriageDaemon, closed loop from one thread (submit, Pump, ..., Drain).
//
// The untraced pass is the measurement. The traced pass adds a layer-by-layer
// replica of the daemon: the same public calls in the same wave order with
// the same options (DeserializeCoredump, Coredump::Validate, ResEngine::Run
// on the shared runtime, ResRuntime::Promote, BucketFromResult), each inside
// a span. Its report digest must equal the daemon's.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "perfbench/src/corpus.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/coredump/serialize.h"
#include "src/ir/verifier.h"
#include "src/res/root_cause.h"
#include "src/res/runtime.h"
#include "src/triage/triage.h"
#include "src/triage/triage_daemon.h"

namespace perfbench {

namespace {

struct TriageConfig {
  res::ResOptions res;
  size_t workers = 1;  // dump workers per wave (max_parallel_dumps)
  size_t wave_size = kWaveSize;
  size_t facts_max_resident = 0;
  size_t expr_pool_node_budget = 0;
  double tail_q = 0.9;  // report_tail_ms percentile, fixed per workload
  res::Result<Corpus> (*mint)(uint64_t, bool, Tracer*, MintCounters*) = nullptr;
};

TriageConfig ConfigFor(const Options& options) {
  TriageConfig c;
  if (options.workload == "fleet_mix") {
    c.mint = &MintFleet;
    c.tail_q = 0.99;
    // Bounded memory, tight enough that both mechanisms fire: 11 modules
    // share 8 facts slots, and the pool is reclaimed every few dozen waves.
    c.facts_max_resident = 8;
    c.expr_pool_node_budget = 1500;
    return c;
  }
  // The racy_wide stream: full synthesis, the T2b profile.
  c.mint = &MintRacy;
  c.res.stop_at_root_cause = false;
  c.res.max_units = 48;
  c.res.max_hypotheses = 1000;
  // A run makes at least four rounds of 24: 96 samples, 14 beyond p85.
  c.tail_q = 0.85;
  if (options.workload == "racy_wide_par") {
    c.workers = std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  }
  return c;
}

// What the stream reports for one submission.
struct ReportView {
  bool seen = false;
  res::TriageOutcome outcome = res::TriageOutcome::kOk;
  std::string bucket;
  std::string cause;
  res::Exploitability rating = res::Exploitability::kUnknown;
  bool hw = false;

  bool operator==(const ReportView&) const = default;
};

ReportView ViewOf(const res::TriageReport& r) {
  return ReportView{true, r.outcome, r.res_bucket, r.cause_signature,
                    r.res_rating, r.hardware_error_suspected};
}

ReportView QuarantineView(const res::Status& status) {
  ReportView v;
  v.seen = true;
  v.outcome = res::TriageOutcome::kQuarantined;
  v.bucket = "quarantine:" + std::string(res::StatusCodeName(status.code()));
  return v;
}

// Digest over (bucket, cause signature, rating, hardware flag) in
// submission order.
std::string ReportDigest(const std::vector<ReportView>& reports) {
  Digest d;
  for (const ReportView& r : reports) {
    d.AddU64(r.seen);
    d.AddU64(static_cast<uint64_t>(r.outcome));
    d.Add(r.bucket);
    d.Add(r.cause);
    d.AddU64(static_cast<uint64_t>(r.rating));
    d.AddU64(r.hw);
  }
  return d.Hex();
}

// One pass of the stream through the daemon. Construction is set-up work:
// a fresh runtime (promoted facts start empty), the daemon, and module facts
// pre-built with FactsFor.
class DaemonPass {
 public:
  DaemonPass(const Corpus& corpus, const std::vector<size_t>& stream,
             const TriageConfig& config, size_t workers)
      : corpus_(corpus),
        stream_(stream),
        submitted_(stream.size()),
        latency_ms_(stream.size(), 0.0),
        reports_(stream.size()) {
    runtime_ = std::make_unique<res::ResRuntime>();
    res::TriageDaemonOptions o;
    o.triage.res = config.res;
    o.triage.max_parallel_dumps = workers;
    o.wave_size = config.wave_size;
    o.facts_max_resident = config.facts_max_resident;
    o.expr_pool_node_budget = config.expr_pool_node_budget;
    o.on_report = [this](const res::TriageReport& r) {
      const Clock::time_point now = Clock::now();
      if (r.index < reports_.size()) {
        latency_ms_[r.index] = MsBetween(submitted_[r.index], now);
        reports_[r.index] = ViewOf(r);
      }
    };
    daemon_ = std::make_unique<res::TriageDaemon>(runtime_.get(), std::move(o));
  }

  void PrebuildFacts(Tracer* tracer) {
    for (const CorpusModule& m : corpus_.modules) {
      SpanScope span(tracer, "res.facts");
      runtime_->FactsFor(*m.module);
    }
  }

  // From the first submit to the return of Drain: the timed phase.
  void Run(Tracer* tracer) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < stream_.size(); ++i) {
      const CorpusDump& d = corpus_.dumps[stream_[i]];
      const res::Module& module = *corpus_.modules[d.module].module;
      submitted_[i] = Clock::now();
      res::Result<uint64_t> seq = [&] {
        SpanScope span(tracer, "triage.submit");
        return daemon_->SubmitSerialized(module, d.blob);
      }();
      if (!seq.ok() || seq.value() != i) {
        ++errors_;  // backpressure or a lost seq: the stream is broken
      }
      SpanScope span(tracer, "triage.pump");
      daemon_->Pump();
    }
    {
      SpanScope span(tracer, "triage.pump");
      daemon_->Drain();
    }
    wall_ms_ = MsBetween(t0, Clock::now());
    for (const ReportView& r : reports_) {
      errors_ += r.seen ? 0 : 1;
    }
  }

  double wall_ms() const { return wall_ms_; }
  uint64_t errors() const { return errors_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<ReportView>& reports() const { return reports_; }
  res::TriageDaemonStats stats() const { return daemon_->stats(); }

 private:
  const Corpus& corpus_;
  const std::vector<size_t>& stream_;
  std::vector<Clock::time_point> submitted_;
  std::vector<double> latency_ms_;
  std::vector<ReportView> reports_;
  std::unique_ptr<res::ResRuntime> runtime_;
  std::unique_ptr<res::TriageDaemon> daemon_;  // destroyed before runtime_
  double wall_ms_ = 0;
  uint64_t errors_ = 0;
};

// The daemon's work, one public call at a time, each in a span. Mirrors
// TriageDaemon's wave cutting (a module's wave runs when its K-th dump
// arrives; Drain flushes partial waves earliest-first) and TriageService's
// batch (verify, validate, engine runs, in-order commit: promote, then the
// report), including the batch-start watermark of parallel waves and the
// bounded-memory step between waves.
class ReplicaPass {
 public:
  // Engine counters of every committed run are added to `tally`.
  ReplicaPass(const Corpus& corpus, const std::vector<size_t>& stream,
              const TriageConfig& config, size_t workers, Tracer* tracer,
              ResTally* tally)
      : corpus_(corpus),
        stream_(stream),
        config_(config),
        workers_(workers),
        tracer_(tracer),
        tally_(tally),
        reports_(stream.size()) {
    runtime_ = std::make_unique<res::ResRuntime>();
    for (const CorpusModule& m : corpus.modules) {
      SpanScope span(tracer_, "res.facts");
      runtime_->FactsFor(*m.module);
    }
  }

  void Run() {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<Pending>> pending(corpus_.modules.size());
    for (size_t i = 0; i < stream_.size(); ++i) {
      const CorpusDump& d = corpus_.dumps[stream_[i]];
      Pending p;
      p.seq = i;
      p.submitted = Clock::now();
      {
        SpanScope submit(tracer_, "triage.submit");
        SpanScope span(tracer_, "coredump.deserialize");
        res::Result<res::Coredump> parsed = res::DeserializeCoredump(
            d.blob, res::FaultScope{nullptr, static_cast<int>(i)});
        if (parsed.ok()) {
          p.dump = std::move(parsed).value();
        } else {
          p.admit = parsed.status();
        }
      }
      pending[d.module].push_back(std::move(p));
      if (pending[d.module].size() == config_.wave_size) {
        RunWave(d.module, std::move(pending[d.module]));
        pending[d.module].clear();
      }
    }
    // Drain: partial waves, earliest first submission first.
    for (;;) {
      size_t best = pending.size();
      for (size_t m = 0; m < pending.size(); ++m) {
        if (!pending[m].empty() &&
            (best == pending.size() ||
             pending[m].front().seq < pending[best].front().seq)) {
          best = m;
        }
      }
      if (best == pending.size()) {
        break;
      }
      RunWave(best, std::move(pending[best]));
      pending[best].clear();
    }
    wall_ms_ = MsBetween(t0, Clock::now());
  }

  double wall_ms() const { return wall_ms_; }
  uint64_t errors() const { return errors_; }
  const std::vector<ReportView>& reports() const { return reports_; }
  const std::vector<double>& queue_wait_ms() const { return queue_wait_ms_; }

 private:
  struct Pending {
    size_t seq = 0;
    res::Coredump dump;
    res::Status admit;
    Clock::time_point submitted;
  };
  struct Task {
    std::unique_ptr<res::ResEngine> engine;
    res::ResResult result;
  };

  void RunWave(size_t module_index, std::vector<Pending> wave) {
    const res::Module& module = *corpus_.modules[module_index].module;
    SpanScope wave_span(tracer_, "triage.wave");
    const Clock::time_point start = Clock::now();
    const size_t n = wave.size();
    for (const Pending& p : wave) {
      queue_wait_ms_.push_back(MsBetween(p.submitted, start));
    }
    res::Status module_ok;
    {
      SpanScope span(tracer_, "ir.verify");
      module_ok = res::VerifyModule(module, res::FaultScope{nullptr});
    }
    std::vector<res::Status> admit(n);
    for (size_t i = 0; i < n; ++i) {
      admit[i] = module_ok.ok() ? wave[i].admit : module_ok;
      if (admit[i].ok()) {
        SpanScope span(tracer_, "coredump.validate");
        admit[i] = wave[i].dump.Validate(
            module, res::FaultScope{nullptr, static_cast<int>(i)});
      }
    }

    res::ResOptions options = config_.res;
    options.runtime = runtime_.get();
    options.consult_promoted = true;
    options.fault_plan = nullptr;
    std::vector<Task> tasks(n);
    auto run_task = [&](size_t i, int parent) {
      SpanScope span(tracer_, "res.run", parent);
      res::ResOptions task_options = options;
      task_options.fault_task = static_cast<int>(i);
      tasks[i].engine =
          std::make_unique<res::ResEngine>(module, wave[i].dump, task_options);
      tasks[i].result = tasks[i].engine->Run();
    };
    auto commit = [&](size_t i) {
      ReportView& view = reports_[wave[i].seq];
      Task& t = tasks[i];
      if (!admit[i].ok()) {
        view = QuarantineView(admit[i]);
        ++errors_;
        return;
      }
      if (t.result.stop == res::StopReason::kTaskFailed ||
          t.result.stop == res::StopReason::kDeadlineExceeded) {
        // The daemon would retry or quarantine; the workloads have no
        // deadline and no fault plan, so either is a failure here.
        view = QuarantineView(t.result.status.ok()
                                  ? res::ResourceExhausted("deadline")
                                  : t.result.status);
        ++errors_;
        t.engine.reset();
        return;
      }
      res::ResRuntime::Promotion promo;
      {
        SpanScope span(tracer_, "res.promote");
        promo = runtime_->Promote(module, t.engine->learned_clauses(),
                                  t.result.stats.solver.cold_check_keys,
                                  t.engine->solver_fingerprint(),
                                  res::FaultScope{nullptr, static_cast<int>(i)});
      }
      if (!promo.status.ok()) {
        view = QuarantineView(promo.status);
        ++errors_;
        t.engine.reset();
        return;
      }
      t.result.stats.solver.cold_check_keys.clear();
      {
        SpanScope span(tracer_, "triage.report");
        const res::Coredump& dump = wave[i].dump;
        view.seen = true;
        view.outcome = res::TriageOutcome::kOk;
        view.bucket = res::BucketFromResult(module, dump, t.result);
        const std::string stack = res::StackBucketer(module).BucketFor(dump);
        view.cause = t.result.causes.empty()
                         ? std::string()
                         : t.result.causes.front().BucketSignature(module);
        view.rating = res::RateFromResult(t.result);
        const res::Exploitability heuristic =
            res::HeuristicExploitabilityRater().Rate(dump);
        (void)stack;
        (void)heuristic;
        view.hw = t.result.hardware_error_suspected;
      }
      tally_->Add(t.result);
      tally_->NotePool(runtime_->pool()->node_count(),
                      runtime_->pool()->var_count());
      t.engine.reset();
    };

    const size_t parallel = std::min(n, std::max<size_t>(1, workers_));
    if (parallel == 1) {
      for (size_t i = 0; i < n; ++i) {
        if (admit[i].ok()) {
          run_task(i, wave_span.id());
        }
        commit(i);
      }
    } else {
      {
        SpanScope span(tracer_, "res.facts");
        options.promoted_watermark =
            runtime_->FactsFor(module)->promoted_clauses.published();
      }
      std::mutex mu;
      std::condition_variable cv;
      std::vector<char> done(n, 0);  // guarded by mu
      std::atomic<size_t> next{0};
      const int parent = wave_span.id();
      {
        std::vector<std::jthread> threads;
        for (size_t w = 0; w < parallel; ++w) {
          threads.emplace_back([&] {
            for (;;) {
              const size_t i = next.fetch_add(1);
              if (i >= n) {
                return;
              }
              if (admit[i].ok()) {
                run_task(i, parent);
              }
              {
                std::lock_guard<std::mutex> lock(mu);
                done[i] = 1;
              }
              cv.notify_all();
            }
          });
        }
        for (size_t i = 0; i < n; ++i) {
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done[i] != 0; });
          }
          commit(i);
        }
      }  // jthreads join here
    }

    SpanScope span(tracer_, "triage.memory");
    runtime_->AdvanceFactsTick();
    if (config_.facts_max_resident > 0) {
      runtime_->EvictIdleFacts(config_.facts_max_resident, 0);
    }
    if (config_.expr_pool_node_budget > 0 &&
        runtime_->pool()->node_count() > config_.expr_pool_node_budget) {
      runtime_->ReclaimSubstrate();
    }
  }

  const Corpus& corpus_;
  const std::vector<size_t>& stream_;
  const TriageConfig& config_;
  size_t workers_;
  Tracer* tracer_;
  ResTally* tally_;
  std::unique_ptr<res::ResRuntime> runtime_;
  std::vector<ReportView> reports_;
  std::vector<double> queue_wait_ms_;
  double wall_ms_ = 0;
  uint64_t errors_ = 0;
};


// --- Ground truth. ---

// The signature prefixes RootCause::BucketSignature gives each kind. The
// three race kinds share "race:", so a report names the race family.
std::string SignaturePrefix(res::RootCauseKind kind) {
  switch (kind) {
    case res::RootCauseKind::kDataRace:
    case res::RootCauseKind::kAtomicityViolation:
    case res::RootCauseKind::kOrderViolation:
      return "race:";
    case res::RootCauseKind::kDeadlock:
      return "deadlock:";
    case res::RootCauseKind::kUnknown:
      return "unknown";
    default:
      return std::string(res::RootCauseKindName(kind)) + ":";
  }
}

enum class Verdict { kOk, kInconclusive, kFalseHardware, kWrongCause, kMissedHardware };

Verdict Judge(const CorpusDump& dump, const CorpusModule& module,
              const ReportView& report) {
  if (dump.truth == Truth::kHardware) {
    return report.hw ? Verdict::kOk : Verdict::kMissedHardware;
  }
  if (report.cause.empty()) {
    return report.hw ? Verdict::kFalseHardware : Verdict::kInconclusive;
  }
  std::vector<res::RootCauseKind> kinds = module.spec->also_acceptable;
  kinds.push_back(module.spec->expected_cause);
  for (res::RootCauseKind k : kinds) {
    if (report.cause.rfind(SignaturePrefix(k), 0) == 0) {
      return Verdict::kOk;
    }
  }
  return Verdict::kWrongCause;
}

// The ground-truth floors. A bit flip must be flagged as hardware and a
// single-threaded bug class must be named: both are deterministic and fully
// inside what RES claims. Dumps in the supported class (every racing peer
// live, workload admission holds) must match at least kSupportedFloor of
// the time: the full-synthesis profile on the wide racy counter names a
// semantic bug for the odd lost update. Unsupported dumps are measured in
// verdict_ok_ratio only; today's engine is known to miss there.
constexpr double kSupportedFloor = 0.95;

bool MustMatch(const CorpusDump& dump) {
  return dump.truth == Truth::kHardware || std::string(dump.origin) == "input";
}

// The verdict of every distinct dump the streams submitted, against the
// WorkloadSpec ground truth.
class VerdictBook {
 public:
  explicit VerdictBook(const Corpus& corpus)
      : corpus_(corpus), first_(corpus.dumps.size()) {}

  // Judges one pass over `stream`, and checks that every submission of one
  // dump got the same report (reuse changes cost, never output).
  void Add(const std::vector<size_t>& stream,
           const std::vector<ReportView>& reports) {
    for (size_t i = 0; i < stream.size(); ++i) {
      const size_t d = stream[i];
      if (!first_[d]) {
        first_[d] = reports[i];
      } else if (!(*first_[d] == reports[i])) {
        std::printf("FAIL: dump %zu reported differently on submission %zu\n",
                    d, i);
        ++failures_;
      }
      ++submissions_;
      const CorpusDump& dump = corpus_.dumps[d];
      ok_submissions_ +=
          Judge(dump, corpus_.modules[dump.module], reports[i]) == Verdict::kOk;
    }
  }

  // verdict_ok_ratio: the share of distinct dumps whose verdict matches.
  // Over submissions it would hang on which dumps a seeded ranking puts on
  // top; that share is printed for the reader.
  double ok_ratio() const {
    uint64_t dumps = 0;
    uint64_t ok = 0;
    for (size_t d = 0; d < first_.size(); ++d) {
      if (first_[d]) {
        const CorpusDump& dump = corpus_.dumps[d];
        ++dumps;
        ok += Judge(dump, corpus_.modules[dump.module], *first_[d]) == Verdict::kOk;
      }
    }
    return static_cast<double>(ok) / static_cast<double>(std::max<uint64_t>(1, dumps));
  }
  double submission_ok_ratio() const {
    return static_cast<double>(ok_submissions_) /
           static_cast<double>(std::max<uint64_t>(1, submissions_));
  }

  // Prints the table and returns the number of failed checks.
  uint64_t Finish() const {
    uint64_t failures = failures_;
    // module/origin -> dumps, then one count per Verdict.
    std::map<std::string, std::array<uint64_t, 6>> table;
    uint64_t supported = 0;
    uint64_t supported_ok = 0;
    for (size_t d = 0; d < corpus_.dumps.size(); ++d) {
      if (!first_[d]) {
        continue;
      }
      const CorpusDump& dump = corpus_.dumps[d];
      const CorpusModule& module = corpus_.modules[dump.module];
      const Verdict v = Judge(dump, module, *first_[d]);
      std::array<uint64_t, 6>& row =
          table[module.name + "/" + dump.origin +
                (dump.supported ? "" : " (unsupported)")];
      ++row[0];
      ++row[1 + static_cast<size_t>(v)];
      supported += dump.supported;
      supported_ok += dump.supported && v == Verdict::kOk;
      if (v != Verdict::kOk && dump.supported) {
        std::printf("%s: %s dump %zu: bucket '%s' cause '%s' hw=%d\n",
                    MustMatch(dump) ? "FAIL" : "miss", module.name.c_str(), d,
                    first_[d]->bucket.c_str(), first_[d]->cause.c_str(),
                    first_[d]->hw ? 1 : 0);
        failures += MustMatch(dump);
      }
    }
    const double ratio = supported > 0 ? static_cast<double>(supported_ok) /
                                             static_cast<double>(supported)
                                       : 1.0;
    if (ratio < kSupportedFloor) {
      std::printf("FAIL: %.3f of supported dumps match ground truth, floor %.2f\n",
                  ratio, kSupportedFloor);
      ++failures;
    }
    std::printf("ground truth over distinct dumps: supported %llu/%llu ok "
                "(floor %.2f); bit flips and single-threaded classes must all "
                "match\n",
                static_cast<unsigned long long>(supported_ok),
                static_cast<unsigned long long>(supported), kSupportedFloor);
    std::printf("  %-46s %6s %6s %6s %7s %6s %8s\n", "module/origin", "dumps",
                "ok", "incon", "falsehw", "wrong", "missedhw");
    for (const auto& [key, row] : table) {
      std::printf("  %-46s %6llu %6llu %6llu %7llu %6llu %8llu\n", key.c_str(),
                  static_cast<unsigned long long>(row[0]),
                  static_cast<unsigned long long>(row[1]),
                  static_cast<unsigned long long>(row[2]),
                  static_cast<unsigned long long>(row[3]),
                  static_cast<unsigned long long>(row[4]),
                  static_cast<unsigned long long>(row[5]));
    }
    return failures;
  }

 private:
  const Corpus& corpus_;
  std::vector<std::optional<ReportView>> first_;
  uint64_t submissions_ = 0;
  uint64_t ok_submissions_ = 0;
  uint64_t failures_ = 0;
};

double MeanBlobBytes(const Corpus& corpus) {
  double total = 0;
  size_t n = 0;
  for (const std::vector<size_t>& stream : corpus.streams) {
    for (size_t d : stream) {
      total += static_cast<double>(corpus.dumps[d].blob.size());
      ++n;
    }
  }
  return total / static_cast<double>(std::max<size_t>(1, n));
}

// Upper bound on the timed loop, so a run ends well inside its time limit
// even on a slow host.
constexpr double kMaxTimedSeconds = 90;

// HostSpeed reference slices taken after each round (and before the first).
constexpr int kSlicesBetweenRounds = 3;

// What the traced run collects over its rounds: span windows per pass, the
// daemon's counters, and the replica's engine counters and queue waits.
struct TracedRounds {
  SpanWindows setup;
  SpanWindows daemon;
  SpanWindows replica;
  uint64_t waves = 0;
  uint64_t wave_promotions = 0;
  uint64_t quarantined = 0;
  uint64_t degraded_retries = 0;
  uint64_t rejected = 0;
  uint64_t facts_evicted = 0;
  uint64_t pool_reclaims = 0;
  ResTally tally;
  std::vector<double> queue_waits;
  double traced_ms = 0;    // replica wall time, traced
  double untraced_ms = 0;  // replica wall time, untraced
};

LayerValues TriageLayers(const TracedRounds& t, const MintCounters& mint,
                         const Corpus& corpus, double tail_q, double n) {
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  LayerValues v;
  v["vm.run_ms"] = t.setup.Get("vm.run").total_ms;
  v["vm.steps"] = count(mint.vm_steps);
  v["vm.predecode_ms"] = t.setup.Get("vm.predecode").total_ms;
  v["scenario.sweep_ms"] = t.setup.Get("scenario.sweep").total_ms;
  v["scenario.runs"] = count(mint.sweep_runs);
  v["scenario.crashes"] = count(mint.sweep_crashes);
  v["scenario.fixtures"] = count(mint.sweep_fixtures);
  v["scenario.fixture_yield"] = Ratio(count(mint.sweep_fixtures), count(mint.sweep_runs));
  v["workloads.fault_ms"] = t.setup.Get("workloads.fault").total_ms;
  v["workloads.fault_yield"] = Ratio(count(mint.fault_dumps), count(mint.fault_attempts));
  v["coredump.capture_ms"] = t.setup.Get("coredump.capture").total_ms;
  v["coredump.serialize_ms"] = t.setup.Get("coredump.serialize").total_ms;
  v["coredump.deserialize_ms"] = t.replica.Get("coredump.deserialize").total_ms / n;
  v["coredump.validate_ms"] = t.replica.Get("coredump.validate").total_ms / n;
  v["coredump.bytes"] = MeanBlobBytes(corpus);
  const double submit_ms = t.daemon.Get("triage.submit").total_ms / n;
  const double pump_ms = t.daemon.Get("triage.pump").total_ms / n;
  v["triage.submit_ms"] = submit_ms;
  v["triage.pump_ms"] = pump_ms;
  v["triage.queue_wait_p50_ms"] = Median(t.queue_waits);
  v["triage.queue_wait_tail_ms"] = Quantile(t.queue_waits, tail_q);
  // The daemon's own cost: its calls minus the layer calls the replica
  // makes for the same work.
  v["triage.overhead_ms"] =
      submit_ms + pump_ms -
      (t.replica.ChildMs("triage.submit") + t.replica.ChildMs("triage.wave")) / n;
  v["triage.waves"] = count(t.waves) / n;
  v["triage.wave_promotions"] = count(t.wave_promotions) / n;
  v["triage.quarantined"] = count(t.quarantined) / n;
  v["triage.degraded_retries"] = count(t.degraded_retries) / n;
  v["triage.rejected"] = count(t.rejected) / n;
  v["triage.facts_evicted"] = count(t.facts_evicted) / n;
  v["triage.pool_reclaims"] = count(t.pool_reclaims) / n;
  const SpanTotals& run = t.replica.Get("res.run");
  v["res.run_ms"] = run.total_ms / n;
  v["res.run_p50_ms"] = Median(run.durations_ms);
  v["res.run_tail_ms"] = Quantile(run.durations_ms, tail_q);
  v["res.facts_ms"] = t.setup.Get("res.facts").total_ms;
  v["res.promote_ms"] = t.replica.Get("res.promote").total_ms / n;
  t.tally.Emit(n, &v);
  v["trace.overhead_ratio"] = Ratio(t.traced_ms, t.untraced_ms);
  return v;
}


}  // namespace

int RunTriageWorkload(const Options& options) {
  const TriageConfig config = ConfigFor(options);
  Tracer tracer(options.trace);
  const Clock::time_point process_start = Clock::now();
  bool correct = true;

  // --- Set-up, repeated: mint, serialize, runtime + daemon, FactsFor. Only
  //     one corpus is alive at a time; later set-ups keep the first digest
  //     to check that the seed mints the same corpus again. ---
  MintCounters mint;  // the last set-up's
  SetupTimes setups(options);
  std::vector<double> vm_msteps_per_s;  // per set-up
  std::string first_digest;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<DaemonPass> pass;
  while (setups.More()) {
    pass.reset();
    corpus.reset();
    mint = MintCounters();
    const Clock::time_point t0 = Clock::now();
    res::Result<Corpus> minted = config.mint(options.seed, options.tiny, &tracer, &mint);
    if (!minted.ok()) {
      std::fprintf(stderr, "perfbench: corpus: %s\n",
                   minted.status().ToString().c_str());
      return 2;
    }
    corpus = std::make_unique<Corpus>(std::move(minted).value());
    pass = std::make_unique<DaemonPass>(*corpus, corpus->streams[0], config,
                                        config.workers);
    pass->PrebuildFacts(&tracer);
    setups.Add(MsBetween(t0, Clock::now()) / 1000.0);
    vm_msteps_per_s.push_back(static_cast<double>(mint.vm_steps) /
                              (mint.vm_run_ms / 1000.0) / 1e6);
    if (first_digest.empty()) {
      first_digest = corpus->digest;
    } else if (corpus->digest != first_digest) {
      std::printf("FAIL: seed %llu minted corpus %s, then %s\n",
                  static_cast<unsigned long long>(options.seed),
                  first_digest.c_str(), corpus->digest.c_str());
      correct = false;
    }
  }
  if (options.trace) {
    TracePredecode(*corpus, &tracer);
  }
  std::printf("corpus digest %s: %zu modules, %zu distinct dumps, %zu "
              "stream(s) of %zu submissions, %zu dump worker(s), wave size %zu\n",
              corpus->digest.c_str(), corpus->modules.size(),
              corpus->dumps.size(), corpus->streams.size(),
              corpus->streams[0].size(), config.workers, config.wave_size);

  // --- Timed rounds: each a fresh runtime and daemon over one stream; round
  //     r takes stream r mod (number of streams). Rates and medians are per
  //     round, reported as the median over rounds. The rate is scaled by
  //     the host slowdown over the reference slices just before and after
  //     the round (see HostSpeed); the latencies, single dumps that do not
  //     follow the reference loop, are as measured. ---
  HostSpeed speed;
  auto take_slices = [&speed] {
    for (int i = 0; i < kSlicesBetweenRounds; ++i) {
      speed.Sample();
    }
  };
  take_slices();
  std::vector<double> round_rates;  // as measured
  std::vector<double> round_slowdowns;
  std::vector<double> scaled_rates;
  std::vector<double> round_p50s;
  std::vector<double> round_tails;
  std::vector<double> latencies;
  std::vector<std::string> digests(corpus->streams.size());
  VerdictBook verdicts(*corpus);
  double wall_ms = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rounds = 0;
  TracedRounds traced;
  traced.setup.Add(tracer.Summarize(0, tracer.span_count()));
  for (;;) {
    const size_t k = rounds % corpus->streams.size();
    const std::vector<size_t>& stream = corpus->streams[k];
    if (pass == nullptr) {
      pass = std::make_unique<DaemonPass>(*corpus, stream, config, config.workers);
      pass->PrebuildFacts(nullptr);
    }
    const size_t daemon_begin = tracer.span_count();
    const size_t slices_before = speed.samples() - kSlicesBetweenRounds;
    pass->Run(&tracer);
    take_slices();
    const double slowdown = speed.Slowdown(slices_before, speed.samples());
    traced.daemon.Add(tracer.Summarize(daemon_begin, tracer.span_count()));
    const std::string digest = ReportDigest(pass->reports());
    if (digests[k].empty()) {
      digests[k] = digest;
      verdicts.Add(stream, pass->reports());
    } else if (digest != digests[k]) {
      std::printf("FAIL: stream %zu report digest %s, earlier %s\n", k,
                  digest.c_str(), digests[k].c_str());
      correct = false;
    }
    const res::TriageDaemonStats ds = pass->stats();
    attempted += stream.size();
    failed += pass->errors() + ds.quarantined;
    wall_ms += pass->wall_ms();
    round_rates.push_back(static_cast<double>(stream.size()) /
                          (pass->wall_ms() / 1000.0));
    round_slowdowns.push_back(slowdown);
    scaled_rates.push_back(round_rates.back() * slowdown);
    round_p50s.push_back(Median(pass->latency_ms()));
    round_tails.push_back(Quantile(pass->latency_ms(), config.tail_q));
    latencies.insert(latencies.end(), pass->latency_ms().begin(),
                     pass->latency_ms().end());
    traced.waves += ds.waves;
    traced.wave_promotions += ds.wave_promotions;
    traced.quarantined += ds.quarantined;
    traced.degraded_retries += ds.degraded_retries;
    traced.rejected += ds.rejected;
    traced.facts_evicted += ds.facts_evicted;
    traced.pool_reclaims += ds.pool_reclaims;
    pass.reset();

    if (options.trace) {
      // The replica twice, untraced then traced: the ratio of the two is
      // the tracing overhead. Both must report what the daemon reported.
      tracer.set_enabled(false);
      ResTally ignored;
      ReplicaPass plain(*corpus, stream, config, config.workers, &tracer, &ignored);
      plain.Run();
      tracer.set_enabled(true);
      traced.untraced_ms += plain.wall_ms();
      const size_t replica_begin = tracer.span_count();
      ReplicaPass replica(*corpus, stream, config, config.workers, &tracer,
                          &traced.tally);
      replica.Run();
      traced.replica.Add(tracer.Summarize(replica_begin, tracer.span_count()));
      traced.traced_ms += replica.wall_ms();
      failed += plain.errors() + replica.errors();
      for (const ReplicaPass* p : {&plain, &replica}) {
        const std::string d = ReportDigest(p->reports());
        if (d != digest) {
          std::printf("FAIL: replica report digest %s, daemon %s\n", d.c_str(),
                      digest.c_str());
          correct = false;
        }
      }
      traced.queue_waits.insert(traced.queue_waits.end(),
                                replica.queue_wait_ms().begin(),
                                replica.queue_wait_ms().end());
    }
    ++rounds;
    const double elapsed = MsBetween(process_start, Clock::now()) / 1000.0;
    if (options.tiny || elapsed > kMaxTimedSeconds) {
      break;
    }
    // Untraced runs make at least min_rounds rounds, so a run submits
    // every distinct dump of the seed's corpus.
    if (options.trace ? elapsed >= options.seconds
                      : wall_ms >= options.seconds * 1000.0 &&
                            latencies.size() >= SamplesForTail(config.tail_q) &&
                            rounds >= corpus->min_rounds) {
      break;
    }
  }

  // racy_wide vs racy_wide_par: the parallel stream must report exactly
  // what the serial one does.
  if (config.workers > 1) {
    DaemonPass serial(*corpus, corpus->streams[0], config, 1);
    serial.PrebuildFacts(nullptr);
    serial.Run(nullptr);
    const std::string serial_digest = ReportDigest(serial.reports());
    std::printf("stream 0 report digest: %zu workers %s, serial %s\n",
                config.workers, digests[0].c_str(), serial_digest.c_str());
    if (serial_digest != digests[0]) {
      std::printf("FAIL: parallel and serial report digests differ\n");
      correct = false;
    }
  }
  for (size_t k = 0; k < digests.size() && !digests[k].empty(); ++k) {
    std::printf("stream %zu report digest %s\n", k, digests[k].c_str());
  }
  std::printf("%zu round(s), %llu of %llu submissions failed\n", rounds,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (verdicts.Finish() > 0 || failed > 0) {
    correct = false;
  }

  MetricSet metrics;
  if (!options.trace) {
    // A round with enough samples has its own tail; otherwise pool them.
    const bool tail_per_round =
        corpus->streams[0].size() >= SamplesForTail(config.tail_q);
    std::printf("report_tail_ms is p%g %s (%zu samples)\n",
                100.0 * config.tail_q,
                tail_per_round ? "per round, median over rounds" : "over all rounds",
                latencies.size());
    std::printf("vm_msteps_per_s %.3f (corpus production runs in set-up)\n",
                Median(vm_msteps_per_s));
    std::printf("failed_ratio %.6f\n",
                static_cast<double>(failed) / static_cast<double>(attempted));
    PrintRounds("dumps/s per round, as measured", round_rates);
    PrintRounds("host slowdown per round", round_slowdowns);
    std::printf("as measured: dumps_per_s %.6g\n", Median(round_rates));
    PrintSetups(setups);
    PrintRounds("report p50 ms per round, as measured", round_p50s);
    metrics.Add("dumps_per_s", Median(scaled_rates), "1/s");
    // The median over every submission of the run, not of each round's
    // median: a round's median hangs on its wave compositions, and pooling
    // all rounds' latencies narrows that part of the seed spread by about a
    // third (simulated over the racy_wide rotations).
    metrics.Add("report_p50_ms", Median(latencies), "ms");
    metrics.Add("report_tail_ms",
                tail_per_round ? Median(round_tails)
                               : Quantile(latencies, config.tail_q),
                "ms");
    std::printf("verdicts ok over submissions %.4f\n", verdicts.submission_ok_ratio());
    metrics.Add("verdict_ok_ratio", verdicts.ok_ratio(), "ratio");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("setup_s", setups.setup_s(), "s");
  } else {
    const double n = static_cast<double>(rounds);
    LayerValues v = TriageLayers(traced, mint, *corpus, config.tail_q, n);
    PrintSpanTable("set-up spans", traced.setup, 1);
    PrintSpanTable("daemon pass spans", traced.daemon, n);
    PrintSpanTable("replica spans", traced.replica, n);
    std::printf("tracing overhead: traced replica %.1f ms, untraced %.1f ms "
                "per round\n",
                traced.traced_ms / n, traced.untraced_ms / n);
    EmitLayerMetrics(v, &metrics);
    WriteSpanFile(tracer, options);
  }
  metrics.PrintTable();
  metrics.PrintResult(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
