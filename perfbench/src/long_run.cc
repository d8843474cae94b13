// long_run: the title claim. Production runs of BuildLongExecution at
// lengths spanning a decade on the predecoded VM; each crash is captured,
// serialized, deserialized, validated, analysed by ResEngine and checked by
// ReplaySuffix. The VM should take nearly all the time while RES stays flat.
#include <cstdio>
#include <memory>

#include "perfbench/src/corpus.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/coredump/serialize.h"
#include "src/replay/replay.h"
#include "src/res/reverse_engine.h"
#include "src/res/runtime.h"

namespace perfbench {

namespace {

// The longest production run is ~1.5e7 steps; this only stops a runaway.
constexpr uint64_t kLongMaxSteps = 1'000'000'000;
constexpr double kTailQ = 0.75;
constexpr double kMaxTimedSeconds = 90;

struct LongRound {
  double wall_ms = 0;       // the modules' work, without the reference slices
  double reference_ms = 0;  // the same, scaled to the reference host speed
  std::vector<double> latency_ms;  // dump bytes -> replay-verified report
  std::vector<double> reference_latency_ms;  // the same, scaled
  uint64_t dumps = 0;
  uint64_t ok = 0;       // cause named as ground truth says
  uint64_t failed = 0;   // no crash, parse/validate error, replay mismatch
  uint64_t replay_verified = 0;
  uint64_t suffix_units = 0;
  uint64_t blob_bytes = 0;
};

// One pass over the corpus. Construction is set-up: a fresh runtime and the
// module facts (CFG and predecoded stream) pre-built with FactsFor.
class LongPass {
 public:
  LongPass(const Corpus& corpus, Tracer* tracer)
      : corpus_(corpus), tracer_(tracer) {
    runtime_ = std::make_unique<res::ResRuntime>();
    for (const CorpusModule& m : corpus.modules) {
      SpanScope span(tracer_, "res.facts");
      runtime_->FactsFor(*m.module);
    }
  }

  // Reference slices of `speed` bracket each module's crash; its time and
  // its report latency are scaled by the slowdown over the two slices
  // around it.
  LongRound Run(MintCounters* vm, ResTally* tally, HostSpeed* speed) {
    LongRound out;
    speed->Sample();
    for (const CorpusModule& m : corpus_.modules) {
      const size_t analysed = out.latency_ms.size();
      const Clock::time_point t0 = Clock::now();
      Crash(m, vm, tally, &out);
      const double ms = MsBetween(t0, Clock::now());
      speed->Sample();
      const double slowdown = speed->Slowdown(speed->samples() - 2, speed->samples());
      out.wall_ms += ms;
      out.reference_ms += ms / slowdown;
      if (out.latency_ms.size() > analysed) {
        out.reference_latency_ms.push_back(out.latency_ms.back() / slowdown);
      }
    }
    return out;
  }

 private:
  void Crash(const CorpusModule& m, MintCounters* vm, ResTally* tally,
             LongRound* out) {
    const res::Module& module = *m.module;
    std::shared_ptr<res::ModuleFacts> facts = runtime_->FactsFor(module);
    res::RoundRobinScheduler scheduler;
    ProductionRun run = RunProduction(module, facts->predecoded, &scheduler,
                                      m.spec->channel0_inputs,
                                      m.spec->expected_trap, kLongMaxSteps,
                                      tracer_, vm);
    ++out->dumps;
    if (!run.crashed) {
      ++out->failed;
      return;
    }
    std::vector<uint8_t> blob;
    {
      SpanScope span(tracer_, "coredump.serialize");
      blob = res::SerializeCoredump(run.dump);
    }
    out->blob_bytes += blob.size();
    if (!Analyse(m, *facts, blob, tally, out)) {
      ++out->failed;
    }
  }

  // Bytes to a replay-verified report. False on any failure.
  bool Analyse(const CorpusModule& m, const res::ModuleFacts& facts,
               const std::vector<uint8_t>& blob, ResTally* tally,
               LongRound* out) {
    const res::Module& module = *m.module;
    const Clock::time_point t0 = Clock::now();
    res::Result<res::Coredump> parsed = [&] {
      SpanScope span(tracer_, "coredump.deserialize");
      return res::DeserializeCoredump(blob);
    }();
    if (!parsed.ok()) {
      return false;
    }
    const res::Coredump& dump = parsed.value();
    {
      SpanScope span(tracer_, "coredump.validate");
      if (!dump.Validate(module).ok()) {
        return false;
      }
    }
    res::ResOptions options;
    options.runtime = runtime_.get();
    res::ResEngine engine(module, dump, options);
    res::ResResult result;
    {
      SpanScope span(tracer_, "res.run");
      result = engine.Run();
    }
    tally->Add(result);
    tally->NotePool(runtime_->pool()->node_count(), runtime_->pool()->var_count());
    if (!result.suffix) {
      return false;
    }
    res::Result<res::ReplayOutcome> replay = [&] {
      SpanScope span(tracer_, "replay.suffix");
      return res::ReplaySuffix(module, dump, *result.suffix, runtime_->pool(),
                               &facts.predecoded);
    }();
    out->latency_ms.push_back(MsBetween(t0, Clock::now()));
    if (!replay.ok() || !replay.value().schedule_followed ||
        !replay.value().trap_matches || !replay.value().state_matches) {
      std::printf("FAIL: replay of %s: %s\n", m.name.c_str(),
                  replay.ok() ? replay.value().mismatch.c_str()
                              : replay.status().ToString().c_str());
      return false;
    }
    ++out->replay_verified;
    out->suffix_units += result.suffix->units.size();
    if (!result.causes.empty() &&
        result.causes.front().kind == m.spec->expected_cause) {
      ++out->ok;
    } else {
      std::printf("FAIL: wrong verdict on %s: %s\n", m.name.c_str(),
                  result.causes.empty() ? "no cause"
                                        : result.causes.front().description.c_str());
      return false;
    }
    return true;
  }

  const Corpus& corpus_;
  Tracer* tracer_;
  std::unique_ptr<res::ResRuntime> runtime_;
};

}  // namespace

int RunLongRun(const Options& options) {
  Tracer tracer(options.trace);
  const Clock::time_point process_start = Clock::now();

  SetupTimes setups(options);
  std::string first_digest;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<LongPass> pass;
  bool correct = true;
  while (setups.More()) {
    pass.reset();
    corpus.reset();
    const Clock::time_point t0 = Clock::now();
    res::Result<Corpus> minted = MintLong(options.seed, options.tiny);
    if (!minted.ok()) {
      std::fprintf(stderr, "perfbench: corpus: %s\n",
                   minted.status().ToString().c_str());
      return 2;
    }
    corpus = std::make_unique<Corpus>(std::move(minted).value());
    pass = std::make_unique<LongPass>(*corpus, &tracer);
    setups.Add(MsBetween(t0, Clock::now()) / 1000.0);
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
  SpanWindows setup_spans;
  setup_spans.Add(tracer.Summarize(0, tracer.span_count()));
  std::printf("corpus digest %s: %zu modules, lengths", corpus->digest.c_str(),
              corpus->modules.size());
  for (uint64_t n : corpus->lengths) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf(" iterations\n");

  // --- Timed rounds. The traced run alternates an untraced and a traced
  //     round; its layer numbers come from the traced ones. ---
  MintCounters vm;
  ResTally tally;
  SpanWindows traced_spans;
  // dumps_per_s is scaled to the reference host speed: the VM dominates it,
  // and a host phase moves the VM's dispatch loop as it moves the reference
  // loop. The latencies are scaled by the slices around their crash as
  // well: over six seeds, scaling cut the p50 spread from 0.106 to 0.038
  // and the tail's from 0.160 to 0.066 (see perfbench/README.md, Noise).
  HostSpeed speed;
  std::vector<double> round_rates;  // as measured
  std::vector<double> round_slowdowns;
  std::vector<double> scaled_rates;
  std::vector<double> round_vm_rates;
  std::vector<double> round_p50s;  // as measured
  std::vector<double> latencies;   // as measured
  std::vector<double> scaled_p50s;
  std::vector<double> scaled_latencies;
  double wall_ms = 0;
  double traced_ms = 0;
  double untraced_ms = 0;
  uint64_t dumps = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t verified = 0;
  uint64_t suffix_units = 0;
  uint64_t blob_bytes = 0;
  size_t rounds = 0;
  for (;;) {
    if (pass == nullptr) {
      pass = std::make_unique<LongPass>(*corpus, &tracer);
    }
    if (options.trace) {
      tracer.set_enabled(false);
      MintCounters ignored_vm;
      ResTally ignored;
      HostSpeed ignored_speed;
      untraced_ms += LongPass(*corpus, &tracer)
                         .Run(&ignored_vm, &ignored, &ignored_speed)
                         .wall_ms;
      tracer.set_enabled(true);
    }
    const size_t begin = tracer.span_count();
    MintCounters round_vm;
    const LongRound round = pass->Run(&round_vm, &tally, &speed);
    vm.vm_steps += round_vm.vm_steps;
    vm.vm_run_ms += round_vm.vm_run_ms;
    round_vm_rates.push_back(static_cast<double>(round_vm.vm_steps) /
                             (round_vm.vm_run_ms / 1000.0) / 1e6);
    round_rates.push_back(static_cast<double>(round.dumps) / (round.wall_ms / 1000.0));
    round_slowdowns.push_back(round.wall_ms / round.reference_ms);
    scaled_rates.push_back(static_cast<double>(round.dumps) /
                           (round.reference_ms / 1000.0));
    round_p50s.push_back(Median(round.latency_ms));
    latencies.insert(latencies.end(), round.latency_ms.begin(),
                     round.latency_ms.end());
    scaled_p50s.push_back(Median(round.reference_latency_ms));
    scaled_latencies.insert(scaled_latencies.end(),
                            round.reference_latency_ms.begin(),
                            round.reference_latency_ms.end());
    traced_spans.Add(tracer.Summarize(begin, tracer.span_count()));
    pass.reset();
    traced_ms += round.wall_ms;
    wall_ms += round.wall_ms;
    dumps += round.dumps;
    ok += round.ok;
    failed += round.failed;
    verified += round.replay_verified;
    suffix_units += round.suffix_units;
    blob_bytes += round.blob_bytes;
    ++rounds;
    const double elapsed = MsBetween(process_start, Clock::now()) / 1000.0;
    if (options.tiny || elapsed > kMaxTimedSeconds) {
      break;
    }
    if (options.trace ? elapsed >= options.seconds
                      : wall_ms >= options.seconds * 1000.0 &&
                            latencies.size() >= SamplesForTail(kTailQ)) {
      break;
    }
  }
  std::printf("%zu round(s), %llu of %llu dumps failed\n", rounds,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(dumps));
  if (failed > 0) {
    correct = false;
  }

  MetricSet metrics;
  if (!options.trace) {
    std::printf("report_tail_ms is p%g over %zu samples\n", 100 * kTailQ,
                latencies.size());
    std::printf("vm_msteps_per_s %.3f (production runs, median over rounds, "
                "as measured)\n",
                Median(round_vm_rates));
    PrintRounds("dumps/s per round, as measured", round_rates);
    PrintRounds("host slowdown per round", round_slowdowns);
    PrintRounds("report p50 ms per round, as measured", round_p50s);
    std::printf("as measured: dumps_per_s %.6g report_p50_ms %.6g "
                "report_tail_ms %.6g\n",
                Median(round_rates), Median(round_p50s),
                Quantile(latencies, kTailQ));
    PrintSetups(setups);
    std::printf("failed_ratio %.6f\n",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<uint64_t>(1, dumps)));
    metrics.Add("dumps_per_s", Median(scaled_rates), "1/s");
    metrics.Add("report_p50_ms", Median(scaled_p50s), "ms");
    metrics.Add("report_tail_ms", Quantile(scaled_latencies, kTailQ), "ms");
    metrics.Add("verdict_ok_ratio",
                static_cast<double>(ok) / static_cast<double>(std::max<uint64_t>(1, dumps)),
                "ratio");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("setup_s", setups.setup_s(), "s");
  } else {
    const double n = static_cast<double>(rounds);
    LayerValues v;
    v["vm.run_ms"] = traced_spans.Get("vm.run").total_ms / n;
    v["vm.steps"] = static_cast<double>(vm.vm_steps) / n;
    v["vm.predecode_ms"] = setup_spans.Get("vm.predecode").total_ms;
    v["coredump.capture_ms"] = traced_spans.Get("coredump.capture").total_ms / n;
    v["coredump.serialize_ms"] = traced_spans.Get("coredump.serialize").total_ms / n;
    v["coredump.deserialize_ms"] =
        traced_spans.Get("coredump.deserialize").total_ms / n;
    v["coredump.validate_ms"] = traced_spans.Get("coredump.validate").total_ms / n;
    v["coredump.bytes"] =
        static_cast<double>(blob_bytes) / static_cast<double>(std::max<uint64_t>(1, dumps));
    const SpanTotals& run = traced_spans.Get("res.run");
    v["res.run_ms"] = run.total_ms / n;
    v["res.run_p50_ms"] = Median(run.durations_ms);
    v["res.run_tail_ms"] = Quantile(run.durations_ms, kTailQ);
    v["res.facts_ms"] = setup_spans.Get("res.facts").total_ms;
    tally.Emit(n, &v);
    v["replay.ms"] = traced_spans.Get("replay.suffix").total_ms / n;
    v["replay.verified"] = static_cast<double>(verified) / n;
    v["replay.suffix_units"] = static_cast<double>(suffix_units) / n;
    v["trace.overhead_ratio"] = traced_ms / untraced_ms;
    PrintSpanTable("set-up spans", setup_spans, 1);
    PrintSpanTable("round spans", traced_spans, n);
    std::printf("tracing overhead: traced %.1f ms vs untraced %.1f ms per round\n",
                traced_ms / n, untraced_ms / n);
    EmitLayerMetrics(v, &metrics);
    WriteSpanFile(tracer, options);
  }
  metrics.PrintTable();
  metrics.PrintResult(correct, dumps, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
