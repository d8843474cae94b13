// The triage suites' oracle and stream driver: a solo ResEngine run over a
// dump is what every daemon report must equal, and RunDaemonStream drives
// one daemon over a submission stream and collects its reports by seq.
// Shared by tests/triage_daemon_test.cc and tests/triage_batch_test.cc.
#ifndef RES_TESTS_TRIAGE_ORACLE_H_
#define RES_TESTS_TRIAGE_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/res/runtime.h"
#include "src/triage/triage_daemon.h"

namespace res {

inline void ExpectSameVerdict(const TriageReport& got,
                              const TriageReport& want,
                              const std::string& label) {
  EXPECT_EQ(got.outcome, want.outcome) << label;
  EXPECT_EQ(got.degraded, want.degraded) << label;
  EXPECT_EQ(got.res_bucket, want.res_bucket) << label;
  EXPECT_EQ(got.stack_bucket, want.stack_bucket) << label;
  EXPECT_EQ(got.cause_signature, want.cause_signature) << label;
  EXPECT_EQ(got.res_rating, want.res_rating) << label;
  EXPECT_EQ(got.heuristic_rating, want.heuristic_rating) << label;
  EXPECT_EQ(got.hardware_error_suspected, want.hardware_error_suspected)
      << label;
}

// The contract's oracle: one self-contained ResEngine run (private pool and
// cache, no runtime) over the dump, with its verdicts derived as a report
// derives them.
inline TriageReport SoloReport(const Module& module, const Coredump& dump,
                               const ResOptions& options) {
  const ResResult result = ResEngine(module, dump, options).Run();
  TriageReport r;
  r.res_bucket = BucketFromResult(module, dump, result);
  r.stack_bucket = StackBucketer(module).BucketFor(dump);
  r.cause_signature = result.causes.empty()
                          ? std::string()
                          : result.causes.front().BucketSignature(module);
  r.res_rating = RateFromResult(result);
  r.heuristic_rating = HeuristicExploitabilityRater().Rate(dump);
  r.hardware_error_suspected = result.hardware_error_suspected;
  return r;
}

inline TriageOptions TriageFor(size_t parallel, ResOptions res = ResOptions{}) {
  TriageOptions options;
  options.res = std::move(res);
  options.max_parallel_dumps = parallel;
  return options;
}

// One submission of a stream under test.
struct Sub {
  const Module* module;
  const Coredump* dump;
};

// Drives a daemon over `stream` (Pump after every submit — the streaming
// shape; the wave cut is a pure function of submission order, so pump
// timing cannot matter), drains, and returns the reports keyed by
// submission seq.
inline std::map<uint64_t, TriageReport> RunDaemonStream(
    const std::vector<Sub>& stream, const TriageDaemonOptions& base,
    TriageDaemonStats* stats_out = nullptr) {
  ResRuntime runtime;
  std::map<uint64_t, TriageReport> reports;
  std::mutex mu;
  TriageDaemonOptions options = base;
  options.on_report = [&](const TriageReport& r) {
    std::lock_guard<std::mutex> lock(mu);
    reports[r.index] = r;
  };
  TriageDaemon daemon(&runtime, options);
  for (size_t i = 0; i < stream.size(); ++i) {
    Result<uint64_t> seq = daemon.Submit(*stream[i].module, *stream[i].dump);
    EXPECT_TRUE(seq.ok()) << "submit " << i;
    if (seq.ok()) {
      EXPECT_EQ(seq.value(), i);
    }
    daemon.Pump();
  }
  daemon.Shutdown();
  if (stats_out != nullptr) {
    *stats_out = daemon.stats();
  }
  return reports;
}

// Every report of `got` equals the solo run over its submission's dump.
inline void ExpectMatchesSolo(const std::map<uint64_t, TriageReport>& got,
                              const std::vector<Sub>& stream,
                              const ResOptions& options,
                              const std::string& label) {
  ASSERT_EQ(got.size(), stream.size()) << label;
  for (size_t i = 0; i < stream.size(); ++i) {
    const std::string at = label + "/seq=" + std::to_string(i);
    auto it = got.find(i);
    ASSERT_NE(it, got.end()) << at;
    ExpectSameVerdict(it->second,
                      SoloReport(*stream[i].module, *stream[i].dump, options),
                      at);
  }
}

}  // namespace res

#endif  // RES_TESTS_TRIAGE_ORACLE_H_
