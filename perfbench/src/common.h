// Shared plumbing for the crash-to-verdict benchmark: clocks, command-line
// options, digests, quantiles, and the metric set printed at the end of a
// run.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small corpus and a single round: the self-check mode, not a measurement.
  bool tiny = false;
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

// FNV-1a accumulator for the corpus and report digests.
class Digest {
 public:
  void Add(const void* data, size_t len);
  void Add(const std::string& s);
  void AddU64(uint64_t v);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

// The q-quantile (0 < q < 1) of `v` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Samples needed so that at least ten lie beyond the q-quantile.
size_t SamplesForTail(double q);

// Prints "label: v1 v2 ..." on one line.
void PrintRounds(const char* label, const std::vector<double>& values);

// Peak resident set of this process, in MB.
double PeakRssMb();

// The host's speed against a fixed reference. A shared host runs phases of
// seconds to minutes 25-40% slower or faster than others, some longer than
// a run. Between units of measured work the benchmark times short slices
// of a fixed loop of its own (no code under src/ runs in it), and scales
// dumps_per_s and setup_s by how much slower than the reference the slices
// around that work ran. A host phase moves the loop and the work alike and
// largely cancels; a change to the program moves only the work. long_run
// latencies are scaled too, by the slices around their crash. Triage
// latencies are not: there, scaling did not narrow their spread (see
// perfbench/README.md, Noise).
class HostSpeed {
 public:
  // Times one slice of the reference loop (about 3 ms on the reference
  // host) and returns its duration in ms.
  double Sample();
  size_t samples() const { return slice_ms_.size(); }
  // Median slice time over samples [begin, end) divided by the reference
  // slice time: above 1 while the host runs slower than the reference.
  double Slowdown(size_t begin, size_t end) const;
  double Slowdown() const { return Slowdown(0, slice_ms_.size()); }

 private:
  std::vector<double> slice_ms_;
};

// The repeated set-up behind setup_s: the median of the set-ups timed in a
// run, scaled by the host slowdown over reference slices taken among them.
class SetupTimes {
 public:
  explicit SetupTimes(const Options& options) : options_(options) {}
  // Whether to time another set-up: one in traced and tiny runs; otherwise
  // at least 5, then more until 1.5 s of set-up has been timed (at most
  // 2000). Takes a reference slice before every 50 ms of set-up.
  bool More();
  void Add(double seconds);
  size_t count() const { return seconds_.size(); }
  double quantile_s(double q) const { return Quantile(seconds_, q); }
  double slowdown() const { return speed_.Slowdown(); }
  double setup_s() const { return quantile_s(0.5) / slowdown(); }

 private:
  const Options& options_;
  HostSpeed speed_;
  std::vector<double> seconds_;
  double total_s_ = 0;
  double since_slice_s_ = 0;
};

// "set-up: N timed, p10 .. median .. p90 .. s as measured, slowdown X".
void PrintSetups(const SetupTimes& setups);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Ordered metric list; printed one per line and as the final JSON object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // "name = value unit" lines for the reader.
  void PrintTable() const;
  // The benchmark's result line: {"correct", "attempted", "failed",
  // "metrics"}. Must be the last line of standard output.
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

std::string JsonEscape(const std::string& s);

// Host and build tags carried by every record the benchmark emits.
std::string HostRecordJson(const Options& options);
bool OptimizedBuild();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
