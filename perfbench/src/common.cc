#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/support/hash.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Digest::Add(const void* data, size_t len) {
  h_ = res::FnvHashBytes(data, len, h_);
}

void Digest::Add(const std::string& s) {
  AddU64(s.size());
  Add(s.data(), s.size());
}

void Digest::AddU64(uint64_t v) { Add(&v, sizeof(v)); }

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

size_t SamplesForTail(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

void PrintRounds(const char* label, const std::vector<double>& values) {
  std::printf("%s:", label);
  for (double v : values) {
    std::printf(" %.4g", v);
  }
  std::printf("\n");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

volatile uint64_t reference_sink = 0;

// A dispatch-bound interpreter loop over a fixed 64-op program, with its
// registers and table in L1: the shape of a VM's hot loop, none of its code.
uint64_t ReferenceLoop(uint64_t iterations, uint64_t seed) {
  static const std::array<uint8_t, 64> kProgram = [] {
    std::array<uint8_t, 64> p{};
    uint32_t x = 0x2545f491;
    for (uint8_t& op : p) {
      x = x * 1664525u + 1013904223u;
      op = static_cast<uint8_t>(x >> 24);
    }
    return p;
  }();
  std::array<uint64_t, 8> r = {seed, 2, 3, 5, 8, 13, 21, 34};
  std::array<uint64_t, 256> table{};
  for (uint64_t i = 0; i < iterations; ++i) {
    const uint8_t op = kProgram[i & 63];
    const unsigned d = (op >> 3) & 7;
    const unsigned s = (d + 1 + (op >> 6)) & 7;
    switch (op & 7) {
      case 0: r[d] += r[s]; break;
      case 1: r[d] ^= r[s] << 1; break;
      case 2: r[d] -= r[s] | 1; break;
      case 3: r[d] = r[d] * 0x9e3779b97f4a7c15ULL + r[s]; break;
      case 4: r[d] = (r[s] & 1) ? r[d] + 7 : r[d] ^ 0x55; break;
      case 5: r[d] = (r[d] >> 3) | (r[s] << 61); break;
      case 6: r[d] += r[s] > r[d] ? 1 : 0; break;
      default:
        table[r[s] & 255] += r[d];
        r[d] = table[(r[d] >> 8) & 255] + i;
        break;
    }
  }
  uint64_t out = 0;
  for (uint64_t v : r) {
    out ^= v;
  }
  return out;
}

constexpr uint64_t kReferenceIterations = 1'000'000;
// About one slice on a 4-core 2.1 GHz Xeon VM. It only sets the scale of
// the scaled metrics; comparisons are between runs on one host.
constexpr double kReferenceSliceMs = 3.0;

}  // namespace

double HostSpeed::Sample() {
  const Clock::time_point t0 = Clock::now();
  reference_sink = reference_sink + ReferenceLoop(kReferenceIterations, reference_sink);
  const double ms = MsBetween(t0, Clock::now());
  slice_ms_.push_back(ms);
  return ms;
}

double HostSpeed::Slowdown(size_t begin, size_t end) const {
  if (begin >= end) {
    return 1.0;
  }
  return Median(std::vector<double>(slice_ms_.begin() + begin,
                                    slice_ms_.begin() + end)) /
         kReferenceSliceMs;
}

bool SetupTimes::More() {
  if (!seconds_.empty() &&
      (options_.trace || options_.tiny ||
       (seconds_.size() >= 5 && (total_s_ >= 1.5 || seconds_.size() >= 2000)))) {
    return false;
  }
  if (seconds_.empty() || since_slice_s_ >= 0.05) {
    speed_.Sample();
    since_slice_s_ = 0;
  }
  return true;
}

void SetupTimes::Add(double seconds) {
  seconds_.push_back(seconds);
  total_s_ += seconds;
  since_slice_s_ += seconds;
}

void PrintSetups(const SetupTimes& setups) {
  std::printf("set-up: %zu timed, p10 %.6f median %.6f p90 %.6f s as measured, "
              "host slowdown %.4f\n",
              setups.count(), setups.quantile_s(0.1), setups.quantile_s(0.5),
              setups.quantile_s(0.9), setups.slowdown());
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN or infinity; a metric that cannot be computed reads 0.
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void MetricSet::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void MetricSet::PrintResult(bool correct, uint64_t attempted,
                            uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + JsonEscape(metrics_[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           JsonEscape(metrics_[i].unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string HostRecordJson(const Options& options) {
  std::string out = "{\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  out += std::string(", \"optimized\": ") + (OptimizedBuild() ? "true" : "false");
#if defined(__VERSION__)
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
#endif
  out += ", \"git_rev\": \"" + JsonEscape(options.git_rev) + "\"";
  out += ", \"src_digest\": \"" + JsonEscape(options.src_digest) + "\"";
  out += ", \"workload\": \"" + JsonEscape(options.workload) + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += std::string(", \"trace\": ") + (options.trace ? "1" : "0");
  out += std::string(", \"tiny\": ") + (options.tiny ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace perfbench
