// Hardware-error identification (paper §3.2).
//
// "While analyzing a coredump, RES can discover inconsistencies between the
// coredump and the execution of the program prior to generating the
// coredump, indicating that the likely explanation is a hardware error."
//
// The analyzer wraps the RES engine: a dump is classified kHardwareError
// when (a) the dump state cannot even produce the recorded trap (e.g. an
// assert trap whose condition register is non-zero — a flipped register), or
// (b) the backward search exhausts with no feasible suffix (e.g. all paths
// write 1 to a word the dump shows as 0 — a flipped DRAM cell).
#ifndef RES_HWERR_HWERR_H_
#define RES_HWERR_HWERR_H_

#include <string>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/reverse_engine.h"

namespace res {

enum class HwVerdict : uint8_t {
  kSoftwareBug = 0,    // a feasible suffix (and usually a root cause) exists
  kHardwareError = 1,  // no execution of P can produce this dump
  kInconclusive = 2,   // budget exhausted before either was established
};

struct HwAnalysis {
  HwVerdict verdict = HwVerdict::kInconclusive;
  bool depth0_inconsistency = false;  // trap itself impossible from dump state
  StopReason stop = StopReason::kFrontierExhausted;
  size_t feasible_suffix_depth = 0;
  ResStats stats;
};

class HardwareErrorAnalyzer {
 public:
  HardwareErrorAnalyzer(const Module& module, ResOptions options = {})
      : module_(module), options_(options) {}

  HwAnalysis Analyze(const Coredump& dump) const;

 private:
  const Module& module_;
  ResOptions options_;
};

}  // namespace res

#endif  // RES_HWERR_HWERR_H_
