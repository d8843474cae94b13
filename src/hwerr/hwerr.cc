#include "src/hwerr/hwerr.h"

namespace res {

HwAnalysis HardwareErrorAnalyzer::Analyze(const Coredump& dump) const {
  ResEngine engine(module_, dump, options_);
  ResResult result = engine.Run();

  HwAnalysis analysis;
  analysis.depth0_inconsistency = result.dump_inconsistent_at_trap;
  analysis.stop = result.stop;
  analysis.stats = result.stats;
  analysis.feasible_suffix_depth = result.stats.max_sat_depth;

  if (result.hardware_error_suspected) {
    analysis.verdict = HwVerdict::kHardwareError;
  } else if (result.suffix.has_value() && result.suffix->verified) {
    analysis.verdict = HwVerdict::kSoftwareBug;
  } else {
    analysis.verdict = HwVerdict::kInconclusive;
  }
  return analysis;
}

}  // namespace res
