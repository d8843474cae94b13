// Test-side ground truth for VM runs: a FullMemoryRecorder that also keeps
// every block entry and exposes the consumed inputs. Only tests attach it;
// RES sees a run through its coredump alone. Attach it before Reset (or
// RestoreForReplay) so the trace starts with each thread's first block.
#ifndef RES_TESTS_GROUND_TRUTH_RECORDER_H_
#define RES_TESTS_GROUND_TRUTH_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/vm/recorder.h"

namespace res {

struct BlockTraceEntry {
  uint32_t thread;
  BlockRef block;
  bool operator==(const BlockTraceEntry&) const = default;
};

class GroundTruthRecorder : public FullMemoryRecorder {
 public:
  void OnBlock(uint32_t thread, BlockRef block) override {
    block_trace_.push_back(BlockTraceEntry{thread, block});
  }
  const std::vector<BlockTraceEntry>& block_trace() const { return block_trace_; }
  const std::vector<InputRecord>& inputs() const { return inputs_; }

 private:
  std::vector<BlockTraceEntry> block_trace_;
};

}  // namespace res

#endif  // RES_TESTS_GROUND_TRUTH_RECORDER_H_
