// Recording sinks for the record-replay baselines (paper §1 motivation).
//
// RES's pitch is that always-on recording is too expensive for production.
// To regenerate that motivation quantitatively (bench T5), the VM can run
// with one of these recorders attached:
//  - FullMemoryRecorder: logs every shared-memory operation with its value —
//    the SMP-ReVirt-style "make multicore executions reproducible" regime.
//  - InputScheduleRecorder: logs only external inputs and scheduling
//    decisions — the ODR-style output-deterministic regime.
// A Recorder is the VM's only observer: tests take their ground truth
// (blocks entered, inputs consumed) from one, never RES itself.
#ifndef RES_VM_RECORDER_H_
#define RES_VM_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/cfg/cfg.h"

namespace res {

struct MemoryOpRecord {
  uint32_t thread;
  uint64_t address;
  int64_t value;
  bool is_write;
};

struct ScheduleRecord {
  uint32_t thread;
  uint32_t run_length;  // instructions executed before the next switch
};

struct InputRecord {
  uint32_t thread;
  int64_t channel;
  int64_t value;
};

class Recorder {
 public:
  virtual ~Recorder() = default;
  virtual void OnMemoryOp(uint32_t thread, uint64_t addr, int64_t value,
                          bool is_write) {}
  virtual void OnInput(uint32_t thread, int64_t channel, int64_t value) {}
  virtual void OnSchedule(uint32_t thread) {}
  // `thread` entered `block`: its first block, a branch, call or return.
  virtual void OnBlock(uint32_t /*thread*/, BlockRef /*block*/) {}
  virtual size_t LogBytes() const = 0;
};

class FullMemoryRecorder : public Recorder {
 public:
  void OnMemoryOp(uint32_t thread, uint64_t addr, int64_t value,
                  bool is_write) override {
    memory_ops_.push_back(MemoryOpRecord{thread, addr, value, is_write});
  }
  void OnInput(uint32_t thread, int64_t channel, int64_t value) override {
    inputs_.push_back(InputRecord{thread, channel, value});
  }
  void OnSchedule(uint32_t thread) override { AppendSchedule(thread); }
  size_t LogBytes() const override {
    return memory_ops_.size() * sizeof(MemoryOpRecord) +
           inputs_.size() * sizeof(InputRecord) +
           schedule_.size() * sizeof(ScheduleRecord);
  }
  const std::vector<MemoryOpRecord>& memory_ops() const { return memory_ops_; }

 protected:
  void AppendSchedule(uint32_t thread) {
    if (!schedule_.empty() && schedule_.back().thread == thread) {
      ++schedule_.back().run_length;
    } else {
      schedule_.push_back(ScheduleRecord{thread, 1});
    }
  }
  std::vector<MemoryOpRecord> memory_ops_;
  std::vector<InputRecord> inputs_;
  std::vector<ScheduleRecord> schedule_;
};

class InputScheduleRecorder : public Recorder {
 public:
  void OnInput(uint32_t thread, int64_t channel, int64_t value) override {
    inputs_.push_back(InputRecord{thread, channel, value});
  }
  void OnSchedule(uint32_t thread) override {
    if (!schedule_.empty() && schedule_.back().thread == thread) {
      ++schedule_.back().run_length;
    } else {
      schedule_.push_back(ScheduleRecord{thread, 1});
    }
  }
  size_t LogBytes() const override {
    return inputs_.size() * sizeof(InputRecord) +
           schedule_.size() * sizeof(ScheduleRecord);
  }
  const std::vector<InputRecord>& inputs() const { return inputs_; }

 private:
  std::vector<InputRecord> inputs_;
  std::vector<ScheduleRecord> schedule_;
};

}  // namespace res

#endif  // RES_VM_RECORDER_H_
