// External-input modeling.
//
// kInput is the IR's stand-in for every nondeterministic environment
// interaction (network packets, file reads, time). In production these are
// NOT recorded (the paper's premise); the VM reports every consumed value
// to an attached Recorder (src/vm/recorder.h), which is how tests establish
// ground truth and what the ODR-style recording baseline logs.
#ifndef RES_VM_INPUT_H_
#define RES_VM_INPUT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace res {

class InputProvider {
 public:
  virtual ~InputProvider() = default;
  // Next value on `channel` for `thread`. Must always succeed (production
  // inputs never "run out"; providers define the exhausted behaviour).
  virtual int64_t Next(uint32_t thread, int64_t channel) = 0;
};

// Scripted per-channel queues; returns `fallback` when a queue is exhausted.
class QueueInputProvider : public InputProvider {
 public:
  explicit QueueInputProvider(int64_t fallback = 0) : fallback_(fallback) {}
  void Push(int64_t channel, int64_t value) { queues_[channel].push_back(value); }
  void PushAll(int64_t channel, const std::vector<int64_t>& values) {
    for (int64_t v : values) {
      Push(channel, v);
    }
  }
  int64_t Next(uint32_t thread, int64_t channel) override {
    auto it = queues_.find(channel);
    if (it == queues_.end() || it->second.empty()) {
      return fallback_;
    }
    int64_t v = it->second.front();
    it->second.pop_front();
    return v;
  }

 private:
  std::map<int64_t, std::deque<int64_t>> queues_;
  int64_t fallback_;
};

// Replays a journal of per-thread input values (the suffix's input trace):
// each thread consumes its own FIFO. Falls back to 0 past the end.
class ReplayInputProvider : public InputProvider {
 public:
  void Push(uint32_t thread, int64_t value) { queues_[thread].push_back(value); }
  int64_t Next(uint32_t thread, int64_t channel) override {
    auto it = queues_.find(thread);
    if (it == queues_.end() || it->second.empty()) {
      return 0;
    }
    int64_t v = it->second.front();
    it->second.pop_front();
    return v;
  }

 private:
  std::map<uint32_t, std::deque<int64_t>> queues_;
};

}  // namespace res

#endif  // RES_VM_INPUT_H_
