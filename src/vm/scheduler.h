// Thread schedulers.
//
// The VM executes one instruction at a time under sequential consistency
// (the paper's stated memory model); the scheduler picks which runnable
// thread steps next. Five policies:
//  - RoundRobinScheduler: fixed quantum, deterministic. The only policy
//    that grants steps (Scheduler::Grant): the VM asks it once a quantum.
//  - RandomScheduler: seeded preemption — the workload corpus uses it to
//    make concurrency bugs actually fire.
//  - PctScheduler: randomized-priority (PCT-style) scheduling with a fixed
//    number of seeded priority change points — schedule-space coverage with
//    a probabilistic bug-depth guarantee.
//  - DelayInjectionScheduler: round-robin with seeded extra yields injected
//    at schedule points — perturbs an otherwise-fair schedule.
//  - SliceScheduler: instruction-count slices; this is how a synthesized
//    RES suffix is replayed deterministically.
//
// Every policy is a deterministic function of its constructor arguments:
// the same (policy, knobs, seed) replays the same interleaving. The string
// form ("pct:seed=7,depth=3") and the policy registry of the four
// exploration policies live in src/vm/scheduler_spec.h; the schedule-space
// sweep driver that mints coredump fixtures from policy x seed grids lives
// in src/scenario/.
#ifndef RES_VM_SCHEDULER_H_
#define RES_VM_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/hash.h"
#include "src/support/rng.h"

namespace res {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Pick's answer when a replay schedule names a thread that cannot run:
  // the replay has diverged, and the VM stops with kScheduleDiverged.
  static constexpr uint32_t kDiverged = UINT32_MAX;

  // Picks the next thread among `runnable` (non-empty, ascending tids), or
  // returns kDiverged. `current` is the previously running thread (may not
  // be runnable).
  virtual uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) = 0;

  // The grant: how many steps after the one it was just picked for the
  // thread Pick returned may take with no Pick call. Each must be a step
  // Pick would have given that thread, called with the same runnable set.
  // The VM takes k of them, fewer than granted when the runnable set
  // changes, and reports k > 0 through OnGrantedSteps before its next Pick;
  // the scheduler must then be where k Pick calls returning that thread
  // would have left it. Only round-robin grants steps.
  virtual uint64_t Grant() const { return 0; }
  virtual void OnGrantedSteps(uint64_t /*steps*/) {}
};

// Runs the current thread for `quantum` more picks after the one that
// switched to it, then moves to the next runnable tid. Its grant is the
// rest of the quantum: the picks that would return the current thread
// anyway, folded into ticks_ when the VM reports them.
class RoundRobinScheduler : public Scheduler {
 public:
  explicit RoundRobinScheduler(uint32_t quantum = 16) : quantum_(quantum) {}

  uint64_t Grant() const override { return quantum_ - ticks_; }
  void OnGrantedSteps(uint64_t steps) override {
    ticks_ += static_cast<uint32_t>(steps);
  }

  uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) override {
    bool current_runnable = false;
    for (uint32_t t : runnable) {
      if (t == current) {
        current_runnable = true;
        break;
      }
    }
    if (current_runnable && ticks_ < quantum_) {
      ++ticks_;
      return current;
    }
    ticks_ = 0;
    // Next runnable tid after `current`, wrapping.
    for (uint32_t t : runnable) {
      if (t > current) {
        return t;
      }
    }
    return runnable.front();
  }

 private:
  uint32_t quantum_;
  uint32_t ticks_ = 0;
};

class RandomScheduler : public Scheduler {
 public:
  // switch_permille: probability (out of 1000) of preempting at each step.
  explicit RandomScheduler(uint64_t seed, uint32_t switch_permille = 100)
      : rng_(seed), switch_permille_(switch_permille) {}

  uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) override {
    bool current_runnable = false;
    for (uint32_t t : runnable) {
      if (t == current) {
        current_runnable = true;
        break;
      }
    }
    if (current_runnable && !rng_.NextChance(switch_permille_, 1000)) {
      return current;
    }
    return runnable[rng_.NextBelow(runnable.size())];
  }

 private:
  Rng rng_;
  uint32_t switch_permille_;
};

// PCT-style randomized-priority scheduling (Burckhardt et al., "A Randomized
// Scheduler with Probabilistic Guarantees of Finding Bugs"). Every thread
// gets a deterministic seed-derived base priority; the highest-priority
// runnable thread always runs. `depth - 1` change points are sampled from
// the first `expected_steps` schedule decisions: when one is crossed, the
// currently running thread is demoted below every base priority, forcing
// the next-highest thread to proceed — exactly the ordering perturbation a
// depth-d concurrency bug needs. Deterministic function of
// (seed, depth, expected_steps): same arguments, same interleaving.
class PctScheduler : public Scheduler {
 public:
  explicit PctScheduler(uint64_t seed, uint32_t depth = 3,
                        uint64_t expected_steps = 4096)
      : seed_(seed) {
    Rng rng(seed);
    // depth-1 change points, sampled over the expected schedule horizon.
    const uint32_t points = depth > 0 ? depth - 1 : 0;
    for (uint32_t i = 0; i < points; ++i) {
      change_points_.push_back(1 + rng.NextBelow(expected_steps));
    }
    std::sort(change_points_.begin(), change_points_.end());
  }

  uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) override {
    ++decisions_;
    while (next_change_ < change_points_.size() &&
           decisions_ > change_points_[next_change_]) {
      // Demote whoever ran last below every base priority. Change points on
      // the very first decision (no thread has run yet) are consumed inert.
      if (decisions_ > 1) {
        Demote(last_picked_);
      }
      ++next_change_;
    }
    uint32_t best = runnable.front();
    int64_t best_pri = Priority(best);
    for (uint32_t t : runnable) {
      if (int64_t pri = Priority(t); pri > best_pri) {
        best = t;
        best_pri = pri;
      }
    }
    last_picked_ = best;
    return best;
  }

 private:
  // Base priorities are positive seed-derived hashes (ties broken by the
  // ascending scan order above — deterministic); demotions are negative and
  // strictly decreasing, so a demoted thread ranks below every base
  // priority and below earlier demotions.
  int64_t Priority(uint32_t tid) const {
    for (const auto& [t, pri] : demoted_) {
      if (t == tid) {
        return pri;
      }
    }
    return static_cast<int64_t>(HashCombine(HashU64(seed_), HashU64(tid)) >> 1);
  }

  void Demote(uint32_t tid) {
    for (auto& [t, pri] : demoted_) {
      if (t == tid) {
        pri = next_demoted_pri_--;
        return;
      }
    }
    demoted_.emplace_back(tid, next_demoted_pri_--);
  }

  uint64_t seed_;
  std::vector<uint64_t> change_points_;  // decision indices, ascending
  size_t next_change_ = 0;
  uint64_t decisions_ = 0;
  uint32_t last_picked_ = 0;
  std::vector<std::pair<uint32_t, int64_t>> demoted_;
  int64_t next_demoted_pri_ = -1;
};

// Round-robin with seeded delay injection: at each schedule point, with
// probability `permille`/1000, the thread the fair policy would run is
// instead held back for 1..max_delay consecutive decisions while the other
// runnable threads proceed — the NodeFz-style "extra yields at schedule
// points" perturbation. When the delayed thread is the only runnable one
// the delay is abandoned (a delay must perturb ordering, never livelock).
// Deterministic function of (seed, permille, max_delay, quantum).
class DelayInjectionScheduler : public Scheduler {
 public:
  explicit DelayInjectionScheduler(uint64_t seed, uint32_t permille = 250,
                                   uint32_t max_delay = 4, uint32_t quantum = 4)
      : rng_(seed), permille_(permille), max_delay_(max_delay),
        round_robin_(quantum) {}

  uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) override {
    uint32_t want = round_robin_.Pick(runnable, current);
    if (delay_left_ == 0 && permille_ > 0 && runnable.size() > 1 &&
        rng_.NextChance(permille_, 1000)) {
      delay_left_ = 1 + static_cast<uint32_t>(rng_.NextBelow(max_delay_));
      delayed_tid_ = want;
    }
    if (delay_left_ > 0) {
      if (want != delayed_tid_) {
        // The fair policy moved on by itself; the delay has served its
        // purpose.
        delay_left_ = 0;
        return want;
      }
      // Yield to the next runnable thread after the delayed one, wrapping.
      for (uint32_t t : runnable) {
        if (t > delayed_tid_) {
          --delay_left_;
          return t;
        }
      }
      for (uint32_t t : runnable) {
        if (t != delayed_tid_) {
          --delay_left_;
          return t;
        }
      }
      delay_left_ = 0;  // delayed thread is the only runnable one
    }
    return want;
  }

 private:
  Rng rng_;
  uint32_t permille_;
  uint32_t max_delay_;
  RoundRobinScheduler round_robin_;
  uint32_t delay_left_ = 0;
  uint32_t delayed_tid_ = 0;
};

// Instruction-count schedule slices, the replay-side counterpart of a
// synthesized suffix's schedule: run slices_[i].first for slices_[i].second
// instruction steps, then move on. Used to replay partial trailing blocks
// and the final trap instruction precisely. Once the script is exhausted the
// current thread keeps running (the replay trap fires before that matters);
// an unavailable scripted thread is a divergence (Pick returns kDiverged).
class SliceScheduler : public Scheduler {
 public:
  using Slice = std::pair<uint32_t, uint64_t>;  // (tid, instruction count)
  explicit SliceScheduler(std::vector<Slice> slices) : slices_(std::move(slices)) {}

  uint32_t Pick(const std::vector<uint32_t>& runnable, uint32_t current) override {
    while (pos_ < slices_.size() && used_ >= slices_[pos_].second) {
      ++pos_;
      used_ = 0;
    }
    if (pos_ >= slices_.size()) {
      for (uint32_t t : runnable) {
        if (t == current) {
          return current;
        }
      }
      return runnable.front();
    }
    uint32_t want = slices_[pos_].first;
    for (uint32_t t : runnable) {
      if (t == want) {
        ++used_;
        return want;
      }
    }
    return kDiverged;
  }

 private:
  std::vector<Slice> slices_;
  size_t pos_ = 0;
  uint64_t used_ = 0;
};

}  // namespace res

#endif  // RES_VM_SCHEDULER_H_
