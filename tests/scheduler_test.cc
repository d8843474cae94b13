#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/vm/scheduler.h"
#include "src/vm/scheduler_spec.h"

namespace res {
namespace {

// Drives a scheduler for `steps` decisions over a fixed runnable set and
// returns the picked tid sequence.
std::vector<uint32_t> Trace(Scheduler* s, const std::vector<uint32_t>& runnable,
                            size_t steps, uint32_t start = 0) {
  std::vector<uint32_t> picks;
  uint32_t current = start;
  for (size_t i = 0; i < steps; ++i) {
    current = s->Pick(runnable, current);
    picks.push_back(current);
  }
  return picks;
}

TEST(RoundRobinSchedulerTest, QuantumBoundaries) {
  // The starting thread is "current" without having been picked, so it gets
  // quantum picks; after the first switch every thread runs for exactly
  // quantum+1 consecutive picks (the switch decision itself resets ticks_).
  RoundRobinScheduler rr(/*quantum=*/3);
  std::vector<uint32_t> picks = Trace(&rr, {0, 1, 2}, 12);
  std::vector<uint32_t> want = {0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0};
  EXPECT_EQ(picks, want);
}

TEST(RoundRobinSchedulerTest, WrapsToLowestTid) {
  RoundRobinScheduler rr(/*quantum=*/0);
  EXPECT_EQ(Trace(&rr, {1, 3, 5}, 4, /*start=*/5),
            (std::vector<uint32_t>{1, 3, 5, 1}));
}

TEST(RoundRobinSchedulerTest, SwitchesImmediatelyWhenCurrentNotRunnable) {
  RoundRobinScheduler rr(/*quantum=*/100);
  // Thread 1 blocked: even mid-quantum the scheduler must move on.
  EXPECT_EQ(rr.Pick({0, 2}, /*current=*/1), 2u);
}

TEST(RoundRobinSchedulerTest, GrantedStepsMatchPickingEveryStep) {
  // The runnable set per step: thread 2 appears in the middle of thread 1's
  // grant (a spawn), and drops out in the middle of its own (it blocks).
  auto runnable_at = [](size_t step) {
    if (step >= 6 && step < 11) {
      return std::vector<uint32_t>{0, 1, 2};
    }
    return std::vector<uint32_t>{0, 1};
  };
  const size_t kSteps = 30;

  RoundRobinScheduler every_step(/*quantum=*/4);
  std::vector<uint32_t> want;
  uint32_t current = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    current = every_step.Pick(runnable_at(i), current);
    want.push_back(current);
  }

  // Drive a second one the way the VM does: a Pick starts a turn of
  // 1 + Grant() steps; a runnable-set change ends the turn early; the
  // granted steps taken are reported before the next Pick.
  RoundRobinScheduler granted(/*quantum=*/4);
  std::vector<uint32_t> got;
  size_t picks = 0;
  uint64_t turn_length = 0;
  uint64_t turn_left = 0;
  current = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    const bool changed = i > 0 && runnable_at(i) != runnable_at(i - 1);
    if (turn_left == 0 || changed) {
      if (turn_length - turn_left > 1) {
        granted.OnGrantedSteps(turn_length - turn_left - 1);
      }
      current = granted.Pick(runnable_at(i), current);
      ++picks;
      turn_length = turn_left = 1 + granted.Grant();
    }
    --turn_left;
    got.push_back(current);
  }
  EXPECT_EQ(got, want);
  EXPECT_LT(picks, kSteps / 3);
}

TEST(SchedulerGrantTest, OnlyRoundRobinGrants) {
  PctScheduler pct(/*seed=*/1, /*depth=*/3, /*expected_steps=*/64);
  RandomScheduler random(/*seed=*/1, /*switch_permille=*/0);
  DelayInjectionScheduler delay(/*seed=*/1, /*permille=*/0);
  SliceScheduler slice({{0, 100}});
  Scheduler* const others[] = {&pct, &random, &delay, &slice};
  for (Scheduler* s : others) {
    uint32_t current = 0;
    for (int i = 0; i < 8; ++i) {
      current = s->Pick({0, 1}, current);
      EXPECT_EQ(s->Grant(), 0u) << "pick " << i;
    }
  }
  RoundRobinScheduler rr(/*quantum=*/4);
  rr.Pick({0, 1}, 0);
  EXPECT_EQ(rr.Grant(), 3u);  // the rest of thread 0's quantum
}

TEST(PctSchedulerTest, SameSeedSameSchedule) {
  PctScheduler a(/*seed=*/7, /*depth=*/3, /*expected_steps=*/64);
  PctScheduler b(/*seed=*/7, /*depth=*/3, /*expected_steps=*/64);
  EXPECT_EQ(Trace(&a, {0, 1, 2}, 100), Trace(&b, {0, 1, 2}, 100));
}

TEST(PctSchedulerTest, DifferentSeedsDiversify) {
  // Not every seed pair diverges, but across a handful at least one must —
  // otherwise the priorities are not seed-derived at all.
  PctScheduler base(/*seed=*/1, /*depth=*/3, /*expected_steps=*/64);
  std::vector<uint32_t> ref = Trace(&base, {0, 1, 2}, 100);
  bool any_diff = false;
  for (uint64_t seed = 2; seed <= 6; ++seed) {
    PctScheduler other(seed, /*depth=*/3, /*expected_steps=*/64);
    if (Trace(&other, {0, 1, 2}, 100) != ref) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(PctSchedulerTest, HighestPriorityRunsUntilChangePoint) {
  // With depth=1 there are no change points: the same (highest-priority)
  // thread must run every single decision.
  PctScheduler pct(/*seed=*/3, /*depth=*/1, /*expected_steps=*/64);
  std::vector<uint32_t> picks = Trace(&pct, {0, 1, 2}, 50);
  for (uint32_t t : picks) {
    EXPECT_EQ(t, picks.front());
  }
}

TEST(PctSchedulerTest, ChangePointDemotesRunningThread) {
  // With depth>1 and a tiny horizon, every change point fires early; after
  // all demotions the schedule must have run more than one distinct thread.
  PctScheduler pct(/*seed=*/5, /*depth=*/4, /*expected_steps=*/8);
  std::vector<uint32_t> picks = Trace(&pct, {0, 1, 2}, 64);
  std::set<uint32_t> distinct(picks.begin(), picks.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(DelayInjectionSchedulerTest, SameSeedSameSchedule) {
  DelayInjectionScheduler a(/*seed=*/9, /*permille=*/400, /*max_delay=*/3);
  DelayInjectionScheduler b(/*seed=*/9, /*permille=*/400, /*max_delay=*/3);
  EXPECT_EQ(Trace(&a, {0, 1, 2}, 200), Trace(&b, {0, 1, 2}, 200));
}

TEST(DelayInjectionSchedulerTest, ZeroPermilleIsPlainRoundRobin) {
  DelayInjectionScheduler delay(/*seed=*/9, /*permille=*/0, /*max_delay=*/3,
                                /*quantum=*/2);
  RoundRobinScheduler rr(/*quantum=*/2);
  EXPECT_EQ(Trace(&delay, {0, 1, 2}, 60), Trace(&rr, {0, 1, 2}, 60));
}

TEST(DelayInjectionSchedulerTest, SoleRunnableThreadNeverStarves) {
  DelayInjectionScheduler delay(/*seed=*/1, /*permille=*/1000, /*max_delay=*/4);
  // permille=1000 wants a delay at every opportunity, but with one runnable
  // thread the delay must be abandoned, not spun on.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(delay.Pick({2}, /*current=*/2), 2u);
  }
}

TEST(SliceSchedulerTest, ExhaustionIsNotDivergence) {
  SliceScheduler s({{0, 2}});
  EXPECT_EQ(s.Pick({0, 1}, 0), 0u);
  EXPECT_EQ(s.Pick({0, 1}, 0), 0u);
  // Script exhausted: the current thread keeps running; that is not a
  // divergence.
  EXPECT_EQ(s.Pick({0, 1}, 0), 0u);
  EXPECT_EQ(s.Pick({1}, 0), 1u);
}

TEST(SliceSchedulerTest, UnavailableScriptedThreadIsDivergence) {
  SliceScheduler s({{3, 5}});
  EXPECT_EQ(s.Pick({0, 1}, 0), Scheduler::kDiverged);
  // Nothing ran, so asking again gives the same answer.
  EXPECT_EQ(s.Pick({0, 1}, 0), Scheduler::kDiverged);
}

// --- Spec parsing ---

TEST(SchedulerSpecTest, ParsesDefaultsAndKnobs) {
  auto bare = ParseSchedulerSpec("rr");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().policy, "rr");
  EXPECT_EQ(bare.value().quantum, 16u);

  auto pct = ParseSchedulerSpec("pct:seed=7,depth=2,steps=128");
  ASSERT_TRUE(pct.ok());
  EXPECT_EQ(pct.value().seed, 7u);
  EXPECT_EQ(pct.value().depth, 2u);
  EXPECT_EQ(pct.value().steps, 128u);
}

TEST(SchedulerSpecTest, ToStringRoundTrips) {
  for (const char* text :
       {"rr:quantum=4", "random:seed=9,permille=350",
        "pct:seed=2,depth=3,steps=64",
        "delay:seed=5,permille=250,max_delay=2,quantum=8"}) {
    auto spec = ParseSchedulerSpec(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto again = ParseSchedulerSpec(spec.value().ToString());
    ASSERT_TRUE(again.ok()) << spec.value().ToString();
    EXPECT_EQ(spec.value(), again.value()) << text;
  }
}

TEST(SchedulerSpecTest, ErrorsAreStatusNotCrash) {
  for (const char* text :
       {"", "nosuch", "nosuch:seed=1", "rr:seed=1", "rr:quantum",
        "rr:quantum=abc", "rr:quantum=", "random:permille=1001",
        "pct:depth=0", "pct:steps=0", "delay:max_delay=0",
        "rr:quantum=1,quantum", "pct:depth=4294967296",
        "delay:max_delay=4294967296", "pct:depth=4294967295", "pct:depth=65",
        "rr:quantum=4294967296", "delay:quantum=4294967296"}) {
    auto spec = ParseSchedulerSpec(text);
    EXPECT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // The bounds themselves parse.
  EXPECT_EQ(ParseSchedulerSpec("pct:depth=64").value().depth, kMaxPctDepth);
  EXPECT_EQ(ParseSchedulerSpec("delay:max_delay=4294967295").value().max_delay,
            4294967295u);
}

TEST(SchedulerSpecTest, ReplaySchedulesAreNotSpecPolicies) {
  for (const char* name : {"scripted", "slice"}) {
    auto parsed = ParseSchedulerSpec(name);
    EXPECT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(SchedulerSpecTest, EveryRegisteredPolicyIsConstructible) {
  for (const SchedulerPolicyInfo& info : RegisteredSchedulerPolicies()) {
    SchedulerSpec spec;
    spec.policy = std::string(info.name);
    auto made = MakeScheduler(spec);
    ASSERT_TRUE(made.ok()) << info.name;
    EXPECT_NE(made.value(), nullptr) << info.name;
    // The catalog string form must parse back to the same policy.
    auto parsed = ParseSchedulerSpec(info.name);
    ASSERT_TRUE(parsed.ok()) << info.name;
    EXPECT_EQ(parsed.value().policy, info.name);
  }
  EXPECT_EQ(RegisteredSchedulerPolicies().size(), 4u);  // rr, random, pct, delay
}

TEST(SchedulerSpecTest, ExplicitSeedOverridesSpecSeed) {
  auto spec = ParseSchedulerSpec("pct:seed=1,depth=3,steps=64");
  ASSERT_TRUE(spec.ok());
  auto a = MakeScheduler(spec.value(), /*seed=*/1);
  auto b = MakeScheduler(spec.value(), /*seed=*/99);
  auto c = MakeScheduler(spec.value());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  std::vector<uint32_t> ta = Trace(a.value().get(), {0, 1, 2}, 100);
  std::vector<uint32_t> tc = Trace(c.value().get(), {0, 1, 2}, 100);
  EXPECT_EQ(ta, tc);  // spec.seed == 1 == explicit seed 1
  // seed=99 need not differ on every runnable set, but the PCT priorities
  // above were chosen so it does (guarded by DifferentSeedsDiversify).
}

}  // namespace
}  // namespace res
