// Tests for the discrete-event kernel: ordering, FIFO tie-breaks,
// cancellation, periodic processes, and the CPU cost model / accounting.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace roia::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{30}, [&] { fired.push_back(3); });
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{20}, [&] { fired.push_back(2); });
  SimTime at;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime{100}, [&fired, i] { fired.push_back(i); });
  }
  SimTime at;
  while (!q.empty()) q.pop(at)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.schedule(SimTime{5}, [&] { fired = true; });
  q.schedule(SimTime{6}, [] {});
  q.cancel(h);
  EXPECT_EQ(q.size(), 1u);
  SimTime at;
  q.pop(at)();
  EXPECT_FALSE(fired);
  EXPECT_EQ(at, SimTime{6});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelStaleHandleIsSafe) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime{1}, [] {});
  SimTime at;
  q.pop(at)();
  q.cancel(h);          // already fired
  q.cancel(EventHandle{});  // never valid
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime{1}, [] {});
  q.schedule(SimTime{9}, [] {});
  q.cancel(h);
  EXPECT_EQ(q.nextTime(), SimTime{9});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EmptyNextTimeIsMax) {
  EventQueue q;
  EXPECT_EQ(q.nextTime(), SimTime::max());
}

// Callbacks live in reused slab slots, so the cases below pin down what a
// reused slot must not do: let a stale handle reach the new event, or
// revive a cancelled event's heap entry.

TEST(EventQueueTest, StaleHandleDoesNotCancelEventInReusedSlot) {
  EventQueue q;
  const EventHandle fired = q.schedule(SimTime{1}, [] {});
  SimTime at;
  q.pop(at)();
  bool ran = false;
  const EventHandle reuse = q.schedule(SimTime{2}, [&] { ran = true; });
  ASSERT_EQ(reuse.slot, fired.slot);
  EXPECT_NE(reuse.seq, fired.seq);
  q.cancel(fired);  // stale: its event already fired
  ASSERT_EQ(q.size(), 1u);
  q.pop(at)();
  EXPECT_TRUE(ran);
  EXPECT_EQ(at, SimTime{2});

  // The same after a cancel: the cancelled handle must not reach the event
  // that took its slot over.
  const EventHandle cancelled = q.schedule(SimTime{3}, [] {});
  q.cancel(cancelled);
  ran = false;
  const EventHandle next = q.schedule(SimTime{4}, [&] { ran = true; });
  ASSERT_EQ(next.slot, cancelled.slot);
  q.cancel(cancelled);
  ASSERT_EQ(q.size(), 1u);
  q.pop(at)();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelledEntrySkippedWhenItsSlotHoldsAnEarlierEvent) {
  EventQueue q;
  std::vector<int> fired;
  const EventHandle late = q.schedule(SimTime{50}, [&] { fired.push_back(50); });
  q.schedule(SimTime{60}, [&] { fired.push_back(60); });
  q.cancel(late);
  EXPECT_EQ(q.size(), 1u);
  const EventHandle early = q.schedule(SimTime{10}, [&] { fired.push_back(10); });
  ASSERT_EQ(early.slot, late.slot);
  ASSERT_EQ(q.size(), 2u);
  SimTime at;
  q.pop(at)();
  EXPECT_EQ(at, SimTime{10});
  ASSERT_EQ(q.size(), 1u);
  // The dead entry at t=50 names the slot the t=10 event used; it must not
  // fire anything on its way out of the heap.
  EXPECT_EQ(q.nextTime(), SimTime{60});
  q.pop(at)();
  EXPECT_EQ(at, SimTime{60});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, (std::vector<int>{10, 60}));
}

TEST(EventQueueTest, CancelledEntrySkippedWhenItsSlotHoldsALaterEvent) {
  EventQueue q;
  std::vector<int> fired;
  const EventHandle early = q.schedule(SimTime{10}, [&] { fired.push_back(10); });
  q.schedule(SimTime{30}, [&] { fired.push_back(30); });
  q.cancel(early);
  EXPECT_EQ(q.size(), 1u);
  const EventHandle late = q.schedule(SimTime{50}, [&] { fired.push_back(50); });
  ASSERT_EQ(late.slot, early.slot);
  ASSERT_EQ(q.size(), 2u);
  // The dead entry at t=10 surfaces first and must be dropped, not fire the
  // t=50 callback early.
  EXPECT_EQ(q.nextTime(), SimTime{30});
  SimTime at;
  q.pop(at)();
  EXPECT_EQ(at, SimTime{30});
  ASSERT_EQ(q.size(), 1u);
  q.pop(at)();
  EXPECT_EQ(at, SimTime{50});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, (std::vector<int>{30, 50}));
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(q.schedule(SimTime{i}, [] {}));
  EXPECT_EQ(q.size(), 8u);
  q.cancel(handles[3]);
  q.cancel(handles[3]);  // twice: still one event gone
  q.cancel(handles[0]);
  EXPECT_EQ(q.size(), 6u);
  SimTime at;
  q.pop(at)();  // t=1: the cancelled t=0 entry is skipped
  EXPECT_EQ(at, SimTime{1});
  EXPECT_EQ(q.size(), 5u);
  q.cancel(handles[1]);  // already fired
  EXPECT_EQ(q.size(), 5u);
  q.schedule(SimTime{0}, [] {});  // reuses a freed slot
  EXPECT_EQ(q.size(), 6u);
  std::size_t popped = 0;
  while (!q.empty()) {
    q.pop(at)();
    ++popped;
  }
  EXPECT_EQ(popped, 6u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.nextTime(), SimTime::max());
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  std::vector<std::int64_t> times;
  sim.scheduleAt(SimTime{100}, [&] { times.push_back(sim.now().micros); });
  sim.scheduleAfter(SimDuration::microseconds(50), [&] { times.push_back(sim.now().micros); });
  sim.runAll();
  EXPECT_EQ(times, (std::vector<std::int64_t>{50, 100}));
  EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(SimulationTest, PastSchedulingClampsToNow) {
  Simulation sim;
  sim.scheduleAt(SimTime{100}, [] {});
  sim.runAll();
  bool fired = false;
  sim.scheduleAt(SimTime{10}, [&] { fired = true; });  // in the past
  sim.runAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(SimulationTest, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.scheduleAt(SimTime{10}, [&] { ++fired; });
  sim.scheduleAt(SimTime{20}, [&] { ++fired; });
  sim.scheduleAt(SimTime{30}, [&] { ++fired; });
  sim.runUntil(SimTime{20});
  EXPECT_EQ(fired, 2);        // events at exactly `until` run
  EXPECT_EQ(sim.now(), SimTime{20});
  sim.runUntil(SimTime{25});  // no events, clock still advances
  EXPECT_EQ(sim.now(), SimTime{25});
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.scheduleAfter(SimDuration::microseconds(10), recurse);
  };
  sim.scheduleAt(SimTime{0}, recurse);
  sim.runAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime{40});
}

TEST(SimulationTest, PeriodicFiresUntilStopped) {
  Simulation sim;
  int count = 0;
  sim.schedulePeriodic(SimDuration::milliseconds(10), [&](SimTime) { return ++count < 3; });
  sim.runUntil(SimTime{SimDuration::milliseconds(100).micros});
  EXPECT_EQ(count, 3);
}

TEST(SimulationTest, PeriodicCancelToken) {
  Simulation sim;
  int count = 0;
  auto token = sim.schedulePeriodic(SimDuration::milliseconds(10), [&](SimTime) {
    ++count;
    return true;
  });
  sim.runUntil(SimTime{SimDuration::milliseconds(35).micros});
  EXPECT_EQ(count, 3);
  Simulation::cancelPeriodic(token);
  sim.runUntil(SimTime{SimDuration::milliseconds(200).micros});
  EXPECT_EQ(count, 3);
}

TEST(CpuCostModelTest, ExactChargeWithoutNoise) {
  CpuCostModel cpu;
  EXPECT_EQ(cpu.charge(100.0).micros, 100);
  EXPECT_EQ(cpu.charge(0.4).micros, 0);  // rounds
  EXPECT_EQ(cpu.charge(0.6).micros, 1);
}

TEST(CpuCostModelTest, SpeedFactorScales) {
  CpuCostModel::Config config;
  config.speedFactor = 2.0;
  CpuCostModel fast(config);
  EXPECT_EQ(fast.charge(100.0).micros, 50);
  EXPECT_EQ(fast.chargeExact(100.0).micros, 50);
}

TEST(CpuCostModelTest, NoiseIsDeterministicPerSeed) {
  CpuCostModel::Config config;
  config.noiseAmplitude = 0.1;
  config.noiseSeed = 7;
  CpuCostModel a(config), b(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.charge(1000.0).micros, b.charge(1000.0).micros);
  }
}

TEST(CpuCostModelTest, NoiseAveragesToUnity) {
  CpuCostModel::Config config;
  config.noiseAmplitude = 0.1;
  config.noiseSeed = 3;
  CpuCostModel cpu(config);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(cpu.charge(1000.0).micros);
  EXPECT_NEAR(sum / trials, 1000.0, 5.0);
}

TEST(CpuCostModelTest, NeverNegative) {
  CpuCostModel::Config config;
  config.noiseAmplitude = 3.0;  // extreme
  CpuCostModel cpu(config);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(cpu.charge(5.0).micros, 0);
  }
}

TEST(CpuAccountTest, LoadReflectsBusyFraction) {
  CpuAccount acc(SimDuration::seconds(10));
  // 50% busy: 20 ms busy within a 40 ms interval.
  for (int i = 0; i < 10; ++i) {
    acc.recordTick(SimTime{i * 40000}, SimDuration::milliseconds(20),
                   SimDuration::milliseconds(40));
  }
  EXPECT_NEAR(acc.load(), 0.5, 1e-9);
  EXPECT_EQ(acc.ticks(), 10u);
  EXPECT_EQ(acc.totalBusy().micros, 200000);
}

TEST(CpuAccountTest, OverloadClampsToOne) {
  CpuAccount acc(SimDuration::seconds(10));
  acc.recordTick(SimTime{0}, SimDuration::milliseconds(80), SimDuration::milliseconds(40));
  EXPECT_DOUBLE_EQ(acc.load(), 1.0);
}

TEST(CpuAccountTest, WindowForgetsOldLoad) {
  CpuAccount acc(SimDuration::seconds(1));
  acc.recordTick(SimTime{0}, SimDuration::milliseconds(40), SimDuration::milliseconds(40));
  acc.recordTick(SimTime{5000000}, SimDuration::milliseconds(4), SimDuration::milliseconds(40));
  EXPECT_NEAR(acc.load(), 0.1, 1e-9);
}

}  // namespace
}  // namespace roia::sim
