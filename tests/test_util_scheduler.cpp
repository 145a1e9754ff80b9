// SimScheduler / PeriodicTimer / OneShotTimer.
#include <gtest/gtest.h>

#include "util/scheduler.hpp"
#include "util/timer.hpp"

namespace mk {
namespace {

TEST(SimScheduler, RunsEventsInTimeOrder) {
  SimScheduler sched;
  std::vector<int> order;
  sched.schedule_at(TimePoint{300}, [&] { order.push_back(3); });
  sched.schedule_at(TimePoint{100}, [&] { order.push_back(1); });
  sched.schedule_at(TimePoint{200}, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().us, 300);
}

TEST(SimScheduler, EqualTimesRunFifo) {
  SimScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(TimePoint{100}, [&, i] { order.push_back(i); });
  }
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimScheduler, CancelPreventsExecution) {
  SimScheduler sched;
  bool ran = false;
  TimerId id = sched.schedule_after(msec(10), [&] { ran = true; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run_all();
  EXPECT_FALSE(ran);
}

TEST(SimScheduler, RunUntilAdvancesClockEvenWithoutEvents) {
  SimScheduler sched;
  sched.run_until(TimePoint{5000});
  EXPECT_EQ(sched.now().us, 5000);
}

TEST(SimScheduler, RunUntilDoesNotRunLaterEvents) {
  SimScheduler sched;
  bool ran = false;
  sched.schedule_at(TimePoint{1000}, [&] { ran = true; });
  sched.run_until(TimePoint{999});
  EXPECT_FALSE(ran);
  sched.run_until(TimePoint{1000});
  EXPECT_TRUE(ran);
}

TEST(SimScheduler, PastSchedulingClampsToNow) {
  SimScheduler sched;
  sched.run_until(TimePoint{100});
  bool ran = false;
  sched.schedule_at(TimePoint{50}, [&] { ran = true; });
  sched.run_until(TimePoint{100});
  EXPECT_TRUE(ran);
}

TEST(SimScheduler, EventsCanScheduleMoreEvents) {
  SimScheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sched.schedule_after(msec(1), chain);
  };
  sched.schedule_after(msec(1), chain);
  sched.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now().us, 5000);
}

TEST(SimScheduler, RunAllGuardsAgainstRunaway) {
  SimScheduler sched;
  std::function<void()> forever = [&] { sched.schedule_after(usec(1), forever); };
  sched.schedule_after(usec(1), forever);
  EXPECT_EQ(sched.run_all(1000), 1000u);
}

TEST(PeriodicTimer, FiresRepeatedly) {
  SimScheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, msec(100), [&] { ++fires; });
  timer.start();
  sched.run_until(TimePoint{1000 * 1000});
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimer, StopHaltsFiring) {
  SimScheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, msec(100), [&] { ++fires; });
  timer.start();
  sched.run_for(msec(250));
  timer.stop();
  sched.run_for(msec(500));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, JitterStaysWithinBound) {
  SimScheduler sched;
  std::vector<std::int64_t> at;
  PeriodicTimer timer(sched, msec(100), [&] { at.push_back(sched.now().us); },
                      /*jitter=*/0.5, /*seed=*/3);
  timer.start();
  sched.run_for(sec(2));
  ASSERT_GE(at.size(), 10u);
  std::int64_t prev = 0;
  for (std::int64_t t : at) {
    std::int64_t gap = t - prev;
    EXPECT_GE(gap, 50000);   // >= interval * (1 - jitter)
    EXPECT_LE(gap, 100000);  // <= interval
    prev = t;
  }
}

TEST(PeriodicTimer, CallbackMayStopTimer) {
  SimScheduler sched;
  int fires = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer(sched, msec(10), [&] {
    if (++fires == 3) self->stop();
  });
  self = &timer;
  timer.start();
  sched.run_for(sec(1));
  EXPECT_EQ(fires, 3);
}

TEST(OneShotTimer, ReschedulingCancelsPrevious) {
  SimScheduler sched;
  int which = 0;
  OneShotTimer timer(sched);
  timer.schedule(msec(10), [&] { which = 1; });
  timer.schedule(msec(20), [&] { which = 2; });
  sched.run_for(msec(100));
  EXPECT_EQ(which, 2);
}

TEST(OneShotTimer, DestructorCancels) {
  SimScheduler sched;
  bool ran = false;
  {
    OneShotTimer timer(sched);
    timer.schedule(msec(10), [&] { ran = true; });
  }
  sched.run_for(msec(100));
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace mk
