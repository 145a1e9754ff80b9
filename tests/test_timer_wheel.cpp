// Hierarchical timing wheel (ISSUE 6): ordering, cascade boundaries,
// cancel-in-flight, zero-delay arms, overflow horizon, and randomized
// heap-vs-wheel parity at both the wheel and the SimScheduler level.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/scheduler.hpp"
#include "util/timer_wheel.hpp"

namespace mk {
namespace {

constexpr std::int64_t kTick = std::int64_t{1} << TimerWheel::kTickShift;
// Spans, in microseconds, of each wheel level's window.
constexpr std::int64_t kL0Span = kTick * TimerWheel::kSlots;
constexpr std::int64_t kL1Span = kL0Span * TimerWheel::kSlots;
constexpr std::int64_t kL2Span = kL1Span * TimerWheel::kSlots;
constexpr std::int64_t kL3Span = kL2Span * TimerWheel::kSlots;

/// Drains the wheel, returning the popped keys in fire order.
std::vector<TimerWheel::Key> drain(TimerWheel& wheel) {
  std::vector<TimerWheel::Key> out;
  TimerWheel::Key key;
  std::function<void()> fn;
  while (wheel.pop(key, fn)) {
    out.push_back(key);
    if (fn) fn();
  }
  return out;
}

TEST(TimerWheel, PopsInTimeThenSeqOrder) {
  TimerWheel wheel;
  wheel.insert(300, 1, [] {});
  wheel.insert(100, 2, [] {});
  wheel.insert(100, 3, [] {});
  wheel.insert(200, 4, [] {});
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], (TimerWheel::Key{100, 2}));
  EXPECT_EQ(keys[1], (TimerWheel::Key{100, 3}));
  EXPECT_EQ(keys[2], (TimerWheel::Key{200, 4}));
  EXPECT_EQ(keys[3], (TimerWheel::Key{300, 1}));
}

TEST(TimerWheel, ZeroDelayArmFiresImmediately) {
  TimerWheel wheel;
  // Simulate "schedule at now" after the wheel has advanced: pop an entry to
  // move the cursor, then arm at the already-reached time.
  wheel.insert(5 * kTick, 1, [] {});
  TimerWheel::Key key;
  std::function<void()> fn;
  ASSERT_TRUE(wheel.pop(key, fn));
  wheel.insert(5 * kTick, 2, [] {});  // same-tick re-arm
  wheel.insert(0, 3, [] {});          // behind the cursor entirely
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  // The stale deadline still fires first: per-slot ordering is by (us, seq).
  EXPECT_EQ(keys[0], (TimerWheel::Key{0, 3}));
  EXPECT_EQ(keys[1], (TimerWheel::Key{5 * kTick, 2}));
}

TEST(TimerWheel, CascadeAcrossEveryLevelBoundary) {
  // One entry per level, each just past the previous level's horizon, plus
  // one just *inside* each boundary — exercises slot placement and the
  // cascade path at all three level crossings.
  TimerWheel wheel;
  std::vector<std::int64_t> times = {
      kL0Span - kTick, kL0Span,          // level 0/1 edge
      kL1Span - kTick, kL1Span,          // level 1/2 edge
      kL2Span - kTick, kL2Span,          // level 2/3 edge
      kL3Span - kTick,                   // deep level 3
  };
  std::uint64_t seq = 1;
  for (std::int64_t t : times) wheel.insert(t, seq++, [] {});
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(keys[i].us, times[i]) << "position " << i;
  }
}

TEST(TimerWheel, FarFutureOverflowsAndStillFiresInOrder)
{
  TimerWheel wheel;
  const std::int64_t never = sec(1'000'000'000).count();  // fault-plan sentinel
  wheel.insert(never, 1, [] {});
  wheel.insert(kTick, 2, [] {});
  wheel.insert(never - 1, 3, [] {});
  EXPECT_EQ(wheel.size(), 3u);
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq, 2u);
  EXPECT_EQ(keys[1].seq, 3u);
  EXPECT_EQ(keys[2].seq, 1u);
}

TEST(TimerWheel, CancelRemovesPendingEntries) {
  TimerWheel wheel;
  wheel.insert(100, 1, [] {});
  wheel.insert(kL1Span + 5, 2, [] {});                       // level 2
  wheel.insert(sec(1'000'000'000).count(), 3, [] {});        // overflow
  EXPECT_TRUE(wheel.cancel(2));
  EXPECT_TRUE(wheel.cancel(3));
  EXPECT_FALSE(wheel.cancel(3));  // second cancel is a no-op
  EXPECT_FALSE(wheel.cancel(99));
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].seq, 1u);
}

TEST(TimerWheel, CancelInFlightFromACallback) {
  // A firing callback cancels a peer armed for the same tick and a later one:
  // neither must fire, and the wheel must stay consistent.
  TimerWheel wheel;
  std::vector<std::uint64_t> fired;
  wheel.insert(100, 1, [&] {
    wheel.cancel(2);
    wheel.cancel(3);
  });
  wheel.insert(100, 2, [&] { fired.push_back(2); });
  wheel.insert(5000, 3, [&] { fired.push_back(3); });
  wheel.insert(5000, 4, [&] { fired.push_back(4); });
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[1].seq, 4u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{4}));
}

TEST(TimerWheel, RandomizedParityAgainstSortedReference) {
  Rng rng(1234);
  TimerWheel wheel;
  std::vector<TimerWheel::Key> pending;  // armed, not yet popped or canceled
  std::vector<TimerWheel::Key> expect;   // everything that should fire
  std::uint64_t seq = 1;
  std::int64_t base = 0;
  // Interleave pops with bursts of arms/cancels across all horizons.
  std::vector<TimerWheel::Key> got;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::int64_t horizon = 0;
      switch (rng.next_u64() % 4) {
        case 0: horizon = kL0Span; break;
        case 1: horizon = kL1Span; break;
        case 2: horizon = kL2Span; break;
        default: horizon = 4 * kL3Span; break;  // forces overflow sometimes
      }
      std::int64_t at =
          base + static_cast<std::int64_t>(rng.next_u64() % horizon);
      wheel.insert(at, seq, [] {});
      pending.push_back({at, seq});
      ++seq;
    }
    if (!pending.empty() && rng.next_u64() % 2 == 0) {
      std::size_t victim = rng.next_u64() % pending.size();
      ASSERT_TRUE(wheel.cancel(pending[victim].seq));
      pending.erase(pending.begin() + victim);
    }
    for (int i = 0; i < 15; ++i) {
      TimerWheel::Key key;
      std::function<void()> fn;
      if (!wheel.pop(key, fn)) break;
      got.push_back(key);
      expect.push_back(key);
      base = std::max(base, key.us);
      auto it = std::find_if(pending.begin(), pending.end(),
                             [&](const auto& p) { return p.seq == key.seq; });
      ASSERT_NE(it, pending.end()) << "popped an entry not pending";
      pending.erase(it);
    }
  }
  for (auto& k : drain(wheel)) got.push_back(k);
  expect.insert(expect.end(), pending.begin(), pending.end());
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
      << "wheel fire order diverged from the sorted reference";
}

// Dense ticks: the piles a protocol world builds when many timers share one
// deadline (DYMO arms its hold time in bursts), with arms earlier in an
// already-filled tick, arms behind the cursor, and cancels of a pile's head,
// middle and tail — some of them from inside a firing callback.
TEST(TimerWheel, DenseTickPilesMatchSortedReference) {
  Rng rng(4242);
  TimerWheel wheel;
  std::set<TimerWheel::Key> pending;  // the sorted reference
  std::uint64_t seq = 1;
  std::int64_t now = 3 * kL0Span + 17 * kTick;
  std::size_t pops = 0;
  bool diverged = false;

  // Cancels the head (0), middle (1) or tail (2) of the pending pile.
  auto cancel_at = [&](int which) {
    if (pending.empty()) return;
    auto it = pending.begin();
    if (which == 1) std::advance(it, pending.size() / 2);
    if (which == 2) it = std::prev(pending.end());
    EXPECT_TRUE(wheel.cancel(it->seq));
    pending.erase(it);
  };
  auto arm = [&](std::int64_t us, int cancel_on_fire) {
    std::function<void()> fn;
    if (cancel_on_fire >= 0) fn = [&, cancel_on_fire] { cancel_at(cancel_on_fire); };
    wheel.insert(us, seq, std::move(fn));
    pending.insert({us, seq});
    ++seq;
  };
  auto pop_one = [&] {
    TimerWheel::Key key;
    std::function<void()> fn;
    if (!wheel.pop(key, fn) || pending.empty() || key != *pending.begin()) {
      diverged = true;
      return;
    }
    pending.erase(pending.begin());
    now = key.us;
    ++pops;
    if (fn) fn();
  };

  for (int round = 0; round < 40 && !diverged; ++round) {
    // A burst at one deadline within the next two ticks: >= 1000 arms on
    // every fourth round, and every 50th entry cancels part of the pile
    // when it fires.
    const std::int64_t burst_us =
        now + static_cast<std::int64_t>(rng.next_u64() % (2 * kTick));
    const int burst = round % 4 == 0 ? 1000 + static_cast<int>(rng.next_u64() % 200)
                                     : 50 + static_cast<int>(rng.next_u64() % 100);
    for (int i = 0; i < burst; ++i) arm(burst_us, i % 50 == 7 ? i % 3 : -1);
    // Earlier deadlines inside the burst's (now partly filled) tick.
    const std::int64_t tick_start = burst_us & ~(kTick - 1);
    for (int i = 0; i < 40; ++i) {
      arm(tick_start + static_cast<std::int64_t>(
                           rng.next_u64() % (burst_us - tick_start + 1)),
          -1);
    }
    // Deadlines behind the cursor: they must fire before the whole pile.
    for (int i = 0; i < 8; ++i) {
      arm(now - static_cast<std::int64_t>(rng.next_u64() % (3 * kTick)), -1);
    }
    for (int which = 0; which < 3; ++which) cancel_at(which);
    const std::size_t n = pending.size() / 3;
    for (std::size_t i = 0; i < n && !diverged; ++i) pop_one();
  }
  while (!pending.empty() && !diverged) pop_one();
  ASSERT_FALSE(diverged) << "wheel diverged from the sorted reference after "
                         << pops << " pops";
  EXPECT_TRUE(wheel.empty());
  EXPECT_GT(pops, 10'000u);
}

TEST(TimerWheel, CascadeOfADescendingSlotDrainsInKeyOrder) {
  TimerWheel wheel;
  wheel.insert(0, 1, [] {});  // anchors the cursor at tick 0
  // Fill the level-1 slot covering [kL0Span, 2 * kL0Span) in descending us,
  // three arms per deadline and several deadlines per tick, so the slot's
  // insertion order is the reverse of its key order within each tick.
  std::vector<TimerWheel::Key> want = {{0, 1}};
  std::uint64_t seq = 2;
  for (std::int64_t us = 2 * kL0Span - 1; us >= kL0Span; us -= kTick / 4 + 3) {
    for (int run = 0; run < 3; ++run) {
      wheel.insert(us, seq, [] {});
      want.push_back({us, seq++});
    }
  }
  std::sort(want.begin(), want.end());
  auto keys = drain(wheel);
  EXPECT_EQ(keys, want);
}

// ---------------------------------------------------------------- scheduler

TEST(SimSchedulerBackend, WheelAndHeapAgreeOnHoldBursts) {
  // Every 250 ms one event arms 750 timers at exactly now + 5 s (a DYMO hold
  // burst), plus a few at earlier deadlines in the same tick and one at the
  // current time; a share of the fired timers cancel a queued peer.
  auto run = [](SimBackend backend) {
    SimScheduler sched(backend);
    Rng rng(99);
    std::vector<std::pair<TimerId, std::int64_t>> fired;
    sched.set_fire_hook([&](TimerId id, TimePoint at) {
      fired.emplace_back(id, at.us);
    });
    std::vector<TimerId> armed;
    std::function<void()> burst = [&] {
      const TimePoint hold = sched.now() + sec(5);
      for (int i = 0; i < 750; ++i) {
        armed.push_back(sched.schedule_at(hold, [&, i] {
          if (i % 25 == 0) sched.cancel(armed[rng.next_u64() % armed.size()]);
        }));
      }
      for (int i = 0; i < 20; ++i) {
        const auto back = static_cast<std::int64_t>(rng.next_u64() % 900);
        armed.push_back(sched.schedule_at(hold - Duration{back}, [] {}));
      }
      armed.push_back(sched.schedule_after(Duration{0}, [] {}));
      if (sched.now() < TimePoint{sec(8).count()}) {
        sched.schedule_after(msec(250), burst);
      }
    };
    sched.schedule_at(TimePoint{0}, burst);
    sched.run_all();
    return fired;
  };
  auto wheel = run(SimBackend::kWheel);
  auto heap = run(SimBackend::kHeap);
  EXPECT_GT(wheel.size(), 20'000u);
  ASSERT_EQ(wheel.size(), heap.size());
  EXPECT_EQ(wheel, heap) << "backends disagreed on fire order or timer ids";
}


TEST(SimSchedulerBackend, WheelAndHeapRunIdenticalSchedules) {
  auto run = [](SimBackend backend) {
    SimScheduler sched(backend);
    Rng rng(77);
    std::vector<std::pair<std::int64_t, TimerId>> fired;
    sched.set_fire_hook([&](TimerId id, TimePoint at) {
      fired.emplace_back(at.us, id);
    });
    std::vector<TimerId> ids;
    for (int i = 0; i < 500; ++i) {
      auto at = TimePoint{static_cast<std::int64_t>(rng.next_u64() % 5'000'000)};
      ids.push_back(sched.schedule_at(at, [] {}));
    }
    for (int i = 0; i < 100; ++i) {
      sched.cancel(ids[rng.next_u64() % ids.size()]);
    }
    sched.run_all();
    return fired;
  };
  auto wheel = run(SimBackend::kWheel);
  auto heap = run(SimBackend::kHeap);
  ASSERT_EQ(wheel.size(), heap.size());
  EXPECT_EQ(wheel, heap) << "backends disagreed on fire order or timer ids";
}

TEST(SimSchedulerBackend, WheelHandlesSelfReschedulingChains) {
  SimScheduler sched;  // wheel is the default
  EXPECT_EQ(sched.backend(), SimBackend::kWheel);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 64) sched.schedule_after(msec(1), chain);
  };
  sched.schedule_after(msec(1), chain);
  sched.run_all();
  EXPECT_EQ(depth, 64);
  EXPECT_EQ(sched.now().us, 64 * 1000);
}

}  // namespace
}  // namespace mk
