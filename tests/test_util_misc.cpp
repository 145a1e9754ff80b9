// BlockingQueue, ThreadPool, ByteWriter/Reader, Summary/Samples, memtrack,
// Result, Rng, U64Table.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "util/bytebuffer.hpp"
#include "util/memtrack.hpp"
#include "util/queue.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"
#include "util/u64_table.hpp"

namespace mk {
namespace {

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BlockingQueue, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CrossThreadHandoff) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
  });
  int sum = 0;
  while (auto v = q.pop()) sum += *v;
  producer.join();
  EXPECT_EQ(sum, 499500);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { ++count; });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ByteBuffer, RoundTripsAllWidths) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0x12345678);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_string("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0x12345678u);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, BigEndianOnTheWire) {
  ByteWriter w;
  w.put_u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(ByteBuffer, UnderflowThrows) {
  std::vector<std::uint8_t> bytes{1, 2};
  ByteReader r(bytes);
  EXPECT_THROW(r.get_u32(), BufferUnderflow);
}

TEST(ByteBuffer, PatchU16) {
  ByteWriter w;
  std::size_t slot = w.reserve_u16();
  w.put_u32(42);
  w.patch_u16(slot, static_cast<std::uint16_t>(w.size()));
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u16(), 6);
}

TEST(ByteBuffer, SliceIsBoundedView) {
  ByteWriter w;
  w.put_u32(7);
  w.put_u32(9);
  ByteReader r(w.data());
  ByteReader sub = r.slice(4);
  EXPECT_EQ(sub.get_u32(), 7u);
  EXPECT_THROW(sub.get_u8(), BufferUnderflow);
  EXPECT_EQ(r.get_u32(), 9u);
}

TEST(Stats, SummaryWelford) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, SamplesQuantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, SamplesAddAfterQuantileResorts) {
  // Regression: add() must invalidate the quantile sort cache — a stale
  // cache made later quantiles ignore (or misplace) newly added samples.
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_EQ(s.max(), 5.0);  // sorts {1, 5} and caches
  s.add(9.0);
  s.add(0.5);
  EXPECT_EQ(s.min(), 0.5);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.median(), 5.0, 4.0);
}

TEST(Memtrack, ScopeSeesAllocations) {
  memtrack::Scope scope;
  auto* p = new std::vector<int>(10000);
  EXPECT_GE(scope.live_bytes_delta(), 10000u * sizeof(int));
  delete p;
  EXPECT_LT(scope.live_bytes_delta(), 10000u * sizeof(int));
}

TEST(ResultT, OkAndFail) {
  Result<int> ok = Result<int>::ok(42);
  EXPECT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = Result<int>::fail("nope");
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(RngT, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngT, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

/// Asserts `table` holds exactly what `oracle` holds.
void expect_same(U64Table<std::uint64_t>& table,
                 const std::map<std::uint64_t, std::uint64_t>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [key, val] : oracle) {
    const std::uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, val);
  }
  std::map<std::uint64_t, std::uint64_t> seen;
  table.for_each([&](std::uint64_t k, std::uint64_t& v) { seen[k] = v; });
  EXPECT_EQ(seen, oracle);
}

TEST(U64Table, MatchesAMapOracleThroughGrowthAndDeletion) {
  U64Table<std::uint64_t> table;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(7);
  // Keys from a small range so inserts, hits and erases all recur; the
  // table grows from empty through several doublings along the way.
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_u64() % 3000;
    switch (rng.next_u64() % 3) {
      case 0:
      case 1: {
        auto [val, inserted] = table.emplace(key);
        EXPECT_EQ(inserted, oracle.count(key) == 0);
        *val = step;
        oracle[key] = step;
        break;
      }
      default:
        EXPECT_EQ(table.erase(key), oracle.erase(key) > 0);
        break;
    }
  }
  EXPECT_GT(table.capacity(), 1024u);
  expect_same(table, oracle);
}

TEST(U64Table, BackwardShiftKeepsCrowdedChainsReachable) {
  // 11 keys in 16 cells (just under the growth threshold) crowd into long
  // probe chains; erasing them one by one, in random order, must leave
  // every survivor findable with no tombstone left behind.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    U64Table<std::uint64_t> table(16);
    std::map<std::uint64_t, std::uint64_t> oracle;
    while (oracle.size() < 11) {
      const std::uint64_t key = rng.next_u64() >> 8;
      *table.emplace(key).first = key + 1;
      oracle[key] = key + 1;
    }
    ASSERT_EQ(table.capacity(), 16u);
    std::vector<std::uint64_t> order;
    for (const auto& [key, _] : oracle) order.push_back(key);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_u64() % i]);
    }
    for (std::uint64_t key : order) {
      ASSERT_TRUE(table.erase(key));
      oracle.erase(key);
      EXPECT_FALSE(table.contains(key));
      expect_same(table, oracle);
    }
  }
}

TEST(U64Table, ZeroIsAnOrdinaryKeyAndTakeReturnsTheValue) {
  U64Table<std::uint64_t> table;
  EXPECT_EQ(table.find(0), nullptr);
  *table.emplace(0).first = 42;
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_EQ(*table.find(0), 42u);
  EXPECT_EQ(table.take(0), std::optional<std::uint64_t>{42});
  EXPECT_EQ(table.take(0), std::nullopt);
  EXPECT_TRUE(table.empty());
  // The largest key below the reserved one is storable.
  *table.emplace(U64Table<std::uint64_t>::kEmptyKey - 1).first = 1;
  EXPECT_TRUE(table.contains(U64Table<std::uint64_t>::kEmptyKey - 1));
  EXPECT_FALSE(table.contains(U64Table<std::uint64_t>::kEmptyKey));
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.contains(U64Table<std::uint64_t>::kEmptyKey - 1));
}

}  // namespace
}  // namespace mk
