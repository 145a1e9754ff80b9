// Golden-determinism tests (ISSUE 3): the same seed and topology must
// produce bit-identical trace digests across runs, and the single-threaded
// and pool-executor concurrency models must agree on the canonical
// (order-insensitive) digest. Plus the journal mechanics the digests rest
// on: ring wrap-around, dump/load, divergence search.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "obs/journal.hpp"
#include "testbed/world.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

using obs::Journal;
using obs::Record;
using obs::RecordKind;

Record rec(RecordKind kind, std::uint32_t node, std::int64_t t,
           std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0) {
  return Record{kind, node, t, a, b, c};
}

// ------------------------------------------------------------------ journal

TEST(Journal, RingKeepsTailAndCountsOverwrites) {
  Journal journal(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.append(rec(RecordKind::kTimerFire, 0, static_cast<std::int64_t>(i),
                       /*timer id=*/i));
  }
  EXPECT_EQ(journal.total(), 10u);
  EXPECT_EQ(journal.retained(), 4u);
  EXPECT_EQ(journal.overwritten(), 6u);

  auto tail = journal.snapshot();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().a, 6u);  // oldest retained
  EXPECT_EQ(tail.back().a, 9u);   // newest
}

TEST(Journal, DigestsCoverOverwrittenRecords) {
  Journal small(/*capacity=*/2);
  Journal big(/*capacity=*/64);
  for (int i = 0; i < 20; ++i) {
    auto r = rec(RecordKind::kRouteAdd, 1, i, i, i + 1, 1);
    small.append(r);
    big.append(r);
  }
  // Identical streams digest identically regardless of how much the ring
  // retains — the digests are running accumulators, not snapshot hashes.
  EXPECT_EQ(small.ordered_digest(), big.ordered_digest());
  EXPECT_EQ(small.canonical_digest(), big.canonical_digest());
}

TEST(Journal, CanonicalDigestIsOrderInsensitiveOrderedIsNot) {
  auto r1 = rec(RecordKind::kFrameTx, 1, 10, 2, 64, 0xabcdef);
  auto r2 = rec(RecordKind::kFrameRx, 2, 11, 1, 64, 0xabcdef);
  auto r3 = rec(RecordKind::kRouteAdd, 2, 12, 1, 1, 1);

  Journal in_order;
  for (const auto& r : {r1, r2, r3}) in_order.append(r);
  Journal shuffled;
  for (const auto& r : {r3, r1, r2}) shuffled.append(r);

  EXPECT_EQ(in_order.canonical_digest(), shuffled.canonical_digest());
  EXPECT_NE(in_order.ordered_digest(), shuffled.ordered_digest());
}

TEST(Journal, DumpLoadRoundTripAndDivergenceSearch) {
  Journal journal;
  journal.append(rec(RecordKind::kEventDispatch, 3, 100, 0x1111, 2, 0x2222));
  journal.append(rec(RecordKind::kFrameDrop, 1, 200, 2, 48,
                     static_cast<std::uint64_t>(obs::DropReason::kLoss)));
  journal.append(rec(RecordKind::kLinkDown, 1, 300, 2));

  std::stringstream ss;
  journal.dump(ss);
  auto loaded = Journal::load(ss);
  auto original = journal.snapshot();
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded, original);
  EXPECT_EQ(obs::first_divergence(original, loaded), std::nullopt);

  // A post-mortem diff pinpoints the first differing record.
  loaded[1].b = 49;
  auto div = obs::first_divergence(original, loaded);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, 1u);
}

TEST(Journal, ObserverSeesEveryAppend) {
  Journal journal;
  std::size_t seen = 0;
  journal.add_observer([&seen](const Record&) { ++seen; });
  for (int i = 0; i < 5; ++i) journal.append(rec(RecordKind::kTimerFire, 0, i));
  EXPECT_EQ(seen, 5u);
}

// ------------------------------------------------------------- golden runs

struct RunSignature {
  std::uint64_t ordered = 0;
  std::uint64_t canonical = 0;
  std::uint64_t total = 0;
};

/// One full traced scenario: 4 OLSR nodes on a lossy linear topology.
RunSignature run_traced_scenario(std::uint64_t seed) {
  testbed::SimWorld world(4, seed);
  auto& journal = world.enable_tracing();
  world.linear();
  world.medium().set_loss_probability(0.05);
  world.deploy_all("olsr");
  world.run_for(sec(20));
  return {journal.ordered_digest(), journal.canonical_digest(),
          journal.total()};
}

TEST(TraceDeterminism, SameSeedSameDigest) {
  RunSignature a = run_traced_scenario(7);
  RunSignature b = run_traced_scenario(7);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.ordered, b.ordered) << "seed-identical runs diverged";
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_GT(a.total, 0u);
}

TEST(TraceDeterminism, DifferentSeedDifferentDigest) {
  RunSignature a = run_traced_scenario(7);
  RunSignature b = run_traced_scenario(8);
  // Loss draws differ, so the frame streams (and digests) must part ways.
  EXPECT_NE(a.ordered, b.ordered);
}

// --------------------------------------------------------- executor parity

/// Emit/drain harness: a producer fans PINGs to a responder that re-emits
/// each as a PONG to two sinks. Under the pool executor the PONG emissions
/// originate on worker threads, so record *order* is nondeterministic but
/// the record *set* must match the single-threaded run exactly.
RunSignature run_ping_pong(core::ConcurrencyModel model) {
  constexpr int kPings = 300;

  class Responder final : public core::EventHandler {
   public:
    Responder() : core::EventHandler("td.Responder", {"TD_PING"}) {}
    void handle(const ev::Event&, core::ProtocolContext& ctx) override {
      ctx.emit(ev::Event(ev::etype("TD_PONG")));
    }
  };
  class Sink final : public core::EventHandler {
   public:
    explicit Sink(std::atomic<int>& got)
        : core::EventHandler("td.Sink", {"TD_PONG"}), got_(got) {}
    void handle(const ev::Event&, core::ProtocolContext&) override { ++got_; }
    std::atomic<int>& got_;
  };

  SimScheduler sched;
  Journal journal;
  core::FrameworkManager manager;
  manager.set_journal(&journal, /*node=*/1, &sched);
  std::atomic<int> got{0};

  std::vector<std::unique_ptr<core::ManetProtocolCf>> owned;
  auto make = [&](const std::string& name, int layer,
                  std::unique_ptr<core::EventHandler> handler,
                  std::vector<std::string> required,
                  std::vector<std::string> provided) {
    auto cf = std::make_unique<core::ManetProtocolCf>(name, sched, 1, nullptr);
    if (handler != nullptr) cf->add_handler(std::move(handler));
    core::ManetProtocolCf* raw = cf.get();
    owned.push_back(std::move(cf));
    manager.register_unit(raw, layer);
    raw->declare_events(required, provided, {});
    return raw;
  };

  auto* producer = make("td_producer", 30, nullptr, {}, {"TD_PING"});
  make("td_responder", 20, std::make_unique<Responder>(), {"TD_PING"},
       {"TD_PONG"});
  make("td_sink_a", 10, std::make_unique<Sink>(got), {"TD_PONG"}, {});
  make("td_sink_b", 10, std::make_unique<Sink>(got), {"TD_PONG"}, {});

  manager.set_concurrency(model, /*threads=*/4, /*batch=*/8);
  for (int i = 0; i < kPings; ++i) {
    producer->emit(ev::Event(ev::etype("TD_PING")));
  }
  // drain() waits for in-flight dispatches; PONGs enqueued by those
  // dispatches may need another pass.
  for (int spin = 0; spin < 10'000 && got.load() < 2 * kPings; ++spin) {
    manager.drain();
  }
  EXPECT_EQ(got.load(), 2 * kPings);

  RunSignature sig{journal.ordered_digest(), journal.canonical_digest(),
                   journal.total()};
  manager.set_concurrency(core::ConcurrencyModel::kSingleThreaded);
  for (auto& cf : owned) manager.deregister_unit(cf.get());
  return sig;
}

TEST(TraceDeterminism, SingleThreadedPingPongIsReproducible) {
  RunSignature a = run_ping_pong(core::ConcurrencyModel::kSingleThreaded);
  RunSignature b = run_ping_pong(core::ConcurrencyModel::kSingleThreaded);
  EXPECT_EQ(a.ordered, b.ordered);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.total, b.total);
}

TEST(TraceDeterminism, PoolExecutorMatchesCanonicalDigest) {
  RunSignature single = run_ping_pong(core::ConcurrencyModel::kSingleThreaded);
  RunSignature pooled = run_ping_pong(core::ConcurrencyModel::kThreadPerNMessages);
  EXPECT_EQ(single.total, pooled.total);
  EXPECT_EQ(single.canonical, pooled.canonical)
      << "executor choice changed the observable record set";
}

}  // namespace
}  // namespace mk
