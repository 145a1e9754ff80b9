// Enforced allocation budgets for the steady-state hot paths (the
// allocation-free steady state work), plus the conformance assertions the
// memory discipline rests on:
//
//  * AllocBudget.*      — hard allocs-per-operation budgets measured through
//                         the mk::memtrack interposer (tests/support/
//                         alloc_probe). Skipped under sanitizers, where the
//                         sanitizer runtime owns allocation; the
//                         plain-Release CI job enforces them.
//  * MemBackendParity.* — the MemBackend::kHeap oracle: pooled and plain-
//                         heap runs of the same seeded scenario must produce
//                         bit-identical ordered journal digests (the third
//                         instance of the wheel/heap and grid/reference
//                         oracle pattern). Runs everywhere, sanitizers
//                         included.
//  * PoolPoison.*       — randomized acquire/release churn against both
//                         mem::Pool users (messages and frame payloads):
//                         live handles must never observe recycled
//                         (0xA5-poisoned) state, and outstanding counts must
//                         return to their baseline.
//  * MemPoolObservability.* — mem.pool.* gauges expose hit/miss/outstanding.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "events/event.hpp"
#include "fault/plan.hpp"
#include "net/payload_pool.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "packetbb/message_pool.hpp"
#include "packetbb/packetbb.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "support/alloc_probe.hpp"
#include "testbed/world.hpp"
#include "util/mem.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

using test::AllocProbe;

pbb::Packet make_packet(std::size_t advertised) {
  std::set<net::Addr> sel;
  for (std::size_t i = 0; i < advertised; ++i) {
    sel.insert(net::addr_for_index(static_cast<std::uint32_t>(i + 1)));
  }
  pbb::Packet pkt;
  pkt.messages.push_back(proto::tc::build(net::addr_for_index(0), 17, 3, sel));
  return pkt;
}

// ----------------------------------------------------------- alloc budgets

#define REQUIRE_PROBE()                                                   \
  if (!AllocProbe::available())                                           \
  GTEST_SKIP() << "allocation interposer not live (sanitizer build); the " \
                  "plain-Release CI job enforces this budget"

TEST(AllocBudget, SerializeIntoWarmBufferIsAllocationFree) {
  REQUIRE_PROBE();
  pbb::Packet pkt = make_packet(16);
  std::vector<std::uint8_t> buf;
  pbb::serialize_into(pkt, buf);  // warm-up: sizes the recycled buffer

  auto scope = AllocProbe::scoped();
  for (int i = 0; i < 200; ++i) pbb::serialize_into(pkt, buf);
  EXPECT_EQ(scope.allocs(), 0u) << "serialize_into must reuse the buffer";
}

TEST(AllocBudget, ParseIntoWarmScratchIsAllocationFree) {
  REQUIRE_PROBE();
  pbb::Packet pkt = make_packet(16);
  std::vector<std::uint8_t> bytes = pbb::serialize(pkt);
  pbb::Packet scratch;
  ASSERT_TRUE(pbb::parse_into(bytes, scratch));  // warm-up: grows the slots

  auto scope = AllocProbe::scoped();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pbb::parse_into(bytes, scratch));
  }
  EXPECT_EQ(scope.allocs(), 0u)
      << "a steady stream of same-shaped packets must slot-fill the scratch";
}

TEST(AllocBudget, CowEventCloneCostsAtMostOneAllocation) {
  REQUIRE_PROBE();
  mem::BackendGuard backend(mem::MemBackend::kPool);
  ev::Event original(ev::etype("AB_COW"));
  original.set_msg(make_packet(16).messages[0]);

  // Warm-up: one clone cycle populates the message pool and the control
  // block free lists with slots of the right shape.
  {
    ev::Event copy = original;
    copy.mutable_msg().hop_count = 1;
  }

  auto scope = AllocProbe::scoped();
  constexpr int kIters = 100;
  for (int i = 0; i < kIters; ++i) {
    ev::Event copy = original;                 // shares the message
    copy.mutable_msg().hop_count = 2;          // COW: one pooled acquire
  }
  EXPECT_LE(scope.allocs(), static_cast<std::uint64_t>(kIters))
      << "COW clone must cost at most one allocation per copy (zero when "
         "the pool is warm)";
}

TEST(AllocBudget, EventAttributesAndFanOutCopiesAreAllocationFree) {
  REQUIRE_PROBE();
  const ev::EventTypeId type = ev::etype(ev::types::ROUTE_FOUND);
  std::vector<ev::Event> targets(3);  // the fan-out copies land here

  auto scope = AllocProbe::scoped();
  for (int i = 0; i < 100; ++i) {
    ev::Event e(type);
    e.set_attr(ev::IntAttr::dest, i);
    e.set_attr(ev::IntAttr::unicast_to, i + 1);
    e.set_attr(ev::RealAttr::battery, 0.5);
    for (ev::Event& target : targets) target = e;
  }
  EXPECT_EQ(scope.allocs(), 0u)
      << "attributes live inline: setting them and copying the event to "
         "three targets must not allocate";
  EXPECT_EQ(targets[2].attr(ev::IntAttr::dest), 99);
}

TEST(AllocBudget, TimerArmCancelIsAllocationFreeWhenWarm) {
  REQUIRE_PROBE();
  SimScheduler sched;  // hierarchical wheel backend: pooled timer nodes
  int fired = 0;
  auto id = sched.schedule_after(sec(1), [&fired] { ++fired; });  // warm-up
  ASSERT_TRUE(sched.cancel(id));

  auto scope = AllocProbe::scoped();
  for (int i = 0; i < 200; ++i) {
    auto t = sched.schedule_after(sec(1), [&fired] { ++fired; });
    ASSERT_TRUE(sched.cancel(t));
  }
  EXPECT_EQ(scope.allocs(), 0u)
      << "wheel arm/cancel must recycle timer nodes (SBO-sized callbacks)";
  EXPECT_EQ(fired, 0);
}

// The headline budget: one traced sim-second of a converged 5-node OLSR
// world (the BM_OlsrWorldSecond/1 workload) must stay within 50 heap
// allocations per sim-second under the pooled backend. The pre-pool seed
// measured ~385 allocs/op on this exact scenario.
TEST(AllocBudget, TracedOlsrWorldSecondStaysUnderBudget) {
  REQUIRE_PROBE();
  constexpr std::uint64_t kBudgetPerSecond = 50;
  mem::BackendGuard backend(mem::MemBackend::kPool);
  testbed::SimWorld world(5, /*seed=*/42);
  world.linear();
  world.enable_tracing();
  world.deploy_all("olsr");
  world.run_for(sec(10));  // converge before measuring the steady state

  constexpr int kSeconds = 5;
  auto scope = AllocProbe::scoped();
  for (int i = 0; i < kSeconds; ++i) world.run_for(sec(1));
  std::uint64_t per_second = scope.allocs() / kSeconds;
  EXPECT_LE(per_second, kBudgetPerSecond)
      << "steady-state OLSR world-second regressed: " << per_second
      << " allocs/sim-second (budget " << kBudgetPerSecond << ")";
}

// ------------------------------------------------------ pooled/heap oracle

struct RunSignature {
  std::uint64_t ordered = 0;
  std::uint64_t canonical = 0;
  std::uint64_t total = 0;
};

/// OLSR+DYMO co-deployment on a lossy linear topology, fully traced.
RunSignature run_coexist(mem::MemBackend backend) {
  mem::BackendGuard guard(backend);
  testbed::SimWorld world(4, /*seed=*/7);
  auto& journal = world.enable_tracing();
  world.linear();
  world.medium().set_loss_probability(0.05);
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.kit(i).deploy("olsr");
    world.kit(i).deploy("dymo");
  }
  world.run_for(sec(20));
  return {journal.ordered_digest(), journal.canonical_digest(),
          journal.total()};
}

/// A chaos cell: OLSR under a loss burst plus a mid-run node crash.
RunSignature run_chaos_cell(mem::MemBackend backend) {
  mem::BackendGuard guard(backend);
  testbed::SimWorld world(5, /*seed=*/99);
  auto& journal = world.enable_tracing();
  world.linear();
  world.deploy_all("olsr");
  fault::FaultPlan plan;
  plan.loss_burst(sec(5), 0.3, sec(5));
  plan.crash(sec(12), world.addr(4));
  world.apply_fault_plan(plan);
  world.run_for(sec(20));
  return {journal.ordered_digest(), journal.canonical_digest(),
          journal.total()};
}

TEST(MemBackendParity, CoexistenceDigestsMatchPooledVsHeap) {
  RunSignature pooled = run_coexist(mem::MemBackend::kPool);
  RunSignature heap = run_coexist(mem::MemBackend::kHeap);
  EXPECT_EQ(pooled.total, heap.total);
  EXPECT_EQ(pooled.ordered, heap.ordered)
      << "pooled allocation changed observable behaviour (OLSR+DYMO)";
  EXPECT_EQ(pooled.canonical, heap.canonical);
  EXPECT_GT(pooled.total, 0u);
}

TEST(MemBackendParity, ChaosCellDigestsMatchPooledVsHeap) {
  RunSignature pooled = run_chaos_cell(mem::MemBackend::kPool);
  RunSignature heap = run_chaos_cell(mem::MemBackend::kHeap);
  EXPECT_EQ(pooled.total, heap.total);
  EXPECT_EQ(pooled.ordered, heap.ordered)
      << "pooled allocation changed observable behaviour (chaos cell)";
  EXPECT_EQ(pooled.canonical, heap.canonical);
  EXPECT_GT(pooled.total, 0u);
}

// ----------------------------------------------------------- pool poisoning

/// Live handles of the pool registered as `name` (mem.pool.* source).
std::int64_t pool_outstanding(std::string_view name) {
  for (const mem::PoolSnapshot& p : mem::pool_snapshots()) {
    if (name == p.name) return p.outstanding;
  }
  return 0;
}

/// Randomized acquire/stamp/verify/release churn over both mem::Pool users.
/// Every live handle carries a token written at acquire; if recycling ever
/// handed the same slot to two live handles, or poisoned a live slot, the
/// token check fails (freed slots are filled with mem::kPoisonByte, so
/// corruption shows up as 0xA5 bytes, not as a plausible stale value).
TEST(PoolPoison, RandomizedRecyclingNeverExposesPoisonedState) {
  mem::BackendGuard backend(mem::MemBackend::kPool);
  std::int64_t msgs_before = pool_outstanding("pbb.message");
  std::int64_t payloads_before = pool_outstanding("net.payload");

  std::mt19937 rng(0xA5A5);

  struct LiveMsg {
    std::shared_ptr<pbb::Message> m;
    std::uint32_t token;
  };
  struct LivePayload {
    std::shared_ptr<net::PayloadBuffer> p;
    std::uint32_t token;
  };
  std::vector<LiveMsg> msgs;
  std::vector<LivePayload> payloads;
  std::uint32_t next_token = 1;

  auto stamp_msg = [](pbb::Message& m, std::uint32_t token) {
    m.type = static_cast<std::uint8_t>(token & 0x7F);
    m.originator = static_cast<pbb::Addr>(token);
    m.seqnum = static_cast<std::uint16_t>(token & 0xFFFF);
    m.tlvs.clear();
    m.tlvs.push_back(pbb::Tlv::u32(1, token));
    m.addr_blocks.clear();
  };
  auto verify_msg = [](const LiveMsg& lm) {
    ASSERT_EQ(lm.m->type, static_cast<std::uint8_t>(lm.token & 0x7F));
    ASSERT_TRUE(lm.m->originator.has_value());
    ASSERT_EQ(*lm.m->originator, static_cast<pbb::Addr>(lm.token));
    ASSERT_TRUE(lm.m->seqnum.has_value());
    ASSERT_EQ(*lm.m->seqnum, static_cast<std::uint16_t>(lm.token & 0xFFFF));
    ASSERT_EQ(lm.m->tlvs.size(), 1u);
    ASSERT_EQ(lm.m->tlvs[0].as_u32(), lm.token);
  };
  // Payload bytes spell the token (low byte 0x7F-masked, never 0xA5), and
  // the length varies so recycled buffers shrink and grow.
  auto payload_len = [](std::uint32_t token) { return 1 + token % 61; };
  auto stamp_payload = [&](net::PayloadBuffer& p, std::uint32_t token) {
    ASSERT_TRUE(p.empty()) << "acquired payload must come back empty";
    p.assign(payload_len(token), static_cast<std::uint8_t>(token & 0x7F));
  };
  auto verify_payload = [&](const LivePayload& lp) {
    ASSERT_EQ(lp.p->size(), payload_len(lp.token));
    for (std::uint8_t b : *lp.p) {
      ASSERT_EQ(b, static_cast<std::uint8_t>(lp.token & 0x7F));
    }
  };

  for (int step = 0; step < 20'000; ++step) {
    switch (rng() % 5) {
      case 0: {  // acquire + stamp a message
        LiveMsg lm{pbb::acquire_message(), next_token++};
        stamp_msg(*lm.m, lm.token);
        msgs.push_back(std::move(lm));
        break;
      }
      case 1: {  // release a random message
        if (msgs.empty()) break;
        std::size_t i = rng() % msgs.size();
        verify_msg(msgs[i]);
        std::swap(msgs[i], msgs.back());
        msgs.pop_back();
        break;
      }
      case 2: {  // acquire + stamp a payload
        LivePayload lp{net::acquire_payload(), next_token++};
        stamp_payload(*lp.p, lp.token);
        payloads.push_back(std::move(lp));
        break;
      }
      case 3: {  // release a random payload
        if (payloads.empty()) break;
        std::size_t i = rng() % payloads.size();
        verify_payload(payloads[i]);
        std::swap(payloads[i], payloads.back());
        payloads.pop_back();
        break;
      }
      default: {  // periodic sweep over everything still live
        if (step % 512 != 4) break;
        for (const LiveMsg& lm : msgs) verify_msg(lm);
        for (const LivePayload& lp : payloads) verify_payload(lp);
        break;
      }
    }
  }
  for (const LiveMsg& lm : msgs) verify_msg(lm);
  for (const LivePayload& lp : payloads) verify_payload(lp);

  msgs.clear();
  payloads.clear();
  EXPECT_EQ(pool_outstanding("pbb.message"), msgs_before)
      << "message handles leaked (outstanding must return to its baseline)";
  EXPECT_EQ(pool_outstanding("net.payload"), payloads_before)
      << "payload handles leaked (outstanding must return to its baseline)";
}

// ----------------------------------------------------------- observability

TEST(MemPoolObservability, PublishPoolGaugesExposesHitMissOutstanding) {
  mem::BackendGuard backend(mem::MemBackend::kPool);
  auto handle = pbb::acquire_message();  // forces pool registration
  obs::MetricsRegistry registry;
  registry.publish_pool_gauges();

  bool saw_outstanding = false;
  for (const auto& [name, value] : registry.gauges()) {
    if (name == "mem.pool.pbb.message.outstanding") {
      saw_outstanding = true;
      EXPECT_GE(value, 1) << "the live handle above must be visible";
    }
    EXPECT_EQ(name.rfind("mem.pool.", 0), 0u) << "unexpected gauge " << name;
  }
  EXPECT_TRUE(saw_outstanding);
}

}  // namespace
}  // namespace mk
