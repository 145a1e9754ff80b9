// The unified soft-state expiry layer: per-entry deadlines on the scheduler
// are the protocols' only expiry path (no periodic sweeps), so
// partition-severed state lapses at its exact RFC holding time — journaled
// as kSoftExpire and followed by kRouteDel — instead of lingering until a
// heal. One parameterised case per protocol set checks the lapse in a live
// world. Also the heap-vs-wheel conformance bar: both scheduler backends must
// produce bit-identical ordered trace digests for the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "obs/journal.hpp"
#include "protocols/aodv/aodv_cf.hpp"
#include "protocols/aodv/aodv_state.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "protocols/gpsr/gpsr_cf.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "protocols/timing.hpp"
#include "testbed/world.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

std::size_t count_kind(const obs::Journal& journal, obs::RecordKind kind) {
  std::size_t count = 0;
  for (const auto& r : journal.snapshot()) {
    if (r.kind == kind) ++count;
  }
  return count;
}

// ------------------------------------------------------- per-entry deadlines

TEST(SoftState, SilentNeighborLapsesAtItsHoldTimeWithoutSweeps) {
  testbed::SimWorld world(2);
  world.enable_tracing();
  world.full_mesh();
  world.kit(0).deploy("neighbor");
  world.kit(1).deploy("neighbor");
  world.run_for(sec(5));

  auto* ns = proto::neighbor_state(*world.kit(0).protocol("neighbor"));
  ASSERT_NE(ns, nullptr);
  ASSERT_TRUE(ns->is_sym_neighbor(world.addr(1)));

  // Total radio silence (no link-layer feedback, frames simply vanish): the
  // only thing that can remove the neighbour entry is soft-state expiry.
  world.medium().set_loss_probability(1.0);

  // The last HELLO landed no earlier than 2s before the silence (2s HELLO
  // interval), so 3s in the entry is still within its 6s holding time...
  world.run_for(sec(3));
  EXPECT_FALSE(ns->heard_neighbors().empty())
      << "entry expired before its holding time";

  // ...and 11s in, every possible deadline has lapsed: the entry must be
  // gone, with the expiry journaled.
  world.run_for(sec(8));
  EXPECT_TRUE(ns->heard_neighbors().empty())
      << "entry outlived its holding time";
  EXPECT_GT(count_kind(*world.journal(), obs::RecordKind::kSoftExpire), 0u);
}

// ------------------------------------------------ per-set hold-time lapse

/// One protocol soft-state set. In a 3-node line, node `observer` holds an
/// entry keyed by node `key`'s address (after a 0 -> 2 data send for the
/// reactive protocols); then the radio goes silent. The entry's last refresh
/// came at most `refresh` before the silence, so it must still be live at
/// silence + hold - refresh, gone at silence + hold, and its lapse journaled
/// as kSoftExpire at the observer in between.
struct LapseCase {
  const char* label;
  const char* set;
  const char* protocol;
  std::size_t observer;
  std::size_t key;
  Duration hold;
  Duration refresh;
  bool send_data;
  bool (*live)(testbed::SimWorld&, std::size_t node, net::Addr key);
};

/// A periodic emitter with 10% jitter refreshes at most this far apart.
constexpr Duration jittered(Duration interval) {
  return interval + interval / 10;
}

core::ManetProtocolCf& cf(testbed::SimWorld& w, std::size_t i,
                          const char* name) {
  return *w.kit(i).protocol(name);
}

const LapseCase kLapseCases[] = {
    {"olsr_topology", "olsr.topology", "olsr", 0, 1,
     proto::kTopHoldTime, jittered(proto::kTcInterval), false,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       auto origins = proto::olsr_state(cf(w, i, "olsr"))->topology_origins();
       return std::find(origins.begin(), origins.end(), k) != origins.end();
     }},
    {"mpr_selector", "mpr.selector", "olsr", 1, 0,
     proto::kNeighbHoldTime, jittered(proto::kHelloInterval), false,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       return proto::mpr_state(cf(w, i, "mpr"))->is_mpr_selector(k);
     }},
    {"dymo_route", "dymo.route", "dymo", 0, 2,
     proto::kDymoRouteTimeout, msec(500), true,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       return proto::dymo_state(cf(w, i, "dymo"))->route_to(k).has_value();
     }},
    // AODV is two-phase (RFC 3561): the valid route lapses into an invalid
    // entry at the active-route timeout, which is deleted DELETE_PERIOD
    // later. HELLO piggybacking may refresh the route up to the silence.
    {"aodv_route_invalidate", "aodv.route", "aodv", 0, 2,
     proto::kAodvActiveRouteTimeout, jittered(proto::kHelloInterval), true,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       auto r = proto::aodv_state(cf(w, i, "aodv"))->route_to(k);
       return r.has_value() && r->valid;
     }},
    {"aodv_route_delete", "aodv.route", "aodv", 0, 2,
     proto::kAodvActiveRouteTimeout + proto::kAodvDeletePeriod,
     jittered(proto::kHelloInterval), true,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       return proto::aodv_state(cf(w, i, "aodv"))->route_to(k).has_value();
     }},
    {"gpsr_position", "gpsr.position", "gpsr", 0, 1,
     proto::kGpsrPositionHold, jittered(proto::kHelloInterval), false,
     [](testbed::SimWorld& w, std::size_t i, net::Addr k) {
       return proto::gpsr_state(cf(w, i, "gpsr"))->position_of(k).has_value();
     }},
};

/// Names each instance by its label in test listings.
void PrintTo(const LapseCase& c, std::ostream* os) { *os << c.label; }

class HoldTimeLapse : public ::testing::TestWithParam<LapseCase> {};

TEST_P(HoldTimeLapse, EntryLapsesAtItsHoldTime) {
  const LapseCase& c = GetParam();
  testbed::SimWorld world(3);
  const obs::Journal& journal = world.enable_tracing();
  world.linear();
  if (std::string_view(c.protocol) == "gpsr") world.register_gpsr_oracle();
  world.deploy_all(c.protocol);
  world.run_for(sec(10));
  if (c.send_data) {
    ASSERT_TRUE(world.node(0).forwarding().send(world.addr(2), 128));
    world.run_for(msec(500));
  }
  const net::Addr key = world.addr(c.key);
  ASSERT_TRUE(c.live(world, c.observer, key))
      << c.set << " entry never formed";

  // Total radio silence: nothing refreshes the entry any more, so only its
  // soft-state deadline can remove it. Frames already in flight land within
  // a millisecond.
  world.medium().set_loss_probability(1.0);
  const TimePoint silent = world.now();
  const TimePoint earliest = silent + c.hold - c.refresh;
  world.run_until(earliest - usec(1));
  EXPECT_TRUE(c.live(world, c.observer, key))
      << c.set << " entry lapsed before its holding time";
  world.run_until(silent + c.hold + msec(1));
  EXPECT_FALSE(c.live(world, c.observer, key))
      << c.set << " entry outlived its holding time";

  const std::uint64_t set_hash = obs::fnv1a_str(c.set);
  const std::vector<obs::Record> records = journal.snapshot();
  const bool journaled = std::any_of(
      records.begin(), records.end(), [&](const obs::Record& r) {
        return r.kind == obs::RecordKind::kSoftExpire &&
               r.node == world.addr(c.observer) && r.a == set_hash &&
               r.b == key && r.time_us >= earliest.us;
      });
  EXPECT_TRUE(journaled) << c.set << " lapse was not journaled";
}

INSTANTIATE_TEST_SUITE_P(Sets, HoldTimeLapse, ::testing::ValuesIn(kLapseCases));

// ------------------------------------------------------ heap/wheel parity

struct RunSignature {
  std::uint64_t ordered = 0;
  std::uint64_t canonical = 0;
  std::uint64_t total = 0;

  bool operator==(const RunSignature& o) const {
    return ordered == o.ordered && canonical == o.canonical &&
           total == o.total;
  }
};

/// OLSR + DYMO co-deployed on a lossy linear world: proactive TC flooding,
/// reactive discovery, HELLO piggybacking and the full soft-state layer all
/// arm timers, making this the densest multi-protocol timer workload the
/// testbed has.
RunSignature run_coexistence(std::uint64_t seed, SimBackend backend) {
  testbed::SimWorld world(5, seed, backend);
  auto& journal = world.enable_tracing();
  world.linear();
  world.medium().set_loss_probability(0.05);
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.kit(i).deploy("olsr");
    world.kit(i).deploy("dymo");
  }
  world.run_for(sec(25));
  world.node(0).forwarding().send(world.addr(4), 128);
  world.run_for(sec(5));
  return {journal.ordered_digest(), journal.canonical_digest(),
          journal.total()};
}

TEST(SoftState, HeapAndWheelBackendsProduceIdenticalOrderedDigests) {
  RunSignature wheel = run_coexistence(21, SimBackend::kWheel);
  RunSignature heap = run_coexistence(21, SimBackend::kHeap);
  EXPECT_EQ(wheel.ordered, heap.ordered)
      << "scheduler backend changed observable timer order";
  EXPECT_EQ(wheel.canonical, heap.canonical);
  EXPECT_EQ(wheel.total, heap.total);
  EXPECT_GT(wheel.total, 0u);

  // And each backend is reproducible against itself.
  EXPECT_TRUE(wheel == run_coexistence(21, SimBackend::kWheel));
  EXPECT_TRUE(heap == run_coexistence(21, SimBackend::kHeap));
}

// -------------------------------------------------- partition expiry (chaos)

/// Seed from MK_CHAOS_SEED (CI runs a fixed seed matrix), defaulting to 1234.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

struct ChaosSig {
  std::uint64_t ordered = 0;
  std::uint64_t canonical = 0;
  std::uint64_t total = 0;
  std::size_t violations = 0;

  bool operator==(const ChaosSig& o) const {
    return ordered == o.ordered && canonical == o.canonical &&
           total == o.total && violations == o.violations;
  }
};

/// The ISSUE 6 acceptance scenario: a converged OLSR network is cut for 9
/// seconds. Mid-cut, the soft-state layer must expire the severed links and
/// topology tuples (kSoftExpire), recompute, and delete the dead kernel
/// routes (kRouteDel) — fully_routed() must observably turn false before the
/// heal. After the heal the network reconverges with zero invariant
/// violations.
ChaosSig run_partition_expiry(std::uint64_t seed) {
  testbed::SimWorld world(5, seed);
  world.enable_invariants();
  world.linear();
  world.deploy_all("olsr");
  EXPECT_TRUE(world.run_until_routed(sec(90)).has_value());

  TimePoint armed = world.now();
  std::size_t dels_before =
      count_kind(*world.journal(), obs::RecordKind::kRouteDel);
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "at 1s partition 0 1 | 2 3 4\n"
      "at 10s heal\n");
  world.apply_fault_plan(plan, seed ^ 0x50f7);

  // 8 seconds into the cut: HELLO hold (6s) and the stale-TC horizon have
  // both passed on every node.
  world.run_until(armed + sec(9));
  EXPECT_GT(count_kind(*world.journal(), obs::RecordKind::kSoftExpire), 0u)
      << "partition produced no journaled soft-state expiries";
  EXPECT_GT(count_kind(*world.journal(), obs::RecordKind::kRouteDel),
            dels_before)
      << "severed routes were never deleted mid-partition";
  EXPECT_FALSE(world.fully_routed())
      << "stale cross-cut routes lingered through the partition";

  world.run_for(sec(2));  // past the heal
  EXPECT_TRUE(world.run_until_routed(sec(120)).has_value())
      << "healed network failed to reconverge";
  return {world.journal()->ordered_digest(),
          world.journal()->canonical_digest(), world.journal()->total(),
          world.checker()->violations().size()};
}

TEST(SoftStateChaos, PartitionExpiryReplaysIdentically) {
  ChaosSig a = run_partition_expiry(chaos_seed());
  ChaosSig b = run_partition_expiry(chaos_seed());
  EXPECT_TRUE(a == b) << "same-seed partition-expiry rerun diverged";
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.total, 0u);
}

}  // namespace
}  // namespace mk
