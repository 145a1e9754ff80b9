// Failure injection: corrupted packets in live runs, node crashes and
// revivals, network partitions and healing, heavy loss, determinism of
// whole-scenario runs — and the chaos conformance suite (fault plans driving
// reconfiguration under churn, each scenario replayed for digest equality).
#include <gtest/gtest.h>

#include <cstdlib>

#include "fault/plan.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/timing.hpp"
#include "testbed/world.hpp"
#include "util/rng.hpp"

namespace mk {
namespace {

TEST(FailureInjection, CorruptedControlPacketsDontDerailOlsr) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");

  // A misbehaving node squirts random garbage into the channel every 500ms.
  Rng rng(99);
  PeriodicTimer jammer(world.scheduler(), msec(500), [&] {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(1, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    world.node(1).send_control(std::move(junk));
  });
  jammer.start();

  ASSERT_TRUE(world.run_until_routed(sec(90)).has_value())
      << "OLSR must converge despite garbage frames";
  jammer.stop();
  EXPECT_GT(world.kit(0).system().parse_errors(), 0u);
}

TEST(FailureInjection, BitFlippedRealPacketsAreSurvivable) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));

  // Capture a genuine RM packet, flip bits, replay it many times.
  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));

  Rng rng(7);
  auto msg = proto::rm::build_rreq(world.addr(0), 42, world.addr(2),
                                   proto::kDymoMsgHopLimit);
  pbb::Packet pkt;
  pkt.messages.push_back(msg);
  auto bytes = pbb::serialize(pkt);
  for (int i = 0; i < 200; ++i) {
    auto copy = bytes;
    auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(copy.size()) - 1));
    copy[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    world.node(0).send_control(std::move(copy));
    world.run_for(msec(50));
  }
  // Network still functional afterwards.
  world.node(2).clear_deliveries();
  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(5));
  EXPECT_GE(world.node(2).deliveries().size(), 1u);
}

TEST(FailureInjection, NodeCrashAndReviveOlsr) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  // "Crash" node 2: device down (radios off, daemon silent).
  world.node(2).device().set_up(false);
  world.run_for(sec(25));
  EXPECT_FALSE(world.has_route(0, world.addr(4)));
  EXPECT_FALSE(world.has_route(0, world.addr(2)));

  // Revive: routes re-form.
  world.node(2).device().set_up(true);
  bool healed = false;
  for (int i = 0; i < 60 && !healed; ++i) {
    world.run_for(sec(1));
    healed = world.has_route(0, world.addr(4));
  }
  EXPECT_TRUE(healed);
}

TEST(FailureInjection, PartitionAndHealDymo) {
  testbed::SimWorld world(6);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));

  world.node(0).forwarding().send(world.addr(5), 64);
  world.run_for(sec(4));
  ASSERT_EQ(world.node(5).deliveries().size(), 1u);

  // Partition the network in the middle.
  world.medium().set_link(world.addr(2), world.addr(3), false);
  world.run_for(sec(10));

  // Discovery across the partition must fail cleanly (no crash, gives up).
  world.node(0).forwarding().send(world.addr(5), 64);
  world.run_for(sec(15));
  EXPECT_EQ(world.node(5).deliveries().size(), 1u);
  auto* st = proto::dymo_state(*world.kit(0).protocol("dymo"));
  EXPECT_EQ(st->pending().size(), 0u);

  // Heal: traffic flows again.
  world.medium().set_link(world.addr(2), world.addr(3), true);
  world.run_for(sec(6));
  world.node(0).forwarding().send(world.addr(5), 64);
  world.run_for(sec(6));
  EXPECT_EQ(world.node(5).deliveries().size(), 2u);
}

TEST(FailureInjection, OlsrConvergesUnderHeavyLoss) {
  testbed::SimWorld world(4);
  world.linear();
  world.medium().set_loss_probability(0.3);
  world.deploy_all("olsr");
  EXPECT_TRUE(world.run_until_routed(sec(180)).has_value())
      << "30% loss slows but must not prevent convergence";
}

TEST(FailureInjection, AsymmetricLinkNeverUsedForRouting) {
  // 0 <-> 1 symmetric; 1 -> 2 only one-way (2 hears 1, 1 never hears 2).
  testbed::SimWorld world(3);
  world.medium().set_link(world.addr(0), world.addr(1), true);
  world.medium().set_link(world.addr(1), world.addr(2), true,
                          /*symmetric=*/false);
  world.deploy_all("olsr");
  world.run_for(sec(40));

  // No route may ever cross the asymmetric edge.
  EXPECT_FALSE(world.has_route(0, world.addr(2)));
  EXPECT_FALSE(world.has_route(1, world.addr(2)));
}

TEST(Determinism, IdenticalSeedsGiveIdenticalOutcomes) {
  auto run = [] {
    testbed::SimWorld world(5, /*seed=*/1234);
    world.linear();
    world.deploy_all("dymo");
    world.run_for(sec(5));
    world.node(0).forwarding().send(world.addr(4), 64);
    world.run_for(sec(10));
    std::vector<std::uint64_t> digest;
    digest.push_back(world.medium().stats().control_frames);
    digest.push_back(world.medium().stats().control_bytes);
    digest.push_back(world.node(4).deliveries().size());
    for (std::size_t i = 0; i < 5; ++i) {
      digest.push_back(world.node(i).kernel_table().size());
    }
    return digest;
  };
  EXPECT_EQ(run(), run()) << "simulation must be deterministic per seed";
}

TEST(FailureInjection, UndeployUnderTrafficIsClean) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));

  // Packets in flight while node 1 tears its stack down and rebuilds it.
  world.node(0).forwarding().send(world.addr(2), 64);
  world.kit(1).undeploy("dymo");
  world.run_for(sec(2));
  world.kit(1).deploy("dymo");
  world.run_for(sec(8));

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(6));
  EXPECT_GE(world.node(2).deliveries().size(), 1u);
}

// ======================= chaos conformance suite ============================
// Each scenario is a pure function of its seed: it builds a fresh world with
// continuous invariant checking on, arms a deterministic fault plan, drives a
// reconfiguration through that churn, and returns the journal digests plus
// the violation count. Every TEST runs its scenario twice and demands
// bit-identical ordered digests — the replay guarantee the fault subsystem
// promises — and zero invariant violations throughout. The seed comes from
// MK_CHAOS_SEED (CI runs a fixed seed matrix), defaulting to 1234.

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
  bool operator==(const ChaosSig&) const = default;
};

/// End-of-scenario harvest: a full invariant sweep on top of the continuous
/// checks, then the digest triple.
ChaosSig finish(testbed::SimWorld& world) {
  world.checker()->check_all(world.now().us);
  return ChaosSig{world.journal()->ordered_digest(),
                  world.journal()->canonical_digest(),
                  world.journal()->total(),
                  world.checker()->violations().size()};
}

/// Scenario: OLSR -> DYMO on every node while the network is split in two,
/// heal, push data across the healed cut, then swap back to OLSR and fully
/// reconverge.
ChaosSig run_swap_under_partition(std::uint64_t seed) {
  testbed::SimWorld world(6, seed);
  world.enable_invariants();
  world.linear();
  world.deploy_all("olsr");
  EXPECT_TRUE(world.run_until_routed(sec(90)).has_value());

  fault::FaultPlan plan;
  plan.partition(sec(1), {world.addr(0), world.addr(1), world.addr(2)},
                 {world.addr(3), world.addr(4), world.addr(5)});
  plan.heal(sec(8));
  world.apply_fault_plan(plan, seed ^ 0x5eed);
  world.run_for(sec(2));  // the partition is now live

  // OLSR and DYMO S elements are not compatible: carry nothing across.
  for (std::size_t i = 0; i < world.size(); ++i) {
    auto rep = world.kit(i).replace_protocol("olsr", "dymo", false);
    EXPECT_TRUE(rep.committed);
    world.kit(i).undeploy("mpr");
  }
  world.run_for(sec(8));  // heal fires 8s after arm

  // Traffic across the healed cut proves DYMO took over end to end.
  world.node(0).forwarding().send(world.addr(5), 64);
  world.run_for(sec(10));
  EXPECT_GE(world.node(5).deliveries().size(), 1u);

  // ...and back again: DYMO -> OLSR, full proactive reconvergence.
  for (std::size_t i = 0; i < world.size(); ++i) {
    auto rep = world.kit(i).replace_protocol("dymo", "olsr", false);
    EXPECT_TRUE(rep.committed);
  }
  EXPECT_TRUE(world.run_until_routed(sec(180)).has_value());
  return finish(world);
}

TEST(ChaosConformance, SwapUnderPartitionReplaysIdentically) {
  ChaosSig a = run_swap_under_partition(chaos_seed());
  ChaosSig b = run_swap_under_partition(chaos_seed());
  EXPECT_EQ(a, b) << "same-seed chaos rerun diverged";
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.total, 0u);
}

/// Scenario: a relay node crashes, its protocol image is swapped (DYMO ->
/// DYMO, state carried) while it is dark, then it restarts — the transferred
/// S element must survive the crash window and the path must heal.
ChaosSig run_crash_mid_swap(std::uint64_t seed) {
  testbed::SimWorld world(5, seed);
  world.enable_invariants();
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_EQ(world.node(4).deliveries().size(), 1u);

  // A second DYMO image for the relay to swap to mid-crash.
  world.kit(2).register_protocol(
      "dymo2", 20, [](core::Manetkit& k) { return proto::build_dymo_cf(k); },
      "reactive");

  fault::FaultPlan plan;
  plan.crash(msec(100), world.addr(2));
  plan.restart(sec(5), world.addr(2));
  world.apply_fault_plan(plan, seed + 17);
  world.run_for(sec(1));  // crash has fired; node 2 is dark

  // Swap the crashed relay's protocol, carrying its S element through. A
  // recognisable long-lived route seeded into the state must survive the
  // transfer verbatim (learned routes have already aged out by now).
  auto* st_before = proto::dymo_state(*world.kit(2).protocol("dymo"));
  EXPECT_NE(st_before, nullptr);
  st_before->update_route(99, 1, 98, 1, TimePoint{0}, sec(600));
  std::size_t routes_before = st_before->route_count();

  auto rep = world.kit(2).replace_protocol("dymo", "dymo2");
  EXPECT_TRUE(rep.committed);
  auto* st_after = proto::dymo_state(*rep.instance);
  EXPECT_NE(st_after, nullptr);
  if (st_after != nullptr) {
    EXPECT_EQ(st_after->route_count(), routes_before);
    EXPECT_TRUE(st_after->route_to(99).has_value());
  }

  world.run_for(sec(5));  // restart fires 5s after arm
  world.node(4).clear_deliveries();
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(10));
  EXPECT_GE(world.node(4).deliveries().size(), 1u)
      << "path through the revived relay must heal";
  return finish(world);
}

TEST(ChaosConformance, CrashMidSwapTransfersStateAndReplaysIdentically) {
  ChaosSig a = run_crash_mid_swap(chaos_seed());
  ChaosSig b = run_crash_mid_swap(chaos_seed());
  EXPECT_EQ(a, b) << "same-seed chaos rerun diverged";
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.total, 0u);
}

/// Scenario: OLSR and ZRP co-deployed, then a loss burst (plus duplication
/// and reordering) rakes the medium; both planes must come back and the
/// whole run must stay invariant-clean.
ChaosSig run_loss_burst_zrp_coexist(std::uint64_t seed) {
  testbed::SimWorld world(5, seed);
  world.enable_invariants();
  world.linear();
  world.deploy_all("olsr");  // proactive plane
  world.deploy_all("zrp");   // hybrid plane (fills the one reactive slot)
  world.run_for(sec(10));

  fault::FaultPlan plan = fault::FaultPlan::parse(
      "at 1s loss 0.35 for 3s\n"
      "at 2s dup 0.15 for 2s\n"
      "at 2s reorder 500us for 2s\n");
  world.apply_fault_plan(plan, seed * 31 + 7);
  world.run_for(sec(6));  // the burst opens, rages, and expires
  EXPECT_FALSE(world.injector()->any_window_active());
  EXPECT_GT(world.medium().stats().dropped_fault, 0u);

  EXPECT_TRUE(world.run_until_routed(sec(120)).has_value())
      << "coexisting planes must reconverge after the burst";
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_GE(world.node(4).deliveries().size(), 1u);
  return finish(world);
}

TEST(ChaosConformance, LossBurstDuringZrpCoexistReplaysIdentically) {
  ChaosSig a = run_loss_burst_zrp_coexist(chaos_seed());
  ChaosSig b = run_loss_burst_zrp_coexist(chaos_seed());
  EXPECT_EQ(a, b) << "same-seed chaos rerun diverged";
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.total, 0u);
}

// -------------------------------------------- executor parity under chaos

/// Replace-cycle harness for executor parity: one node churns through
/// committed swaps, a transient failure (rollback, then the caller
/// re-issues) and permanent-failure rollbacks with the pool executor live.
/// All reconfiguration records are appended from the calling thread under
/// the manager's quiescence discipline (drain() precedes every swap), so
/// even the pool executor must reproduce the *ordered* digest. (No sim time
/// passes here on purpose:
/// timer-driven dispatches under the pool interleave with sim-time advance,
/// which is why full world scenarios pin the single-threaded model — see
/// docs/FAULT_INJECTION.md.)
ChaosSig run_replace_chaos(core::ConcurrencyModel model) {
  testbed::SimWorld world(1, /*seed=*/7);
  auto& journal = world.enable_tracing();
  auto& kit = world.kit(0);
  kit.deploy("dymo");

  // Fails exactly once, on its very first bind (the rollback path reuses
  // this builder, so it must be reliable from then on).
  int flaky_attempts = 0;
  kit.register_protocol(
      "dymo2", 20,
      [&flaky_attempts](core::Manetkit& k) {
        if (flaky_attempts++ == 0) {
          throw std::runtime_error("transient bind failure");
        }
        return proto::build_dymo_cf(k);
      },
      "reactive");
  kit.register_protocol(
      "doomed", 20,
      [](core::Manetkit&) -> std::unique_ptr<core::ManetProtocolCf> {
        throw std::runtime_error("permanent bind failure");
      },
      "reactive");

  kit.manager().set_concurrency(model, /*threads=*/4, /*batch=*/8);
  std::string current = "dymo";
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::string next = cycle % 2 == 0 ? "dymo2" : "dymo";
    auto good = kit.replace_protocol(current, next);
    if (cycle == 0) {
      // dymo2's first bind fails: one attempt, rolled back onto `current`;
      // the re-issued call commits.
      EXPECT_FALSE(good.committed);
      EXPECT_TRUE(kit.is_deployed(current));
      good = kit.replace_protocol(current, next);
    }
    EXPECT_TRUE(good.committed);
    current = next;
    auto bad = kit.replace_protocol(current, "doomed");
    EXPECT_FALSE(bad.committed);  // rolled back onto `current`
    EXPECT_TRUE(kit.is_deployed(current));
  }
  kit.manager().set_concurrency(core::ConcurrencyModel::kSingleThreaded);
  return ChaosSig{journal.ordered_digest(), journal.canonical_digest(),
                  journal.total(), 0};
}

TEST(ChaosConformance, ReplaceChaosOrderedDigestMatchesAcrossExecutors) {
  ChaosSig single = run_replace_chaos(core::ConcurrencyModel::kSingleThreaded);
  ChaosSig single2 = run_replace_chaos(core::ConcurrencyModel::kSingleThreaded);
  ChaosSig pooled =
      run_replace_chaos(core::ConcurrencyModel::kThreadPerNMessages);
  EXPECT_EQ(single, single2) << "replace chaos is not reproducible";
  EXPECT_EQ(single.ordered, pooled.ordered)
      << "quiesced reconfiguration must journal identically under the pool";
  EXPECT_EQ(single.canonical, pooled.canonical);
  EXPECT_GT(single.total, 0u);
}

}  // namespace
}  // namespace mk
