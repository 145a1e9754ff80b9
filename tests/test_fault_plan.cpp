// Fault subsystem units: plan builder/parser round-trips, injector action
// semantics (loss bursts, duplication, reordering, partition/heal,
// crash/restart, bounded drift), journaled drop accounting, determinism of
// (plan, seed) replays, and the hardened replace path — one attempt with the
// carried S element installed before start, rollback-to-prior-graph (state
// restored) on failure, refusal to replace onto an already-deployed unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

using fault::FaultKind;
using fault::FaultPlan;

net::Addr n(std::uint32_t i) { return net::addr_for_index(i); }

std::size_t count_drops(const obs::Journal& journal, obs::DropReason reason) {
  std::size_t count = 0;
  for (const auto& r : journal.snapshot()) {
    if (r.kind == obs::RecordKind::kFrameDrop &&
        r.c == static_cast<std::uint64_t>(reason)) {
      ++count;
    }
  }
  return count;
}

std::size_t count_kind(const obs::Journal& journal, obs::RecordKind kind) {
  std::size_t count = 0;
  for (const auto& r : journal.snapshot()) {
    if (r.kind == kind) ++count;
  }
  return count;
}

// ------------------------------------------------------------------- plan

TEST(FaultPlan, BuilderRecordsActionsInOrder) {
  FaultPlan plan;
  plan.loss_burst(sec(5), 0.5, sec(2))
      .partition(sec(8), {n(0), n(1)}, {n(2)})
      .heal(sec(12))
      .crash(sec(9), n(2))
      .restart(sec(11), n(2))
      .clock_drift(sec(2), n(3), 1.05, sec(10));
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.actions()[0].kind, FaultKind::kLossBurst);
  EXPECT_EQ(plan.actions()[1].group_b, std::vector<net::Addr>{n(2)});
  EXPECT_EQ(plan.actions()[3].from, n(2));
  EXPECT_DOUBLE_EQ(plan.actions()[5].p, 1.05);
}

TEST(FaultPlan, ParsesEveryActionKindAndRoundTrips) {
  const char* text =
      "# chaos schedule\n"
      "at 5s loss 0.5 for 2s\n"
      "at 5s loss 0.8 link 1 2 for 500ms\n"
      "at 3s dup 0.25 for 4s\n"
      "at 4s reorder 300us for 2s\n"
      "\n"
      "at 8s partition 0 1 2 | 3 4\n"
      "at 12s heal\n"
      "at 9s crash 2\n"
      "at 11s restart 2\n"
      "at 2s drift 3 1.05 for 10s\n";
  FaultPlan plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.size(), 9u);
  EXPECT_EQ(plan.actions()[0].at, sec(5));
  EXPECT_EQ(plan.actions()[1].from, n(1));
  EXPECT_EQ(plan.actions()[1].to, n(2));
  EXPECT_EQ(plan.actions()[1].duration, msec(500));
  EXPECT_EQ(plan.actions()[3].jitter, usec(300));
  EXPECT_EQ(plan.actions()[4].group_a.size(), 3u);
  EXPECT_EQ(plan.actions()[4].group_b.size(), 2u);

  // to_text() -> parse() is the identity on the action list.
  FaultPlan again = FaultPlan::parse(plan.to_text());
  EXPECT_EQ(again.actions(), plan.actions());
}

TEST(FaultPlan, ParseRejectsMalformedLinesWithLineNumbers) {
  EXPECT_THROW(FaultPlan::parse("loss 0.5 for 2s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 5s loss for 2s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 5 loss 0.5 for 2s"),
               std::invalid_argument);  // missing unit
  EXPECT_THROW(FaultPlan::parse("at 5s partition 0 1"),
               std::invalid_argument);  // no second side
  EXPECT_THROW(FaultPlan::parse("at 5s explode 3"), std::invalid_argument);
  try {
    FaultPlan::parse("at 1s heal\nat 2s bogus 1\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, LossBurstDropsAreJournaledWithFaultReason) {
  testbed::SimWorld world(3, /*seed=*/5);
  auto& journal = world.enable_tracing();
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(3));

  FaultPlan plan;
  plan.loss_burst(sec(1), 1.0, sec(4));  // every delivery in the window dies
  world.apply_fault_plan(plan, /*seed=*/11);
  world.run_for(sec(6));

  auto stats = world.medium().stats();
  EXPECT_GT(stats.dropped_fault, 0u);
  EXPECT_EQ(stats.dropped_fault,
            count_drops(journal, obs::DropReason::kFaultLoss));
  // The action firing itself is journaled too.
  EXPECT_EQ(count_kind(journal, obs::RecordKind::kFault), 1u);
  EXPECT_EQ(world.injector()->actions_fired(), 1u);
}

TEST(FaultInjector, LinkScopedLossBurstOnlyHitsThatLink) {
  testbed::SimWorld world(3, /*seed=*/5);
  world.enable_tracing();
  world.linear();
  world.deploy_all("olsr");

  FaultPlan plan;
  plan.loss_burst(sec(1), 1.0, sec(30), n(1), n(2));  // only 1 -> 2 dies
  world.apply_fault_plan(plan);
  world.run_for(sec(20));

  // 0 <-> 1 stays perfect, so 0 and 1 route to each other; 2 never hears 1.
  EXPECT_TRUE(world.has_route(0, world.addr(1)));
  EXPECT_FALSE(world.has_route(2, world.addr(1)));
  EXPECT_GT(world.medium().stats().dropped_fault, 0u);
}

TEST(FaultInjector, DuplicationDeliversExtraCopies) {
  testbed::SimWorld world(2, /*seed=*/5);
  auto& journal = world.enable_tracing();
  world.full_mesh();

  FaultPlan plan;
  plan.duplicate(Duration{}, 1.0, sec(10));  // every frame doubled
  world.apply_fault_plan(plan);
  world.run_for(msec(1));  // let the t=0 action fire and open its window

  world.node(0).send_control(std::vector<std::uint8_t>{1, 2, 3});
  world.run_for(sec(1));

  // One tx, two rx records (original + duplicate).
  std::size_t tx = count_kind(journal, obs::RecordKind::kFrameTx);
  std::size_t rx = count_kind(journal, obs::RecordKind::kFrameRx);
  EXPECT_EQ(tx, 1u);
  EXPECT_EQ(rx, 2u);
}

TEST(FaultInjector, ReorderWindowShufflesArrivalsDeterministically) {
  auto arrival_order = [](bool reorder) {
    testbed::SimWorld world(2, /*seed=*/5);
    auto& journal = world.enable_tracing();
    world.full_mesh();
    if (reorder) {
      FaultPlan plan;
      plan.reorder(Duration{}, msec(5), sec(10));
      world.apply_fault_plan(plan, /*seed=*/3);
    }
    world.run_for(msec(1));  // identical in both runs; opens the window
    // A salvo of distinct frames launched back-to-back: without jitter they
    // arrive in launch order; with jitter some pair swaps.
    for (std::uint8_t i = 0; i < 8; ++i) {
      world.node(0).send_control(std::vector<std::uint8_t>{i});
    }
    world.run_for(sec(1));
    std::vector<std::uint64_t> order;
    for (const auto& r : journal.snapshot()) {
      if (r.kind == obs::RecordKind::kFrameRx) order.push_back(r.c);
    }
    return order;
  };

  auto plain = arrival_order(false);
  auto shuffled = arrival_order(true);
  ASSERT_EQ(plain.size(), 8u);
  ASSERT_EQ(shuffled.size(), 8u);
  EXPECT_TRUE(std::is_permutation(plain.begin(), plain.end(),
                                  shuffled.begin()));
  EXPECT_NE(plain, shuffled) << "5ms max jitter on back-to-back frames must "
                                "reorder at least one pair";
  // Same plan, same seed: the shuffle itself replays identically.
  EXPECT_EQ(shuffled, arrival_order(true));
}

TEST(FaultInjector, PartitionCutsAndHealRestoresExactly) {
  testbed::SimWorld world(5, /*seed=*/5);
  world.enable_tracing();
  world.linear();
  // An extra long-range chord crossing the cut: must come back after heal.
  world.medium().set_link(world.addr(1), world.addr(3), true);

  FaultPlan plan;
  plan.partition(sec(1), {n(0), n(1), n(2)}, {n(3), n(4)});
  plan.heal(sec(2));
  world.apply_fault_plan(plan);

  world.run_for(msec(1500));
  EXPECT_FALSE(world.medium().has_link(world.addr(2), world.addr(3)));
  EXPECT_FALSE(world.medium().has_link(world.addr(1), world.addr(3)));
  EXPECT_TRUE(world.medium().has_link(world.addr(1), world.addr(2)));

  world.run_for(sec(1));
  EXPECT_TRUE(world.medium().has_link(world.addr(2), world.addr(3)));
  EXPECT_TRUE(world.medium().has_link(world.addr(3), world.addr(2)));
  EXPECT_TRUE(world.medium().has_link(world.addr(1), world.addr(3)));
}

TEST(FaultInjector, CrashedNodeDropsAreJournaledAsNodeDown) {
  testbed::SimWorld world(2, /*seed=*/5);
  auto& journal = world.enable_tracing();
  world.full_mesh();

  FaultPlan plan;
  plan.crash(msec(1), n(1));
  plan.restart(sec(2), n(1));
  world.apply_fault_plan(plan);
  world.run_for(sec(1));

  EXPECT_FALSE(world.node(1).device().is_up());
  world.node(0).send_control(std::vector<std::uint8_t>{42});
  world.run_for(msec(100));
  EXPECT_EQ(count_drops(journal, obs::DropReason::kNodeDown), 1u)
      << "a frame to a crashed node must leave a drop record, not vanish";

  world.run_for(sec(2));
  EXPECT_TRUE(world.node(1).device().is_up());
}

TEST(FaultInjector, InFlightFramesDroppedByLateLinkCutAreJournaled) {
  testbed::SimWorld world(2, /*seed=*/5);
  auto& journal = world.enable_tracing();
  world.full_mesh();

  // Launch a broadcast, cut the link while it is "on the air".
  world.node(0).send_control(std::vector<std::uint8_t>{7});
  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(1));

  EXPECT_EQ(count_kind(journal, obs::RecordKind::kFrameRx), 0u);
  EXPECT_EQ(count_drops(journal, obs::DropReason::kLinkLost), 1u);
  EXPECT_EQ(world.medium().stats().dropped_link_lost, 1u);
}

TEST(FaultInjector, ClockDriftIsBoundedAndExpires) {
  testbed::SimWorld world(2, /*seed=*/5);
  world.full_mesh();

  FaultPlan plan;
  plan.clock_drift(Duration{}, n(0), 50.0, sec(1));  // absurd: clamped to 2.0
  world.apply_fault_plan(plan);
  world.run_for(msec(10));
  EXPECT_DOUBLE_EQ(world.medium().clock_drift(world.addr(0)), 2.0);

  world.run_for(sec(2));  // window over: drift cleared
  EXPECT_DOUBLE_EQ(world.medium().clock_drift(world.addr(0)), 1.0);
}

TEST(FaultInjector, SamePlanAndSeedsReplayBitIdentically) {
  auto run = [](std::uint64_t fault_seed) {
    testbed::SimWorld world(4, /*seed=*/77);
    auto& journal = world.enable_tracing();
    world.linear();
    world.deploy_all("olsr");
    FaultPlan plan = FaultPlan::parse(
        "at 2s loss 0.3 for 3s\n"
        "at 4s dup 0.2 for 2s\n"
        "at 6s reorder 2ms for 2s\n"
        "at 3s crash 1\n"
        "at 5s restart 1\n");
    world.apply_fault_plan(plan, fault_seed);
    world.run_for(sec(12));
    return std::pair{journal.ordered_digest(), journal.total()};
  };
  auto a = run(9);
  auto b = run(9);
  EXPECT_EQ(a, b) << "same (world seed, plan, fault seed) must replay "
                     "bit-identically";
  auto c = run(10);
  EXPECT_NE(a.first, c.first)
      << "a different fault seed must hit different frames";
}

// ------------------------------------------------- commit / rollback path

/// Registers a protocol whose builder throws `failures` times before
/// delegating to the real DYMO builder.
void register_flaky(core::Manetkit& kit, const std::string& name,
                    int failures, int* attempts) {
  kit.register_protocol(
      name, 20,
      [failures, attempts](core::Manetkit& k) {
        if ((*attempts)++ < failures) {
          throw std::runtime_error("transient bind failure");
        }
        return proto::build_dymo_cf(k);
      },
      "reactive");
}

/// An Event Source that counts its starts, or throws from start() when
/// `fail` is set.
class StartProbe final : public core::EventSource {
 public:
  StartProbe(int* starts, bool fail)
      : core::EventSource("StartProbe"), starts_(starts), fail_(fail) {}
  void start(core::ProtocolContext&) override {
    ++*starts_;
    if (fail_) throw std::runtime_error("start failure");
  }
  void stop() override {}

 private:
  int* starts_;
  bool fail_;
};

/// Registers DYMO plus a StartProbe source under `name`.
void register_probed(core::Manetkit& kit, const std::string& name,
                     int* starts, bool fail) {
  kit.register_protocol(
      name, 20,
      [starts, fail](core::Manetkit& k) {
        auto cf = proto::build_dymo_cf(k);
        cf->add_source(std::make_unique<StartProbe>(starts, fail));
        return cf;
      },
      "reactive");
}

/// Deploys DYMO on `kit` with a recognisable route to 99 in its S element.
core::ManetProtocolCf* deploy_dymo_with_route(core::Manetkit& kit) {
  auto* dymo = kit.deploy("dymo");
  proto::dymo_state(*dymo)->update_route(99, 1, 98, 1, TimePoint{0}, sec(60));
  return dymo;
}

bool has_route_99(core::ManetProtocolCf* proto) {
  auto* st = proto::dymo_state(*proto);
  return st != nullptr && st->route_to(99).has_value();
}

TEST(ReplaceProtocol, TransientBindFailureRollsBackThenReissueCommits) {
  testbed::SimWorld world(2, /*seed=*/5);
  auto& journal = world.enable_tracing();
  world.full_mesh();
  auto& kit = world.kit(0);
  deploy_dymo_with_route(kit);

  int attempts = 0;
  register_flaky(kit, "flaky", /*failures=*/1, &attempts);

  // One attempt, no retry inside the call: the failure rolls back onto DYMO
  // with the carried route restored.
  auto first = kit.replace_protocol("dymo", "flaky");
  EXPECT_FALSE(first.committed);
  EXPECT_FALSE(first.error.empty());
  EXPECT_EQ(attempts, 1);
  EXPECT_FALSE(kit.is_deployed("flaky"));
  ASSERT_TRUE(kit.is_deployed("dymo"));
  EXPECT_EQ(first.instance, kit.protocol("dymo"));
  EXPECT_TRUE(kit.protocol("dymo")->running());
  EXPECT_TRUE(has_route_99(kit.protocol("dymo")));

  // Retrying is the caller's choice: the re-issued call commits and carries
  // the route across.
  auto second = kit.replace_protocol("dymo", "flaky");
  EXPECT_TRUE(second.committed);
  EXPECT_TRUE(kit.is_deployed("flaky"));
  EXPECT_FALSE(kit.is_deployed("dymo"));
  EXPECT_TRUE(has_route_99(second.instance));

  EXPECT_EQ(kit.metrics().counter_value("fm.replace_attempts"), 2u);
  EXPECT_EQ(kit.metrics().counter_value("fm.replace_rollbacks"), 1u);
  EXPECT_EQ(kit.metrics().counter_value("fm.replace_commits"), 1u);

  using P = obs::ReconfigPhase;
  std::vector<P> phases;
  for (const auto& r : journal.snapshot()) {
    if (r.kind == obs::RecordKind::kReconfig) {
      phases.push_back(static_cast<P>(r.a));
    }
  }
  EXPECT_EQ(phases, (std::vector<P>{P::kBegin, P::kRollback, P::kBegin,
                                    P::kCommit}));
}

TEST(ReplaceProtocol, CarriedStateReplaceStartsNewInstanceOnce) {
  testbed::SimWorld world(1, /*seed=*/5);
  auto& kit = world.kit(0);
  deploy_dymo_with_route(kit);

  int starts = 0;
  register_probed(kit, "probed", &starts, /*fail=*/false);
  auto report = kit.replace_protocol("dymo", "probed");

  ASSERT_TRUE(report.committed);
  EXPECT_EQ(starts, 1) << "the carried S element goes in before the one start";
  EXPECT_TRUE(report.instance->running());
  EXPECT_TRUE(has_route_99(report.instance));
}

TEST(ReplaceProtocol, StartFailureRollsBackWithCarriedStateRestored) {
  testbed::SimWorld world(1, /*seed=*/5);
  auto& kit = world.kit(0);
  deploy_dymo_with_route(kit);

  int starts = 0;
  register_probed(kit, "broken", &starts, /*fail=*/true);
  auto report = kit.replace_protocol("dymo", "broken");

  // start() threw after the S element went in: it is taken back out of the
  // half-deployed unit, which is scrubbed, and the rollback restores it.
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(starts, 1);
  EXPECT_FALSE(kit.is_deployed("broken"));
  ASSERT_TRUE(kit.is_deployed("dymo"));
  EXPECT_TRUE(kit.protocol("dymo")->running());
  EXPECT_TRUE(has_route_99(kit.protocol("dymo")));
  EXPECT_EQ(kit.metrics().counter_value("fm.replace_rollbacks"), 1u);
}

TEST(ReplaceProtocol, ReplaceOntoDeployedUnitIsRefusedUntouched) {
  testbed::SimWorld world(1, /*seed=*/5);
  auto& kit = world.kit(0);
  auto* dymo = kit.deploy("dymo");  // deploys "neighbor" as its substrate
  auto* neighbor = kit.protocol("neighbor");
  ASSERT_NE(neighbor, nullptr);
  oc::Component* table = neighbor->state_component();
  ASSERT_NE(dynamic_cast<proto::NeighborTable*>(table), nullptr);

  EXPECT_THROW(kit.replace_protocol("dymo", "neighbor"), std::logic_error);

  EXPECT_EQ(kit.protocol("dymo"), dymo);
  EXPECT_TRUE(dymo->running());
  EXPECT_NE(proto::dymo_state(*dymo), nullptr);
  EXPECT_EQ(kit.protocol("neighbor"), neighbor);
  EXPECT_EQ(neighbor->state_component(), table);
  EXPECT_TRUE(neighbor->running());
  EXPECT_EQ(kit.metrics().counter_value("fm.replace_attempts"), 0u);
}

TEST(ReplaceProtocol, PermanentFailureRollsBackBindingGraphAndState) {
  testbed::SimWorld world(2, /*seed=*/5);
  world.enable_invariants();
  world.full_mesh();
  auto& kit = world.kit(0);
  auto* dymo = kit.deploy("dymo");

  // Seed recognisable protocol state, snapshot the binding graph.
  proto::dymo_state(*dymo)->update_route(99, 1, 98, 1, TimePoint{0}, sec(60));
  std::vector<std::pair<std::string, int>> before;
  for (auto* u : kit.manager().units()) {
    before.emplace_back(u->unit_name(), kit.layer_of(u->unit_name()));
  }

  int attempts = 0;
  register_flaky(kit, "doomed", /*failures=*/1'000'000, &attempts);

  auto report = kit.replace_protocol("dymo", "doomed");

  EXPECT_FALSE(report.committed);
  EXPECT_FALSE(report.error.empty());
  EXPECT_FALSE(kit.is_deployed("doomed"));
  ASSERT_TRUE(kit.is_deployed("dymo"));
  EXPECT_TRUE(kit.protocol("dymo")->running());
  EXPECT_EQ(kit.metrics().counter_value("fm.replace_rollbacks"), 1u);

  // The prior binding graph is restored unit-for-unit...
  std::vector<std::pair<std::string, int>> after;
  for (auto* u : kit.manager().units()) {
    after.emplace_back(u->unit_name(), kit.layer_of(u->unit_name()));
  }
  EXPECT_EQ(before, after);
  // ...the carried S element went back in...
  auto* st = proto::dymo_state(*kit.protocol("dymo"));
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->route_to(99).has_value());
  // ...and the whole failed excursion upset no routing invariant.
  world.run_for(sec(2));
  EXPECT_TRUE(world.checker()->violations().empty());
  EXPECT_EQ(world.checker()->check_all(world.now().us), 0u);
}

TEST(ReplaceProtocol, SwitchProtocolThrowsButRollsBackOnFailure) {
  testbed::SimWorld world(1, /*seed=*/5);
  auto& kit = world.kit(0);
  kit.deploy("dymo");
  EXPECT_THROW(kit.switch_protocol("dymo", "no_such_builder", false),
               std::logic_error);
  EXPECT_TRUE(kit.is_deployed("dymo"))
      << "a failed switch must leave the prior protocol live";
  EXPECT_TRUE(kit.protocol("dymo")->running());
}

}  // namespace
}  // namespace mk
