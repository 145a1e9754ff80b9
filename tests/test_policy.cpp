// Policy engine: rule evaluation, sustain/cooldown semantics, context
// snapshots, and the default adaptive rule set driving real protocol
// switches and variant application.
#include <gtest/gtest.h>

#include "policy/policy_engine.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "testbed/world.hpp"

namespace mk::policy {
namespace {

TEST(PolicyEngine, SnapshotReflectsNodeState) {
  testbed::SimWorld world(3);
  world.full_mesh();
  world.kit(0).deploy("olsr");
  world.node(0).set_battery(0.6);

  Engine engine(world.kit(0));
  auto view = engine.snapshot();
  EXPECT_EQ(view.neighbor_count, 2u);
  EXPECT_DOUBLE_EQ(view.battery, 0.6);
  EXPECT_TRUE(view.deployed("olsr"));
  EXPECT_TRUE(view.deployed("mpr"));
  EXPECT_FALSE(view.deployed("dymo"));
  EXPECT_FALSE(view.power_aware);
}

TEST(PolicyEngine, RuleFiresWhenConditionHolds) {
  testbed::SimWorld world(1);
  Engine engine(world.kit(0));
  int fired = 0;
  engine.add_rule(Rule{"always",
                       [](const ContextView&) { return true; },
                       [&fired](core::Manetkit&) { ++fired; },
                       /*cooldown=*/sec(0), /*sustain=*/1});
  EXPECT_EQ(engine.evaluate(), std::vector<std::string>{"always"});
  EXPECT_EQ(fired, 1);
}

TEST(PolicyEngine, CooldownSuppressesRefiring) {
  testbed::SimWorld world(1);
  Engine engine(world.kit(0));
  int fired = 0;
  engine.add_rule(Rule{"cool",
                       [](const ContextView&) { return true; },
                       [&fired](core::Manetkit&) { ++fired; },
                       /*cooldown=*/sec(10), /*sustain=*/1});
  engine.evaluate();
  engine.evaluate();  // within cooldown: suppressed
  EXPECT_EQ(fired, 1);
  world.run_for(sec(11));
  engine.evaluate();
  EXPECT_EQ(fired, 2);
}

TEST(PolicyEngine, SustainDebouncesFlappingCondition) {
  testbed::SimWorld world(1);
  Engine engine(world.kit(0));
  int fired = 0;
  bool flag = false;
  engine.add_rule(Rule{"sustained",
                       [&flag](const ContextView&) { return flag; },
                       [&fired](core::Manetkit&) { ++fired; },
                       /*cooldown=*/sec(0), /*sustain=*/3});
  flag = true;
  engine.evaluate();
  engine.evaluate();
  EXPECT_EQ(fired, 0);  // held only twice
  flag = false;
  engine.evaluate();    // resets the hold counter
  flag = true;
  engine.evaluate();
  engine.evaluate();
  EXPECT_EQ(fired, 0);
  engine.evaluate();    // third consecutive hold
  EXPECT_EQ(fired, 1);
}

TEST(PolicyEngine, ThrowingConditionIsIsolated) {
  testbed::SimWorld world(1);
  Engine engine(world.kit(0));
  int fired = 0;
  engine.add_rule(Rule{"bad",
                       [](const ContextView&) -> bool {
                         throw std::runtime_error("boom");
                       },
                       [](core::Manetkit&) {}, sec(0), 1});
  engine.add_rule(Rule{"good",
                       [](const ContextView&) { return true; },
                       [&fired](core::Manetkit&) { ++fired; }, sec(0), 1});
  EXPECT_EQ(engine.evaluate(), std::vector<std::string>{"good"});
  EXPECT_EQ(fired, 1);
}

TEST(PolicyEngine, PowerStatusSignalReachesRules) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.system().ensure_power_status(msec(500));
  world.node(0).set_battery(0.33);

  Engine engine(kit);
  world.run_for(sec(2));
  auto view = engine.snapshot();
  EXPECT_NEAR(view.signal("battery", -1), 0.33, 1e-9);
}

TEST(DefaultRules, DenseNetworkSwitchesToReactive) {
  testbed::SimWorld world(8);
  world.full_mesh();  // 7 neighbours each: dense
  world.deploy_all("olsr");
  world.run_for(sec(10));

  Engine engine(world.kit(0));
  for (auto& r : default_adaptive_rules(/*reactive_threshold=*/6)) {
    engine.add_rule(std::move(r));
  }
  engine.start(sec(2));
  world.run_for(sec(10));

  EXPECT_FALSE(world.kit(0).is_deployed("olsr"));
  EXPECT_TRUE(world.kit(0).is_deployed("dymo"));
  EXPECT_GE(engine.firings().at("dense-network-switch-to-reactive"), 1u);
}

TEST(DefaultRules, LowBatteryAppliesPowerAwareAndRecovers) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(10));

  Engine engine(world.kit(1));
  for (auto& r : default_adaptive_rules(/*reactive_threshold=*/50,
                                        /*low_battery=*/0.3)) {
    engine.add_rule(std::move(r));
  }
  engine.start(sec(1));

  world.node(1).set_battery(0.15);
  world.run_for(sec(5));
  EXPECT_TRUE(proto::is_power_aware(world.kit(1)));

  world.node(1).set_battery(0.9);
  world.run_for(sec(40));  // past the cooldown
  EXPECT_FALSE(proto::is_power_aware(world.kit(1)));
}

TEST(DefaultRules, SparseNetworkReturnsToProactive) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));

  Engine engine(world.kit(1));
  for (auto& r : default_adaptive_rules(/*reactive_threshold=*/6)) {
    engine.add_rule(std::move(r));
  }
  engine.start(sec(2));
  world.run_for(sec(15));  // sustain=2 needs two evaluations

  EXPECT_TRUE(world.kit(1).is_deployed("olsr"));
  EXPECT_FALSE(world.kit(1).is_deployed("dymo"));
}

// ---------------------------------------- replication rules (ISSUE 10)

TEST(ReplicationRules, SnapshotCarriesReplicationContext) {
  testbed::SimWorld world(2);
  world.linear();
  world.enable_replication();
  world.deploy_all("olsr");

  Engine engine(world.kit(0));
  auto view = engine.snapshot();
  EXPECT_EQ(view.replication, core::ReplicationStrategy::kCheckpoint);
  EXPECT_EQ(view.replicas_held, 0u);  // nothing spread yet
  EXPECT_FALSE(view.replicated());

  world.run_for(sec(10));  // checkpoints spread both ways
  view = engine.snapshot();
  EXPECT_GT(view.replicas_held, 0u);
  EXPECT_TRUE(view.replicated());
  EXPECT_GE(view.own_replica_age_us, 0);
}

TEST(ReplicationRules, DegradedUnitEscalatesToHotStandbyAndRelaxesBack) {
  testbed::SimWorld world(1);
  world.enable_replication();
  supervision::SupervisorOptions opts;
  opts.initial_backoff = sec(30);  // keep the quarantine visibly open
  world.enable_supervision(opts);
  auto& kit = world.kit(0);
  kit.deploy("olsr");

  Engine engine(kit);
  for (Rule& r : make_replication_adaptive_rules(/*cooldown=*/sec(0))) {
    engine.add_rule(std::move(r));
  }

  ASSERT_EQ(kit.replication()->strategy(),
            core::ReplicationStrategy::kCheckpoint);

  // A quarantined unit makes the health signal non-empty: escalate. The MPR
  // CF provides NHOOD_CHANGE, one of OLSR's required events, so emitting it
  // there delivers into the misbehaving OLSR unit through the guard.
  world.supervisor(0)->set_misbehaviour("olsr", fault::Misbehave::kThrow);
  for (int i = 0; i < 4; ++i) {
    kit.protocol("mpr")->emit(ev::Event(ev::etype("NHOOD_CHANGE")));
    world.run_for(msec(100));
  }
  ASSERT_EQ(world.supervisor(0)->health("olsr"),
            supervision::UnitHealth::kQuarantined);
  engine.evaluate();
  EXPECT_EQ(kit.replication()->strategy(),
            core::ReplicationStrategy::kHotStandby);

  // Forgiven and clean for three consecutive evaluations: relax.
  world.supervisor(0)->set_misbehaviour("olsr", fault::Misbehave::kNone);
  world.supervisor(0)->forgive("olsr");
  engine.evaluate();
  engine.evaluate();
  engine.evaluate();
  EXPECT_EQ(kit.replication()->strategy(),
            core::ReplicationStrategy::kCheckpoint);
}

}  // namespace
}  // namespace mk::policy
