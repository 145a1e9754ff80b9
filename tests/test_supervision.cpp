// Supervision layer (ISSUE 5): dispatch-boundary fault isolation, the
// deterministic charged-cost watchdog, circuit-breaker quarantine with
// Framework-Manager route-around, the self-healing recovery ladder
// (restart-with-S-element -> fallback -> escalation through the policy
// ContextView), misbehaviour injection from fault plans, and the chaos
// conformance bar: a quarantine-under-partition scenario replayed for
// ordered-digest equality with zero invariant violations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "fault/plan.hpp"
#include "support/alloc_probe.hpp"
#include "util/log.hpp"
#include "policy/policy_engine.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/dymo/opt_flood.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "supervision/supervisor.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

using fault::Misbehave;
using supervision::Supervisor;
using supervision::SupervisorOptions;
using supervision::UnitHealth;

/// Shared across victim re-instantiations (the builder captures a pointer),
/// so delivery counts survive supervised restarts.
struct VictimLog {
  int delivered = 0;
  std::vector<std::uint16_t> seqnums;
};

class VictimHandler final : public core::EventHandler {
 public:
  VictimHandler(VictimLog* log, Duration charge)
      : core::EventHandler("Victim", {"EVT_V"}),
        log_(log),
        charge_(charge) {}

  void handle(const ev::Event& event, core::ProtocolContext&) override {
    ++log_->delivered;
    if (event.has_msg() && event.msg()->seqnum.has_value()) {
      log_->seqnums.push_back(*event.msg()->seqnum);
    }
    if (charge_.count() > 0) Supervisor::charge(charge_);
  }

 private:
  VictimLog* log_;
  Duration charge_;
};

std::unique_ptr<core::ManetProtocolCf> make_simple_cf(
    core::Manetkit& k, const std::string& name,
    std::vector<std::string> required, std::vector<std::string> provided,
    VictimLog* log = nullptr, Duration charge = Duration{0}) {
  auto cf = std::make_unique<core::ManetProtocolCf>(
      name, k.scheduler(), k.self(), &k.system().sys_state());
  if (log != nullptr) {
    cf->add_handler(std::make_unique<VictimHandler>(log, charge));
  }
  cf->declare_events(required, provided);
  return cf;
}

void register_victim(core::Manetkit& kit, VictimLog* log,
                     Duration charge = Duration{0}) {
  kit.register_protocol("victim", 10, [log, charge](core::Manetkit& k) {
    return make_simple_cf(k, "victim", {"EVT_V"}, {}, log, charge);
  });
}

void register_producer(core::Manetkit& kit) {
  kit.register_protocol("producer", 20, [](core::Manetkit& k) {
    return make_simple_cf(k, "producer", {}, {"EVT_V"});
  });
}

void emit_v(core::Manetkit& kit, int n = 1) {
  for (int i = 0; i < n; ++i) {
    kit.protocol("producer")->emit(ev::Event(ev::etype("EVT_V")));
  }
}

std::size_t count_kind(const obs::Journal& journal, obs::RecordKind kind) {
  std::size_t count = 0;
  for (const auto& r : journal.snapshot()) {
    if (r.kind == kind) ++count;
  }
  return count;
}

// ------------------------------------------------------------- isolation

TEST(Supervision, HealthyDispatchIsTransparent) {
  testbed::SimWorld world(1);
  world.enable_supervision();
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");

  emit_v(world.kit(0), 3);
  EXPECT_EQ(log.delivered, 3);
  EXPECT_EQ(world.supervisor(0)->faults("victim"), 0u);
  EXPECT_EQ(world.supervisor(0)->health("victim"), UnitHealth::kHealthy);
  EXPECT_GE(world.kit(0).metrics().counter_value("sup.guarded_dispatches"), 3u);
}

TEST(Supervision, QuarantineAfterThresholdFaultsThenRecovery) {
  testbed::SimWorld world(1);
  world.enable_tracing();
  SupervisorOptions opts;
  opts.fault_threshold = 3;
  opts.initial_backoff = msec(200);
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(world.kit(0), 2);
  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy) << "below threshold";
  emit_v(world.kit(0));
  EXPECT_EQ(sup.health("victim"), UnitHealth::kQuarantined);
  EXPECT_EQ(sup.faults("victim"), 3u);
  EXPECT_EQ(log.delivered, 0) << "throw mode never reaches the handler";

  // Routed around: emissions towards the quarantined unit vanish.
  emit_v(world.kit(0), 5);
  EXPECT_EQ(sup.faults("victim"), 3u);
  EXPECT_EQ(log.delivered, 0);

  // Root cause fixed; the recovery ladder re-instantiates the unit.
  sup.set_misbehaviour("victim", Misbehave::kNone);
  world.run_for(msec(500));
  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy);
  emit_v(world.kit(0));
  EXPECT_EQ(log.delivered, 1) << "recovered unit must receive events again";

  const obs::Journal& journal = *world.journal();
  EXPECT_GE(count_kind(journal, obs::RecordKind::kComponentFault), 3u);
  EXPECT_GE(count_kind(journal, obs::RecordKind::kQuarantine), 3u)
      << "expect at least enter + restart + recover records";
}

TEST(Supervision, SlidingWindowForgetsOldFaults) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 3;
  opts.fault_window = msec(500);
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("victim", Misbehave::kThrow);
  for (int i = 0; i < 5; ++i) {
    emit_v(world.kit(0));
    world.run_for(sec(1));  // each fault ages out before the next lands
  }
  EXPECT_EQ(sup.faults("victim"), 5u) << "lifetime count keeps growing";
  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy)
      << "never 3 faults inside one 500ms window";
}

// -------------------------------------------------------------- watchdog

TEST(Supervision, WatchdogFlagsChargedDeadlineOverrun) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.deadline = msec(100);
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log, /*charge=*/msec(250));
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");

  emit_v(world.kit(0));
  EXPECT_EQ(log.delivered, 1) << "deadline overruns still deliver";
  EXPECT_EQ(world.supervisor(0)->faults("victim"), 1u);
  EXPECT_EQ(world.supervisor(0)->health("victim"), UnitHealth::kQuarantined);
  EXPECT_EQ(world.kit(0).metrics().counter_value("sup.deadline_faults"), 1u);
}

TEST(Supervision, ChargeUnderDeadlineIsNotAFault) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.deadline = msec(100);
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log, /*charge=*/msec(99));
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");

  emit_v(world.kit(0), 10);
  EXPECT_EQ(log.delivered, 10);
  EXPECT_EQ(world.supervisor(0)->faults("victim"), 0u)
      << "charge does not accumulate across dispatches";
}

// --------------------------------------------------- misbehaviour modes

TEST(Supervision, StallMisbehaviourDeliversButTripsWatchdog) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 3;
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("victim", Misbehave::kStall);
  emit_v(world.kit(0));
  EXPECT_EQ(log.delivered, 1) << "stall delivers, unlike throw";
  EXPECT_EQ(sup.faults("victim"), 1u);
  EXPECT_EQ(world.kit(0).metrics().counter_value("sup.deadline_faults"), 1u);
}

TEST(Supervision, CorruptMisbehaviourMutatesDeterministically) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 100;  // observe the mutation, not the breaker
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");
  world.supervisor(0)->set_misbehaviour("victim", Misbehave::kCorrupt);

  for (int i = 0; i < 2; ++i) {
    ev::Event e(ev::etype("EVT_V"));
    pbb::Message m;
    m.seqnum = 100;
    e.set_msg(std::move(m));
    world.kit(0).protocol("producer")->emit(std::move(e));
  }
  ASSERT_EQ(log.seqnums.size(), 2u);
  // Salted per injection: both copies damaged, differently, reproducibly.
  EXPECT_EQ(log.seqnums[0], 100u ^ static_cast<std::uint16_t>(1u * 0x9e37u));
  EXPECT_EQ(log.seqnums[1], 100u ^ static_cast<std::uint16_t>(2u * 0x9e37u));
  EXPECT_EQ(world.supervisor(0)->faults("victim"), 2u)
      << "corrupt injections are flagged as output-integrity faults";
}

// ------------------------------------------------------- recovery ladder

TEST(Supervision, SElementSurvivesSupervisedRestart) {
  testbed::SimWorld world(2);
  world.linear();
  world.deploy_all("dymo");
  SupervisorOptions opts;
  opts.fault_threshold = 2;
  opts.fault_window = sec(5);
  opts.initial_backoff = sec(2);
  world.enable_supervision(opts);
  world.run_for(sec(2));

  // A recognisable long-lived route seeded into node 0's S element.
  auto* st = proto::dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st, nullptr);
  st->update_route(99, 1, 98, 1, TimePoint{0}, sec(600));
  const std::size_t routes_before = st->route_count();

  // The plan text drives the whole chain: parser -> injector -> supervisor.
  // Let the 50ms action arm BEFORE any traffic: reactive discovery completes
  // in sim-zero time, so a send racing the arm would cache a route and leave
  // the misbehaving unit with nothing to deliver.
  world.apply_fault_plan(
      fault::FaultPlan::parse("at 50ms misbehave 0 dymo throw for 1500ms\n"));
  world.run_for(msec(100));

  // Deterministic deliveries into the misbehaving unit: a poker CF provides
  // RERR_IN, one of DYMO's required events. In throw mode the guard faults
  // at the dispatch boundary, before any handler would parse the payload —
  // this sidesteps DYMO's own route-request retry backoff, which is too slow
  // to land two faults inside the misbehave window.
  world.kit(0).register_protocol("poker", 15, [](core::Manetkit& k) {
    return make_simple_cf(k, "poker", {}, {"RERR_IN"});
  });
  world.kit(0).deploy("poker");
  for (int i = 0; i < 3; ++i) {
    world.kit(0).protocol("poker")->emit(ev::Event(ev::etype("RERR_IN")));
    world.run_for(msec(100));
  }
  // Meanwhile real discovery traffic aimed at the quarantined unit vanishes
  // instead of crashing the node.
  for (int i = 0; i < 4; ++i) {
    world.node(1).forwarding().send(world.addr(0), 32);
    world.run_for(msec(300));
  }
  Supervisor& sup = *world.supervisor(0);
  EXPECT_GE(sup.faults("dymo"), 2u);
  EXPECT_EQ(sup.health("dymo"), UnitHealth::kQuarantined);

  // Misbehave window closed at 1.65s; recovery (backoff 2s) lands after it.
  world.run_for(sec(3));
  EXPECT_EQ(sup.health("dymo"), UnitHealth::kHealthy);
  EXPECT_GE(world.kit(0).metrics().counter_value("sup.restart_attempts"), 1u);
  EXPECT_GE(world.kit(0).metrics().counter_value("sup.recoveries"), 1u);
  auto* st_after = proto::dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st_after, nullptr);
  // The restarted CF is a fresh instance, but the S element is transplanted
  // wholesale (PR 3 state carry): the very same component, routes intact.
  EXPECT_EQ(st_after, st);
  EXPECT_GE(st_after->route_count(), routes_before);  // re-discovery may add
  EXPECT_TRUE(st_after->route_to(99).has_value())
      << "seeded long-lived route survived the supervised restart";
}

TEST(Supervision, FallbackUndeploysExhaustedUnitWhenRoutingCoDeployed) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.max_restarts = 1;
  opts.initial_backoff = msec(100);
  world.enable_supervision(opts);
  auto& kit = world.kit(0);

  VictimLog log;
  int builds = 0;
  kit.register_protocol(
      "flaky", 10,
      [&](core::Manetkit& k) {
        // Build #2 is the supervised restart attempt: fail it so the ladder
        // exhausts. Build #3 is the rollback, which must succeed.
        if (++builds == 2) throw std::runtime_error("still broken");
        return make_simple_cf(k, "flaky", {"EVT_V"}, {}, &log);
      },
      "reactive");
  register_producer(kit);
  kit.deploy("flaky");
  kit.deploy("producer");
  kit.deploy("olsr");  // the healthy routing fallback
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("flaky", Misbehave::kThrow);
  emit_v(kit);
  EXPECT_EQ(sup.health("flaky"), UnitHealth::kQuarantined);
  world.run_for(msec(300));  // restart fails, ladder exhausts

  EXPECT_EQ(sup.health("flaky"), UnitHealth::kFailed);
  EXPECT_FALSE(kit.is_deployed("flaky"))
      << "fallback undeploys the failed unit";
  EXPECT_TRUE(kit.is_deployed("olsr"));
  EXPECT_EQ(kit.metrics().counter_value("sup.fallbacks"), 1u);
  EXPECT_EQ(kit.metrics().counter_value("sup.escalations"), 0u);
}

TEST(Supervision, EscalationSurfacesHealthToPolicyEngine) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.max_restarts = 1;
  opts.initial_backoff = msec(100);
  world.enable_supervision(opts);
  auto& kit = world.kit(0);

  VictimLog log;
  int builds = 0;
  kit.register_protocol(
      "flaky", 10,
      [&](core::Manetkit& k) {
        if (++builds == 2) throw std::runtime_error("still broken");
        return make_simple_cf(k, "flaky", {"EVT_V"}, {}, &log);
      },
      "reactive");
  register_producer(kit);
  kit.deploy("flaky");
  kit.deploy("producer");
  // No co-deployed routing protocol: nothing to fall back to.
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("flaky", Misbehave::kThrow);
  emit_v(kit);
  world.run_for(msec(300));

  EXPECT_EQ(sup.health("flaky"), UnitHealth::kFailed);
  EXPECT_TRUE(kit.is_deployed("flaky"))
      << "escalation keeps the unit deployed (routed around)";
  EXPECT_EQ(kit.metrics().counter_value("sup.escalations"), 1u);

  // The failure reaches the policy plane through the ContextView...
  policy::Engine engine(kit);
  policy::ContextView view = engine.snapshot();
  EXPECT_TRUE(view.failed("flaky"));
  EXPECT_TRUE(view.degraded("flaky"));

  // ...where an escalation rule swaps in a replacement protocol.
  sup.set_misbehaviour("flaky", Misbehave::kNone);
  engine.add_rule(policy::make_health_escalation_rule("flaky", "dymo"));
  auto fired = engine.evaluate();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_FALSE(kit.is_deployed("flaky"));
  EXPECT_TRUE(kit.is_deployed("dymo"));
}

// -------------------------------------------------------- timer-fire path

TEST(Supervision, TimerExceptionIsTrappedAndJournaled) {
  testbed::SimWorld world(1);
  world.enable_tracing();
  world.enable_supervision();
  world.scheduler().schedule_after(
      msec(10), [] { throw std::runtime_error("timer boom"); });
  EXPECT_NO_THROW(world.run_for(msec(50)));

  bool found = false;
  for (const auto& r : world.journal()->snapshot()) {
    if (r.kind == obs::RecordKind::kComponentFault &&
        r.b == static_cast<std::uint64_t>(obs::ComponentFaultReason::kTimer)) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "trapped timer fault must be journaled";
}

// -------------------------------------------------- threaded dispatch path

TEST(Supervision, PoolExecutorFaultsAreCountedExactly) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1000;  // count, never trip
  world.enable_supervision(opts);
  VictimLog log;
  register_victim(world.kit(0), &log);
  register_producer(world.kit(0));
  world.kit(0).deploy("victim");
  world.kit(0).deploy("producer");
  world.kit(0).manager().set_concurrency(
      core::ConcurrencyModel::kThreadPerNMessages, /*threads=*/4, /*batch=*/4);

  world.supervisor(0)->set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(world.kit(0), 50);
  world.kit(0).manager().drain();
  EXPECT_EQ(world.supervisor(0)->faults("victim"), 50u);
  EXPECT_EQ(log.delivered, 0);
  world.kit(0).manager().set_concurrency(
      core::ConcurrencyModel::kSingleThreaded);
}

// ------------------------------------------------------ chaos conformance

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

ChaosSig finish(testbed::SimWorld& world) {
  world.checker()->check_all(world.now().us);
  return ChaosSig{world.journal()->ordered_digest(),
                  world.journal()->canonical_digest(),
                  world.journal()->total(),
                  world.checker()->violations().size()};
}

/// Scenario (the ISSUE 5 acceptance bar): the network is partitioned and,
/// inside the cut, node 1's MPR CF — an OLSR sub-component — starts throwing
/// on every dispatch. The breaker must trip and route around it while the
/// node's OLSR unit keeps routing; after the misbehave window the ladder
/// restarts the CF (S element carried) and the healed network reconverges.
ChaosSig run_quarantine_under_partition(std::uint64_t seed) {
  testbed::SimWorld world(5, seed);
  world.enable_invariants();
  SupervisorOptions opts;
  opts.fault_threshold = 2;
  opts.fault_window = sec(10);
  opts.initial_backoff = sec(5);  // recovery lands after the window closes
  world.enable_supervision(opts);
  world.linear();
  world.deploy_all("olsr");
  EXPECT_TRUE(world.run_until_routed(sec(90)).has_value());

  // Node 3 sits in the interior of the larger partition group: its own links
  // stay up, so the restarted CF's carried-but-aged topology cannot park
  // routes on the severed boundary link (those would be flagged as stale by
  // the invariant checker — correctly — at the boundary node itself).
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "at 1s partition 0 1 | 2 3 4\n"
      "at 2s misbehave 3 mpr throw for 4s\n"
      "at 10s heal\n");
  TimePoint armed = world.now();
  std::size_t route_dels_before =
      count_kind(*world.journal(), obs::RecordKind::kRouteDel);
  world.apply_fault_plan(plan, seed ^ 0xbadf00d);

  supervision::Supervisor& sup = *world.supervisor(3);
  bool quarantined = false;
  for (int i = 0; i < 80 && !quarantined; ++i) {
    world.run_for(msec(100));
    quarantined = sup.health("mpr") == UnitHealth::kQuarantined;
  }
  EXPECT_TRUE(quarantined) << "misbehaving MPR CF must trip the breaker";
  EXPECT_GE(sup.faults("mpr"), 2u);
  // The node keeps routing while its sub-component is quarantined.
  EXPECT_TRUE(world.has_route(3, world.addr(4)));

  // Mid-cut (the partition holds from +1s to +10s): the soft-state layer
  // must have expired the cross-cut link/topology entries by now, torn the
  // severed routes out of the kernel tables (journaled kRouteDel), and left
  // the network observably not fully routed — no stale-route limbo.
  if (world.now() < armed + sec(9)) {
    world.run_until(armed + sec(9));
  }
  EXPECT_GT(count_kind(*world.journal(), obs::RecordKind::kRouteDel),
            route_dels_before)
      << "partition must journal route deletions before the heal";
  EXPECT_FALSE(world.fully_routed())
      << "severed routes must lapse mid-partition, not linger until heal";

  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    world.run_for(msec(100));
    recovered = sup.health("mpr") == UnitHealth::kHealthy;
  }
  EXPECT_TRUE(recovered) << "ladder must restart the CF post-window";
  EXPECT_NE(proto::mpr_state(*world.kit(3).protocol("mpr")), nullptr);

  EXPECT_TRUE(world.run_until_routed(sec(180)).has_value())
      << "healed network must fully reconverge with the recovered CF";
  EXPECT_GE(count_kind(*world.journal(), obs::RecordKind::kQuarantine), 2u);
  return finish(world);
}

TEST(ChaosConformance, QuarantineUnderPartitionReplaysIdentically) {
  ChaosSig a = run_quarantine_under_partition(chaos_seed());
  ChaosSig b = run_quarantine_under_partition(chaos_seed());
  EXPECT_EQ(a, b) << "same-seed supervised chaos rerun diverged";
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.total, 0u);
}

// --------------------------- variant-aware recovery (ISSUE 10 satellite)

TEST(Supervision, ProbationRetripRestartsStatelessIntoVariant) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.max_restarts = 3;
  opts.fault_window = sec(5);  // doubles as the probation length
  opts.initial_backoff = msec(100);
  world.enable_supervision(opts);
  auto& kit = world.kit(0);

  VictimLog log;
  register_victim(kit, &log);
  register_producer(kit);
  kit.register_protocol("victim-lite", 10, [&log](core::Manetkit& k) {
    return make_simple_cf(k, "victim-lite", {"EVT_V"}, {}, &log);
  });
  kit.deploy("victim");
  kit.deploy("producer");
  Supervisor& sup = *world.supervisor(0);
  sup.set_recovery_variant("victim", "victim-lite");
  EXPECT_EQ(sup.recovery_variant("victim"), "victim-lite");

  // Trip #1: the ordinary rung — in-place restart, S element carried.
  sup.set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(kit);
  EXPECT_EQ(sup.health("victim"), UnitHealth::kQuarantined);
  sup.set_misbehaviour("victim", Misbehave::kNone);
  world.run_for(msec(300));
  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy);
  EXPECT_TRUE(kit.is_deployed("victim"));
  EXPECT_EQ(kit.metrics().counter_value("sup.variant_restarts"), 0u);

  // Trip #2 lands inside probation: the carried S element is now suspect,
  // so the next rung drops it and restarts into the cheaper variant.
  sup.set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(kit);
  EXPECT_EQ(sup.health("victim"), UnitHealth::kQuarantined);
  sup.set_misbehaviour("victim", Misbehave::kNone);
  world.run_for(msec(600));

  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy);
  EXPECT_FALSE(kit.is_deployed("victim"))
      << "the variant restart must land on victim-lite, not victim";
  EXPECT_TRUE(kit.is_deployed("victim-lite"));
  EXPECT_EQ(kit.metrics().counter_value("sup.variant_restarts"), 1u);
  EXPECT_EQ(kit.metrics().counter_value("sup.stateless_restarts"), 0u)
      << "a variant restart is counted as such, not as plain stateless";
  // No replication CF is deployed here, so no rehydrate was requested.
  EXPECT_EQ(kit.metrics().counter_value("sup.rehydrate_requests"), 0u);

  // The variant processes traffic where the original kept faulting.
  int before = log.delivered;
  emit_v(kit);
  EXPECT_EQ(log.delivered, before + 1);
}

TEST(Supervision, ProbationRetripWithoutVariantRestartsStateless) {
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.max_restarts = 3;
  opts.fault_window = sec(5);
  opts.initial_backoff = msec(100);
  world.enable_supervision(opts);
  auto& kit = world.kit(0);

  VictimLog log;
  register_victim(kit, &log);
  register_producer(kit);
  kit.deploy("victim");
  kit.deploy("producer");
  Supervisor& sup = *world.supervisor(0);

  sup.set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(kit);
  sup.set_misbehaviour("victim", Misbehave::kNone);
  world.run_for(msec(300));
  ASSERT_EQ(sup.health("victim"), UnitHealth::kHealthy);

  sup.set_misbehaviour("victim", Misbehave::kThrow);
  emit_v(kit);
  sup.set_misbehaviour("victim", Misbehave::kNone);
  world.run_for(msec(600));

  EXPECT_EQ(sup.health("victim"), UnitHealth::kHealthy);
  EXPECT_TRUE(kit.is_deployed("victim"));
  EXPECT_EQ(kit.metrics().counter_value("sup.stateless_restarts"), 1u);
  EXPECT_EQ(kit.metrics().counter_value("sup.variant_restarts"), 0u);
}

// ----------------------- per-dispatch allocation budget (ISSUE 10 satellite)

class HogHandler final : public core::EventHandler {
 public:
  HogHandler() : core::EventHandler("Hog", {"EVT_V"}) {}
  void handle(const ev::Event&, core::ProtocolContext&) override {
    // ~256 KiB of churn inside one dispatch — far past any sane budget.
    std::vector<std::unique_ptr<std::uint8_t[]>> keep;
    for (int i = 0; i < 64; ++i) {
      keep.push_back(std::make_unique<std::uint8_t[]>(4096));
    }
  }
};

TEST(Supervision, AllocBudgetOverrunIsAComponentFault) {
  if (!mk::test::AllocProbe::available()) {
    GTEST_SKIP() << "allocation interposer not live (sanitizer build)";
  }
  testbed::SimWorld world(1);
  SupervisorOptions opts;
  opts.fault_threshold = 2;
  opts.alloc_budget = 64 * 1024;
  world.enable_supervision(opts);
  auto& kit = world.kit(0);

  kit.register_protocol("hog", 10, [](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "hog", k.scheduler(), k.self(), &k.system().sys_state());
    cf->add_handler(std::make_unique<HogHandler>());
    cf->declare_events({"EVT_V"}, {});
    return cf;
  });
  register_producer(kit);
  kit.deploy("hog");
  kit.deploy("producer");
  Supervisor& sup = *world.supervisor(0);

  emit_v(kit);
  EXPECT_EQ(sup.faults("hog"), 1u)
      << "heap churn past the budget must be charged as a component fault";
  EXPECT_EQ(kit.metrics().counter_value("sup.alloc_budget_faults"), 1u);
  EXPECT_EQ(sup.health("hog"), UnitHealth::kHealthy);  // threshold is 2

  // The overrunning unit climbs the same breaker as a throwing one.
  emit_v(kit);
  EXPECT_EQ(sup.faults("hog"), 2u);
  EXPECT_EQ(sup.health("hog"), UnitHealth::kQuarantined);
}

// ------------------------------------------- sibling-CF restart (MPR)
//
// OLSR and optimised-flooding DYMO read the MPR CF's S element. A restart
// of "mpr" destroys the old CF; the protocols above must read the live one
// (looked up at use), never a pointer taken when they were built.

TEST(SiblingRestart, OlsrReadsRestartedMprCf) {
  testbed::SimWorld world(4, 1234);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  ASSERT_TRUE(world.kit(1).replace_protocol("mpr", "mpr").committed);
  world.run_for(sec(5));

  // A shortcut 1-3: node 1's route to 3 must become the direct link, which
  // takes TC and route computation over the restarted MPR CF's S element.
  world.medium().set_link(world.addr(1), world.addr(3), true);
  world.run_for(sec(10));
  auto route = world.node(1).kernel_table().lookup(world.addr(3));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(3));
  EXPECT_EQ(route->metric, 1u);
}

TEST(SiblingRestart, OptFloodDymoReadsRestartedMprCf) {
  testbed::SimWorld world(4, 1234);
  world.linear();
  world.deploy_all("dymo");
  for (std::size_t i = 0; i < 4; ++i) {
    proto::apply_dymo_optimized_flooding(world.kit(i));
  }
  world.run_for(sec(10));  // MPR selection settles for the RM flood

  // Node 1 relays node 0's RREQ only if the live MPR CF says 0 selected it.
  ASSERT_TRUE(world.kit(1).replace_protocol("mpr", "mpr").committed);
  world.run_for(sec(5));

  proto::discover(*world.kit(0).protocol("dymo"), world.addr(3));
  world.run_for(sec(5));
  auto route = world.node(0).kernel_table().lookup(world.addr(3));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(1));
  EXPECT_EQ(route->metric, 3u);
}

}  // namespace
}  // namespace mk
