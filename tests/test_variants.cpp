// Protocol variants created by dynamic reconfiguration (§5): fish-eye OLSR,
// power-aware OLSR, multipath DYMO, optimised-flooding DYMO — applied and
// removed on *running* deployments.
#include <gtest/gtest.h>

#include <typeinfo>

#include "protocols/dymo/multipath.hpp"
#include "protocols/dymo/opt_flood.hpp"
#include "protocols/mpr/mpr_calculator.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/mpr/mpr_handlers.hpp"
#include "protocols/olsr/fisheye.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

TEST(Fisheye, InterposesOnTcPathAndScopesTtl) {
  testbed::SimWorld world(6);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  // Observe TC_OUT events reaching node 2's System CF after fish-eye.
  proto::apply_fisheye(world.kit(2));  // first TC after insertion is scoped
  std::vector<int> ttls;
  world.kit(2).manager().subscribe("TC_OUT", [&](const ev::Event& e) {
    if (e.has_msg() && e.msg()->originator == world.addr(2)) {
      ttls.push_back(e.msg()->hop_limit);
    }
  });
  world.run_for(sec(30));

  ASSERT_FALSE(ttls.empty());
  // The subscriber sees both the pre- and post-fisheye hop of each TC; the
  // minimum observed TTL per emission must be the scoped value.
  EXPECT_EQ(*std::min_element(ttls.begin(), ttls.end()), 2);
}

TEST(Fisheye, RemoveRestoresFullTtl) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(20));

  proto::apply_fisheye(world.kit(1));
  EXPECT_TRUE(world.kit(1).is_deployed("olsr-fisheye"));
  proto::remove_fisheye(world.kit(1));
  EXPECT_FALSE(world.kit(1).is_deployed("olsr-fisheye"));

  // Routing still works after insert+remove.
  world.run_for(sec(20));
  EXPECT_TRUE(world.has_route(0, world.addr(2)));
}

TEST(Fisheye, NetworkStillConvergesUnderFisheye) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  for (std::size_t i = 0; i < 4; ++i) proto::apply_fisheye(world.kit(i));
  world.run_for(sec(40));  // several TC cycles under scoped TTLs
  EXPECT_TRUE(world.fully_routed()) << "fisheye must not break a 4-node net "
                                       "(255-TTL slot reaches everyone)";
}

TEST(PowerAware, ApplyReplacesComponentsAndIsReversible) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(10));

  auto& kit = world.kit(0);
  EXPECT_FALSE(proto::is_power_aware(kit));
  proto::apply_power_aware(kit);
  EXPECT_TRUE(proto::is_power_aware(kit));
  proto::apply_power_aware(kit);  // idempotent

  // The variant's plug-ins are private classes, so the check is that the
  // members found under the standard names are no longer the standard types.
  auto* mpr = kit.protocol("mpr");
  ASSERT_NE(mpr->find("MprCalculator"), nullptr);
  ASSERT_NE(mpr->control().find("HelloHandler"), nullptr);
  EXPECT_NE(typeid(*mpr->find("MprCalculator")), typeid(MprCalculator));
  EXPECT_NE(typeid(*mpr->control().find("HelloHandler")),
            typeid(MprHelloHandler));
  auto* olsr = kit.protocol("olsr");
  EXPECT_NE(olsr->control().find("ResidualPower"), nullptr);

  proto::remove_power_aware(kit);
  EXPECT_FALSE(proto::is_power_aware(kit));
  ASSERT_NE(mpr->find("MprCalculator"), nullptr);
  ASSERT_NE(mpr->control().find("HelloHandler"), nullptr);
  EXPECT_EQ(typeid(*mpr->find("MprCalculator")), typeid(MprCalculator));
  EXPECT_EQ(typeid(*mpr->control().find("HelloHandler")),
            typeid(MprHelloHandler));
  EXPECT_EQ(olsr->control().find("ResidualPower"), nullptr);
}

TEST(PowerAware, ResidualPowerDisseminatesViaFlooding) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(20));
  for (std::size_t i = 0; i < 4; ++i) proto::apply_power_aware(world.kit(i));

  world.node(2).set_battery(0.2);
  world.run_for(sec(30));

  // Node 0 (two hops away) learned node 2's residual energy.
  auto* st0 = olsr_state(*world.kit(0).protocol("olsr"));
  EXPECT_NEAR(st0->energy_of(world.addr(2)), 0.2, 0.06);
}

TEST(PowerAware, RoutesSteerAroundDrainedRelay) {
  // Diamond topology: 0-1-3, 0-2-3; drain node 1.
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[2], a[3], true);

  world.deploy_all("olsr");
  world.run_for(sec(20));
  for (std::size_t i = 0; i < 4; ++i) proto::apply_power_aware(world.kit(i));

  world.node(1).set_battery(0.05);
  world.node(2).set_battery(1.0);
  world.run_for(sec(40));

  auto route = world.node(0).kernel_table().lookup(a[3]);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, a[2]);
}

TEST(MultipathDymo, TwoDisjointPathsFromOneDiscovery) {
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[2], a[3], true);

  world.deploy_all("dymo");
  world.run_for(sec(5));
  for (std::size_t i = 0; i < 4; ++i) {
    proto::apply_multipath_dymo(world.kit(i));
  }
  EXPECT_TRUE(proto::is_multipath_dymo(world.kit(0)));

  world.node(0).forwarding().send(a[3], 64);
  world.run_for(sec(5));

  auto* st = dynamic_cast<MultipathDymoState*>(
      world.kit(0).protocol("dymo")->state_component());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->path_count(a[3]), 2u);
}

TEST(MultipathDymo, FailoverWithoutRediscovery) {
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[2], a[3], true);

  world.deploy_all("dymo");
  world.run_for(sec(5));
  for (std::size_t i = 0; i < 4; ++i) {
    proto::apply_multipath_dymo(world.kit(i));
  }
  world.node(0).forwarding().send(a[3], 64);
  world.run_for(sec(5));

  auto* st = dynamic_cast<MultipathDymoState*>(
      world.kit(0).protocol("dymo")->state_component());
  ASSERT_EQ(st->path_count(a[3]), 2u);
  net::Addr active = st->route_to(a[3])->active()->next_hop;

  // Count RREQ floods before/after the break: failover must not re-flood.
  world.medium().reset_stats();
  world.medium().set_link(a[0], active, false);
  world.node(0).forwarding().send(a[3], 64);  // triggers send failure + failover
  world.run_for(sec(1));
  world.node(0).forwarding().send(a[3], 64);  // travels the alternate
  world.run_for(sec(2));

  auto after = st->route_to(a[3]);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->valid);
  EXPECT_NE(after->active()->next_hop, active);
  EXPECT_GE(world.node(3).deliveries().size(), 1u);
}

TEST(MultipathDymo, RemoveRestoresSinglePathBehaviour) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));
  proto::apply_multipath_dymo(world.kit(0));
  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));

  proto::remove_multipath_dymo(world.kit(0));
  EXPECT_FALSE(proto::is_multipath_dymo(world.kit(0)));
  // Route carried back through the S-component swap.
  auto* st = dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->route_to(world.addr(2)).has_value());
}

TEST(OptFlooding, SharesMprWithOlsrAndStillDiscovers) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  world.deploy_all("dymo");
  world.run_for(sec(10));

  for (std::size_t i = 0; i < 5; ++i) {
    auto& kit = world.kit(i);
    auto* mpr_before = kit.protocol("mpr");
    proto::apply_dymo_optimized_flooding(kit);
    EXPECT_EQ(kit.protocol("mpr"), mpr_before) << "must share OLSR's MPR CF";
    EXPECT_FALSE(kit.is_deployed("neighbor"));
  }
  world.run_for(sec(10));  // MPR selection settles for the RM flood

  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_GE(world.node(4).deliveries().size(), 1u);
}

TEST(OptFlooding, RemoveRedeploysNeighborCf) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));
  proto::apply_dymo_optimized_flooding(world.kit(0));
  EXPECT_TRUE(proto::is_dymo_optimized_flooding(world.kit(0)));
  EXPECT_TRUE(world.kit(0).is_deployed("mpr"));

  proto::remove_dymo_optimized_flooding(world.kit(0));
  EXPECT_FALSE(proto::is_dymo_optimized_flooding(world.kit(0)));
  EXPECT_TRUE(world.kit(0).is_deployed("neighbor"));
  EXPECT_FALSE(world.kit(0).is_deployed("mpr"));  // no OLSR to share with
}

}  // namespace
}  // namespace mk::proto
