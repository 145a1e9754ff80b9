// End-to-end DYMO integration: NetLink-triggered discovery, path
// accumulation, buffered-packet re-injection, lifetimes and RERR handling.
#include <gtest/gtest.h>

#include "protocols/dymo/dymo_cf.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

testbed::SimWorld& warm_dymo(testbed::SimWorld& world) {
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));  // let neighbour detection settle
  return world;
}

TEST(DymoIntegration, NoRouteTriggersDiscoveryAndDelivery) {
  testbed::SimWorld world(5);
  warm_dymo(world);

  // Sending with no route buffers the packet and triggers a discovery.
  EXPECT_TRUE(world.node(0).forwarding().send(world.addr(4), 512));
  world.run_for(sec(3));

  EXPECT_TRUE(world.has_route(0, world.addr(4)));
  ASSERT_EQ(world.node(4).deliveries().size(), 1u)
      << "buffered packet was not re-injected after discovery";
  EXPECT_EQ(world.node(4).deliveries()[0].hdr.src, world.addr(0));
}

TEST(DymoIntegration, PathAccumulationInstallsIntermediateRoutes) {
  testbed::SimWorld world(5);
  warm_dymo(world);

  world.node(0).forwarding().send(world.addr(4), 128);
  world.run_for(sec(3));

  // Path accumulation: the destination learned routes to the intermediates.
  EXPECT_TRUE(world.has_route(4, world.addr(1)));
  EXPECT_TRUE(world.has_route(4, world.addr(2)));
  EXPECT_TRUE(world.has_route(4, world.addr(3)));
  // And the originator learned the forward route's intermediates via RREP.
  EXPECT_TRUE(world.has_route(0, world.addr(3)));
}

TEST(DymoIntegration, RoutesExpireWithoutUse) {
  testbed::SimWorld world(3);
  warm_dymo(world);

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(2)));

  // Route lifetime is 5s; without data-plane use it must vanish.
  world.run_for(sec(8));
  EXPECT_FALSE(world.has_route(0, world.addr(2)));
}

TEST(DymoIntegration, DataPlaneUseExtendsLifetime) {
  testbed::SimWorld world(3);
  warm_dymo(world);

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(2)));

  // Keep using the route for 10s: it must survive the 5s lifetime.
  for (int i = 0; i < 10; ++i) {
    world.node(0).forwarding().send(world.addr(2), 64);
    world.run_for(sec(1));
  }
  EXPECT_TRUE(world.has_route(0, world.addr(2)));
  EXPECT_GE(world.node(2).deliveries().size(), 10u);
}

TEST(DymoIntegration, LinkBreakTriggersRerrAndRediscovery) {
  testbed::SimWorld world(5);
  warm_dymo(world);

  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(4)));

  // Break the last link, then keep sending: the send failure at node 3 must
  // invalidate and eventually nothing is delivered.
  world.medium().set_link(world.addr(3), world.addr(4), false);
  world.run_for(sec(7));
  world.node(2).clear_deliveries();

  std::size_t before = world.node(4).deliveries().size();
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_EQ(world.node(4).deliveries().size(), before);

  // Repair the link: a fresh send rediscovers and delivers.
  world.medium().set_link(world.addr(3), world.addr(4), true);
  world.run_for(sec(2));
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_GT(world.node(4).deliveries().size(), before);
}

TEST(DymoIntegration, DiscoveryGivesUpForUnreachableTarget) {
  testbed::SimWorld world(3);
  warm_dymo(world);

  net::Addr ghost = net::addr_for_index(99);
  world.node(0).forwarding().send(ghost, 64);
  world.run_for(sec(15));  // 3 tries with exponential backoff, then give up

  auto* st = proto::dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->pending().size(), 0u);
  EXPECT_FALSE(world.has_route(0, ghost));
}

}  // namespace
}  // namespace mk
