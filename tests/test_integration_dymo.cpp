// End-to-end reactive routing: NetLink-triggered discovery, buffered-packet
// re-injection, lifetimes, RERR handling and giving up. DYMO and AODV run
// these steps through the same reactive core, so one suite covers both;
// DYMO's path accumulation is DYMO-only.
#include <gtest/gtest.h>

#include "protocols/reactive.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

testbed::SimWorld& warm(testbed::SimWorld& world, const char* protocol) {
  world.linear();
  world.deploy_all(protocol);
  world.run_for(sec(5));  // let neighbour detection settle
  return world;
}

class ReactiveIntegration : public ::testing::TestWithParam<const char*> {};

TEST_P(ReactiveIntegration, NoRouteTriggersDiscoveryAndDelivery) {
  testbed::SimWorld world(5);
  warm(world, GetParam());

  // Sending with no route buffers the packet and triggers a discovery.
  EXPECT_TRUE(world.node(0).forwarding().send(world.addr(4), 512));
  world.run_for(sec(3));

  EXPECT_TRUE(world.has_route(0, world.addr(4)));
  ASSERT_EQ(world.node(4).deliveries().size(), 1u)
      << "buffered packet was not re-injected after discovery";
  EXPECT_EQ(world.node(4).deliveries()[0].hdr.src, world.addr(0));
}

TEST_P(ReactiveIntegration, RoutesExpireWithoutUse) {
  testbed::SimWorld world(3);
  warm(world, GetParam());

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(2)));

  // Route lifetime is 5s (AODV: 3s); without data-plane use it must vanish.
  world.run_for(sec(8));
  EXPECT_FALSE(world.has_route(0, world.addr(2)));
}

TEST_P(ReactiveIntegration, DataPlaneUseExtendsLifetime) {
  testbed::SimWorld world(3);
  warm(world, GetParam());

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(2)));

  // Keep using the route for 10s: it must outlive the route lifetime.
  for (int i = 0; i < 10; ++i) {
    world.node(0).forwarding().send(world.addr(2), 64);
    world.run_for(sec(1));
  }
  EXPECT_TRUE(world.has_route(0, world.addr(2)));
  EXPECT_GE(world.node(2).deliveries().size(), 10u);
}

TEST_P(ReactiveIntegration, LinkBreakTriggersRerrAndRediscovery) {
  testbed::SimWorld world(5);
  warm(world, GetParam());

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

TEST_P(ReactiveIntegration, DiscoveryGivesUpForUnreachableTarget) {
  testbed::SimWorld world(3);
  warm(world, GetParam());

  net::Addr ghost = net::addr_for_index(99);
  world.node(0).forwarding().send(ghost, 64);
  world.run_for(sec(15));  // tries with exponential backoff, then give up

  auto* st = dynamic_cast<proto::ReactiveState*>(
      world.kit(0).protocol(GetParam())->state_component());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->pending().size(), 0u);
  EXPECT_FALSE(world.has_route(0, ghost));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReactiveIntegration,
                         ::testing::Values("dymo", "aodv"));

TEST(DymoIntegration, PathAccumulationInstallsIntermediateRoutes) {
  testbed::SimWorld world(5);
  warm(world, "dymo");

  world.node(0).forwarding().send(world.addr(4), 128);
  world.run_for(sec(3));

  // Path accumulation: the destination learned routes to the intermediates.
  EXPECT_TRUE(world.has_route(4, world.addr(1)));
  EXPECT_TRUE(world.has_route(4, world.addr(2)));
  EXPECT_TRUE(world.has_route(4, world.addr(3)));
  // And the originator learned the forward route's intermediates via RREP.
  EXPECT_TRUE(world.has_route(0, world.addr(3)));
}

}  // namespace
}  // namespace mk
