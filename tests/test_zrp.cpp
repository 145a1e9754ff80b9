// Zone-hybrid ("zrp") protocol: proactive intra-zone routing, reactive
// inter-zone discovery with bordercast termination, and reduced query
// flooding versus plain DYMO.
#include <gtest/gtest.h>

#include "protocols/zrp/zrp_cf.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

TEST(Zrp, IntraZoneRoutesAreProactive) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("zrp");
  world.run_for(sec(8));  // HELLO rounds + zone refresh

  // 1-hop and 2-hop destinations routed without any discovery traffic.
  EXPECT_TRUE(world.has_route(0, world.addr(1)));
  EXPECT_TRUE(world.has_route(0, world.addr(2)));

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(1));
  EXPECT_EQ(world.node(2).deliveries().size(), 1u);
  // No pending discovery was ever needed.
  auto* st = dymo_state(*world.kit(0).protocol("zrp"));
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->pending().size(), 0u);
}

TEST(Zrp, InterZoneDiscoveryStillWorks) {
  testbed::SimWorld world(6);
  world.linear();
  world.deploy_all("zrp");
  world.run_for(sec(8));

  // Node 5 is 5 hops away: outside the zone, needs IERP.
  EXPECT_FALSE(world.has_route(0, world.addr(5)));
  world.node(0).forwarding().send(world.addr(5), 64);
  world.run_for(sec(4));
  EXPECT_TRUE(world.has_route(0, world.addr(5)));
  EXPECT_EQ(world.node(5).deliveries().size(), 1u);
}

TEST(Zrp, BordercastTerminationCutsQueryFlood) {
  // Compare RREQ rebroadcast volume: plain DYMO floods the query to the far
  // end; ZRP terminates it ~one zone radius early.
  auto discovery_control_bytes = [](const std::string& proto) {
    testbed::SimWorld world(7);
    world.linear();
    world.deploy_all(proto);
    world.run_for(sec(10));
    world.medium().reset_stats();
    std::uint64_t before = 0;
    {
      // quiet baseline over the same duration as the discovery phase
      world.run_for(sec(5));
      before = world.medium().stats().control_bytes;
      world.medium().reset_stats();
    }
    world.node(0).forwarding().send(world.addr(6), 64);
    world.run_for(sec(5));
    std::uint64_t total = world.medium().stats().control_bytes;
    return total > before ? total - before : 0;
  };

  std::uint64_t dymo_bytes = discovery_control_bytes("dymo");
  std::uint64_t zrp_bytes = discovery_control_bytes("zrp");
  EXPECT_LT(zrp_bytes, dymo_bytes)
      << "zone termination should reduce query traffic (zrp=" << zrp_bytes
      << " dymo=" << dymo_bytes << ")";
}

TEST(Zrp, ZoneRoutesWithdrawnWhenNodeLeavesZone) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("zrp");
  world.run_for(sec(8));
  ASSERT_TRUE(world.has_route(0, world.addr(2)));

  // Break the chain: node 2 leaves node 0's zone.
  world.medium().set_link(world.addr(1), world.addr(2), false);
  world.run_for(sec(12));  // hold time + refresh
  EXPECT_FALSE(world.has_route(0, world.addr(2)));
}

TEST(Zrp, CountsAsReactiveForIntegrityRules) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.deploy("zrp");
  EXPECT_THROW(kit.deploy("dymo"), std::logic_error);  // one reactive max
  EXPECT_NO_THROW(kit.deploy("olsr"));                 // hybrid + proactive ok
}

TEST(Zrp, ProxyReplyInstallsUsableRoute) {
  // 0-1-2-3-4: node 2's zone contains 4 (2 hops), so node 0's query for 4
  // terminates at node 2 with a proxy RREP; the resulting route must
  // actually deliver data.
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("zrp");
  world.run_for(sec(8));

  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(4));
  EXPECT_TRUE(world.has_route(0, world.addr(4)));
  EXPECT_EQ(world.node(4).deliveries().size(), 1u);
}

}  // namespace
}  // namespace mk::proto
