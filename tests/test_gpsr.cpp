// Greedy geographic routing: position beaconing over HELLO piggyback, the
// greedy next-hop property, on-demand route installation, mobility tracking,
// and clean local-minimum behaviour.
#include <gtest/gtest.h>

#include "protocols/gpsr/gpsr_cf.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

void place_line(testbed::SimWorld& world, double spacing, double range) {
  std::vector<net::SimNode*> nodes;
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.node(i).set_position({spacing * static_cast<double>(i), 0.0});
    nodes.push_back(&world.node(i));
  }
  net::topo::apply_range_links(world.medium(), nodes, range);
}

TEST(GpsrUnit, GreedyPicksStrictlyCloserNeighbor) {
  GpsrState st;
  st.note_position(10, {100, 0});
  st.note_position(11, {50, 0});
  st.note_position(12, {0, 80});

  net::Addr hop = greedy_next_hop(st, {0, 0}, {200, 0}, {10, 11, 12});
  EXPECT_EQ(hop, 10u);  // closest to dest among the candidates

  // Local minimum: nobody is closer than self.
  hop = greedy_next_hop(st, {300, 0}, {400, 0}, {11, 12});
  EXPECT_EQ(hop, net::kNoAddr);
}

TEST(GpsrUnit, UnknownPositionsAreSkipped) {
  GpsrState st;
  st.note_position(10, {100, 0});
  // 11 has no known position: ignored even though it might be closer.
  net::Addr hop = greedy_next_hop(st, {0, 0}, {200, 0}, {10, 11});
  EXPECT_EQ(hop, 10u);
}

TEST(GpsrUnit, PositionsExpire) {
  GpsrState st;
  st.note_position(10, {1, 1});
  EXPECT_EQ(st.position_addrs(), std::vector<net::Addr>{10});
  // The gpsr.position loss fn (hold-time lapse: test_soft_state.cpp).
  EXPECT_TRUE(st.drop_position(10));
  EXPECT_FALSE(st.drop_position(10));
  EXPECT_FALSE(st.position_of(10).has_value());
  EXPECT_EQ(st.known_positions(), 0u);
}

TEST(GpsrIntegration, PositionsPropagateViaHelloBeacons) {
  testbed::SimWorld world(3);
  place_line(world, 100, 150);
  world.register_gpsr_oracle();
  world.deploy_all("gpsr");
  world.run_for(sec(6));

  auto* st1 = gpsr_state(*world.kit(1).protocol("gpsr"));
  ASSERT_NE(st1, nullptr);
  auto p0 = st1->position_of(world.addr(0));
  ASSERT_TRUE(p0.has_value());
  EXPECT_NEAR(p0->x, 0.0, 0.1);
  auto p2 = st1->position_of(world.addr(2));
  ASSERT_TRUE(p2.has_value());
  EXPECT_NEAR(p2->x, 200.0, 0.1);
}

TEST(GpsrIntegration, GreedyDeliversAlongALine) {
  testbed::SimWorld world(6);
  place_line(world, 100, 150);
  world.register_gpsr_oracle();
  world.deploy_all("gpsr");
  world.run_for(sec(6));

  world.node(0).forwarding().send(world.addr(5), 256);
  world.run_for(sec(4));
  ASSERT_EQ(world.node(5).deliveries().size(), 1u);
  // Greedy on a line follows the line: node 0's next hop is node 1.
  auto route = world.node(0).kernel_table().lookup(world.addr(5));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(1));
}

TEST(GpsrIntegration, GreedyDeliversOnGrid) {
  testbed::SimWorld world(9);
  std::vector<net::SimNode*> nodes;
  for (std::size_t i = 0; i < 9; ++i) {
    world.node(i).set_position({100.0 * static_cast<double>(i % 3),
                                100.0 * static_cast<double>(i / 3)});
    nodes.push_back(&world.node(i));
  }
  net::topo::apply_range_links(world.medium(), nodes, 150);
  world.register_gpsr_oracle();
  world.deploy_all("gpsr");
  world.run_for(sec(6));

  world.node(0).forwarding().send(world.addr(8), 128);  // corner to corner
  world.run_for(sec(4));
  EXPECT_EQ(world.node(8).deliveries().size(), 1u);
}

TEST(GpsrIntegration, RoutesFollowMobility) {
  testbed::SimWorld world(4);
  place_line(world, 100, 150);
  world.register_gpsr_oracle();
  world.deploy_all("gpsr");
  world.run_for(sec(6));

  // Keep the flow alive so routes stay active.
  world.node(0).forwarding().send(world.addr(3), 64);
  world.run_for(sec(2));
  ASSERT_EQ(world.node(3).deliveries().size(), 1u);

  // Node 1 wanders away; node 2 slides into its place (equidistant from the
  // endpoints, within range of both); links follow range.
  world.node(1).set_position({100, 500});
  world.node(2).set_position({150, 0});
  std::vector<net::SimNode*> nodes;
  for (std::size_t i = 0; i < 4; ++i) nodes.push_back(&world.node(i));
  net::topo::apply_range_links(world.medium(), nodes, 150);
  world.run_for(sec(8));  // beacons + maintenance re-greedy

  world.node(0).forwarding().send(world.addr(3), 64);
  world.run_for(sec(4));
  EXPECT_EQ(world.node(3).deliveries().size(), 2u);
  auto route = world.node(0).kernel_table().lookup(world.addr(3));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(2)) << "greedy must re-route via the "
                                               "node that moved into range";
}

TEST(GpsrIntegration, LocalMinimumFailsCleanly) {
  // A void: 0 at origin, 1 *behind* it, destination 2 far right and out of
  // range. Greedy finds no neighbour closer to 2 than 0 itself.
  testbed::SimWorld world(3);
  world.node(0).set_position({0, 0});
  world.node(1).set_position({-100, 0});
  world.node(2).set_position({500, 0});
  std::vector<net::SimNode*> nodes{&world.node(0), &world.node(1),
                                   &world.node(2)};
  net::topo::apply_range_links(world.medium(), nodes, 150);
  world.register_gpsr_oracle();
  world.deploy_all("gpsr");
  world.run_for(sec(6));

  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(15));  // NetLink buffer times out
  EXPECT_TRUE(world.node(2).deliveries().empty());
  EXPECT_FALSE(world.has_route(0, world.addr(2)));
  EXPECT_EQ(world.kit(0).system().netlink()->buffered_count(), 0u);
}

TEST(GpsrIntegration, ReactiveSlotRuleApplies) {
  testbed::SimWorld world(2);
  world.register_gpsr_oracle();
  world.kit(0).deploy("gpsr");
  EXPECT_THROW(world.kit(0).deploy("dymo"), std::logic_error);
  EXPECT_NO_THROW(world.kit(0).deploy("olsr"));  // geographic + proactive ok
}

}  // namespace
}  // namespace mk::proto
