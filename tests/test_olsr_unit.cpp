// OLSR unit tests: state tables (ANSN freshness, topology expiry), TC codec,
// route calculation (shortest path, stale-route cleanup), energy-cost
// routing.
#include <gtest/gtest.h>

#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/wire.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

TEST(OlsrState, AnsnFreshnessRule) {
  OlsrState st;
  EXPECT_TRUE(st.update_topology(10, 5, {20}, TimePoint{0}, sec(15)));
  EXPECT_FALSE(st.update_topology(10, 4, {21}, TimePoint{0}, sec(15)));
  EXPECT_TRUE(st.update_topology(10, 5, {22}, TimePoint{0}, sec(15)));
  EXPECT_TRUE(st.update_topology(10, 6, {23}, TimePoint{0}, sec(15)));
  auto edges = st.topology_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].second, 23u);
}

TEST(OlsrState, AnsnWraparound) {
  OlsrState st;
  EXPECT_TRUE(st.update_topology(10, 65535, {20}, TimePoint{0}, sec(15)));
  EXPECT_TRUE(st.update_topology(10, 0, {21}, TimePoint{0}, sec(15)));  // newer
}

TEST(OlsrState, TopologyExpiry) {
  OlsrState st;
  st.update_topology(10, 1, {20}, TimePoint{0}, sec(15));
  EXPECT_EQ(st.topology_origins(), std::vector<net::Addr>{10});
  // The olsr.topology loss fn (hold-time lapse: test_soft_state.cpp).
  EXPECT_TRUE(st.drop_topology(10));
  EXPECT_FALSE(st.drop_topology(10));
  EXPECT_EQ(st.topology_size(), 0u);
}

TEST(OlsrState, EnergyMapDefaultsToFull) {
  OlsrState st;
  EXPECT_DOUBLE_EQ(st.energy_of(99), 1.0);
  st.set_energy(99, 0.25);
  EXPECT_DOUBLE_EQ(st.energy_of(99), 0.25);
}

TEST(TcCodec, RoundTrip) {
  auto msg = tc::build(7, 12, 34, {100, 101});
  EXPECT_EQ(msg.type, wire::kMsgTc);
  EXPECT_EQ(*msg.originator, 7u);
  EXPECT_EQ(*msg.seqnum, 12);
  EXPECT_EQ(msg.find_tlv(wire::kTlvAnsn)->as_u16(), 34);
  ASSERT_EQ(msg.addr_blocks.size(), 1u);
  EXPECT_EQ(msg.addr_blocks[0].addrs.size(), 2u);

  // And survives the wire.
  pbb::Packet pkt;
  pkt.messages.push_back(msg);
  auto parsed = pbb::parse(pbb::serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().messages[0], msg);
}

TEST(RouteCalc, InstallsShortestPathsAndCleansStale) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  // Shortest path property: metric equals chain distance.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      auto route = world.node(i).kernel_table().lookup(world.addr(j));
      ASSERT_TRUE(route.has_value());
      EXPECT_EQ(route->metric, static_cast<std::uint32_t>(
                                   i > j ? i - j : j - i));
    }
  }
}

TEST(RouteCalc, ShorterPathPreferredWhenAdded) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  auto before = world.node(0).kernel_table().lookup(world.addr(3));
  EXPECT_EQ(before->metric, 3u);

  // A shortcut 0 <-> 3 appears; OLSR must converge to the 1-hop route.
  world.medium().set_link(world.addr(0), world.addr(3), true);
  world.run_for(sec(20));
  auto after = world.node(0).kernel_table().lookup(world.addr(3));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->metric, 1u);
  EXPECT_EQ(after->next_hop, world.addr(3));
}

TEST(EnergyRouteCalc, AvoidsDrainedRelay) {
  // Diamond: 0-1-3 and 0-2-3. Node 1 nearly drained -> route via 2.
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[2], a[3], true);

  world.deploy_all("olsr");
  world.run_for(sec(20));

  auto* olsr = world.kit(0).protocol("olsr");
  auto* st = olsr_state(*olsr);
  st->set_energy(a[1], 0.05);
  st->set_energy(a[2], 1.0);

  // Swap in the energy calculator directly (unit-level check of the
  // component; the full variant is exercised in test_variants).
  {
    auto lock = olsr->quiesce();
    oc::ComponentId rc = olsr->find_id("RouteCalculator");
    olsr->replace(rc, std::make_unique<EnergyRouteCalculator>(world.kit(0)));
  }
  olsr_recompute_routes(*olsr);

  auto route = world.node(0).kernel_table().lookup(a[3]);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, a[2]) << "route should avoid the drained relay";
}

TEST(OlsrCf, EmptySelectorSetSendsNoTc) {
  // Two isolated nodes: no 2-hop topology, nobody selects MPRs, so no TC
  // traffic should ever appear.
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("olsr");
  world.run_for(sec(30));
  auto* s0 = olsr_state(*world.kit(0).protocol("olsr"));
  EXPECT_EQ(s0->topology_size(), 0u);
}

TEST(OlsrCf, TcFromNonSymNeighborIgnored) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("olsr");
  // Inject a TC as if from an unknown (non-symmetric) sender.
  auto* olsr = world.kit(0).protocol("olsr");
  ev::Event e(ev::etype("TC_IN"));
  e.from = net::addr_for_index(77);
  e.set_msg(tc::build(net::addr_for_index(77), 1, 1, {net::addr_for_index(78)}));
  olsr->deliver(e);
  EXPECT_EQ(olsr_state(*olsr)->topology_size(), 0u);
}

}  // namespace
}  // namespace mk::proto
