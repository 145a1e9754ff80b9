// Monolithic comparators: they must implement the same protocol semantics as
// the MANETKit versions (convergence, discovery, RERR) — otherwise Tables 1
// and 2 would compare apples to oranges.
#include <gtest/gtest.h>

#include "baselines/dymoum.hpp"
#include "baselines/olsrd.hpp"
#include "core/system_cf.hpp"
#include "testbed/world.hpp"

namespace mk::baseline {
namespace {

// DYMOUM's per-destination packet buffer matches MANETKit NetLink's, so the
// reactive comparison buffers alike. Layering keeps the two definitions
// apart (baselines do not link core); this pins them equal.
static_assert(MonolithicDymo::kBufferPerDest ==
              core::NetLinkComponent::kMaxBufferedPerDest);

TEST(Olsrd, LinearChainConverges) {
  testbed::SimWorld world(5);
  world.linear();
  for (std::size_t i = 0; i < 5; ++i) world.olsrd(i);
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  EXPECT_EQ(world.node(0).kernel_table().lookup(world.addr(4))->metric, 4u);
}

TEST(Olsrd, MiddleNodeBecomesMpr) {
  testbed::SimWorld world(3);
  world.linear();
  for (std::size_t i = 0; i < 3; ++i) world.olsrd(i);
  world.run_for(sec(30));
  EXPECT_TRUE(world.olsrd(0).mprs().count(world.addr(1)) > 0);
  EXPECT_TRUE(world.olsrd(1).mpr_selectors().count(world.addr(0)) > 0);
}

TEST(Olsrd, LinkBreakLosesRoutes) {
  testbed::SimWorld world(4);
  world.linear();
  for (std::size_t i = 0; i < 4; ++i) world.olsrd(i);
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  world.medium().set_link(world.addr(1), world.addr(2), false);
  world.run_for(sec(25));
  EXPECT_FALSE(world.has_route(0, world.addr(3)));
}

// Like real olsrd's changes_* flags: once the chain has converged, TCs and
// HELLOs that repeat what is known refresh expiries without recomputing the
// route table.
TEST(Olsrd, SameSetRefreshesDoNotRecomputeRoutes) {
  testbed::SimWorld world(5);
  world.linear();
  for (std::size_t i = 0; i < 5; ++i) world.olsrd(i);
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  world.run_for(sec(30));

  std::vector<std::uint64_t> before;
  for (std::size_t i = 0; i < 5; ++i) {
    before.push_back(world.olsrd(i).route_recomputes());
    EXPECT_GT(before.back(), 0u);
  }
  world.run_for(sec(20));  // four TC intervals of same-set refreshes
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(world.olsrd(i).route_recomputes(), before[i]) << "node " << i;
    EXPECT_GT(world.olsrd(i).topology_size(), 0u) << "node " << i;
  }
  EXPECT_EQ(world.node(0).kernel_table().lookup(world.addr(4))->metric, 4u);
}

TEST(Olsrd, DataDeliveryEndToEnd) {
  testbed::SimWorld world(5);
  world.linear();
  for (std::size_t i = 0; i < 5; ++i) world.olsrd(i);
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  world.node(0).forwarding().send(world.addr(4), 512);
  world.run_for(sec(1));
  EXPECT_EQ(world.node(4).deliveries().size(), 1u);
}

TEST(Dymoum, DiscoveryAndBufferedDelivery) {
  testbed::SimWorld world(5);
  world.linear();
  for (std::size_t i = 0; i < 5; ++i) world.dymoum(i);
  world.run_for(sec(1));

  EXPECT_TRUE(world.node(0).forwarding().send(world.addr(4), 512));
  world.run_for(sec(3));
  EXPECT_TRUE(world.dymoum(0).has_route(world.addr(4)));
  EXPECT_EQ(world.node(4).deliveries().size(), 1u);
}

TEST(Dymoum, PathAccumulationLearnsIntermediates) {
  testbed::SimWorld world(5);
  world.linear();
  for (std::size_t i = 0; i < 5; ++i) world.dymoum(i);
  world.run_for(sec(1));
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  EXPECT_TRUE(world.dymoum(4).has_route(world.addr(2)));
  EXPECT_TRUE(world.dymoum(0).has_route(world.addr(3)));
}

TEST(Dymoum, RoutesExpire) {
  testbed::SimWorld world(3);
  world.linear();
  for (std::size_t i = 0; i < 3; ++i) world.dymoum(i);
  world.run_for(sec(1));
  world.node(0).forwarding().send(world.addr(2), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.dymoum(0).has_route(world.addr(2)));
  world.run_for(sec(8));
  EXPECT_FALSE(world.dymoum(0).has_route(world.addr(2)));
}

TEST(Dymoum, GivesUpOnUnreachable) {
  testbed::SimWorld world(2);
  world.full_mesh();
  for (std::size_t i = 0; i < 2; ++i) world.dymoum(i);
  world.run_for(sec(1));
  world.node(0).forwarding().send(net::addr_for_index(77), 64);
  world.run_for(sec(20));
  EXPECT_EQ(world.dymoum(0).buffered_count(), 0u);
}

TEST(Dymoum, LinkBreakInvalidatesViaRerr) {
  testbed::SimWorld world(4);
  world.linear();
  for (std::size_t i = 0; i < 4; ++i) world.dymoum(i);
  world.run_for(sec(1));
  world.node(0).forwarding().send(world.addr(3), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.dymoum(0).has_route(world.addr(3)));

  world.medium().set_link(world.addr(2), world.addr(3), false);
  world.node(0).forwarding().send(world.addr(3), 64);  // node 2 hits failure
  world.run_for(sec(2));
  EXPECT_FALSE(world.dymoum(0).has_route(world.addr(3)));
}

// Cross-checks framework vs monolith semantics on identical scenarios.
TEST(Parity, OlsrAndOlsrdComputeSameRoutes) {
  testbed::SimWorld mk_world(5), mono_world(5);
  mk_world.linear();
  mono_world.linear();
  mk_world.deploy_all("olsr");
  for (std::size_t i = 0; i < 5; ++i) mono_world.olsrd(i);
  ASSERT_TRUE(mk_world.run_until_routed(sec(60)).has_value());
  ASSERT_TRUE(mono_world.run_until_routed(sec(60)).has_value());

  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      auto a = mk_world.node(i).kernel_table().lookup(mk_world.addr(j));
      auto b = mono_world.node(i).kernel_table().lookup(mono_world.addr(j));
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->next_hop, b->next_hop) << "node " << i << " -> " << j;
      EXPECT_EQ(a->metric, b->metric);
    }
  }
}

TEST(Parity, DymoAndDymoumDiscoverEquivalentRoutes) {
  testbed::SimWorld mk_world(5), mono_world(5);
  mk_world.linear();
  mono_world.linear();
  mk_world.deploy_all("dymo");
  for (std::size_t i = 0; i < 5; ++i) mono_world.dymoum(i);
  mk_world.run_for(sec(5));
  mono_world.run_for(sec(5));

  mk_world.node(0).forwarding().send(mk_world.addr(4), 64);
  mono_world.node(0).forwarding().send(mono_world.addr(4), 64);
  mk_world.run_for(sec(3));
  mono_world.run_for(sec(3));

  auto a = mk_world.node(0).kernel_table().lookup(mk_world.addr(4));
  auto b = mono_world.node(0).kernel_table().lookup(mono_world.addr(4));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->next_hop, b->next_hop);
  EXPECT_EQ(a->metric, b->metric);
}

}  // namespace
}  // namespace mk::baseline
