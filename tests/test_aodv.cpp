// AODV: state acceptance rules, end-to-end discovery, intermediate reply,
// RERR handling, and the HELLO piggybacking of routing-table entries.
#include <gtest/gtest.h>

#include "protocols/aodv/aodv_cf.hpp"
#include "protocols/aodv/aodv_state.hpp"
#include "protocols/wire.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

TEST(AodvState, AcceptanceRules) {
  AodvState st;
  TimePoint t{0};
  EXPECT_TRUE(st.update_route(10, 5, true, 20, 3, t, sec(3)));
  EXPECT_FALSE(st.update_route(10, 4, true, 21, 1, t, sec(3)));
  EXPECT_FALSE(st.update_route(10, 5, true, 21, 4, t, sec(3)));
  EXPECT_TRUE(st.update_route(10, 5, true, 22, 2, t, sec(3)));
  EXPECT_TRUE(st.update_route(10, 6, true, 23, 9, t, sec(3)));
}

TEST(AodvState, InvalidationBumpsDestSeq) {
  AodvState st;
  st.update_route(10, 5, true, 20, 2, TimePoint{0}, sec(3));
  auto seq = st.invalidate(10);
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, 6);  // RFC 3561 §6.11
  EXPECT_FALSE(st.route_to(10)->valid);
}

TEST(AodvState, PrecursorsSurviveUpdates) {
  AodvState st;
  st.update_route(10, 5, true, 20, 2, TimePoint{0}, sec(3));
  st.add_precursor(10, 77);
  st.update_route(10, 6, true, 21, 2, TimePoint{0}, sec(3));
  EXPECT_TRUE(st.route_to(10)->precursors.count(77) > 0);
}

TEST(AodvState, RreqCache) {
  AodvState st;
  EXPECT_FALSE(st.check_rreq_seen(1, 100, TimePoint{0}));
  EXPECT_TRUE(st.check_rreq_seen(1, 100, TimePoint{0}));
  // The soft-state key carries only the id's low 24 bits.
  EXPECT_FALSE(st.drop_rreq_seen(1, 101));
  EXPECT_TRUE(st.drop_rreq_seen(1, 100));
  EXPECT_FALSE(st.check_rreq_seen(1, 100, TimePoint{sec(10).count()}));
}

TEST(AodvIntegration, DiscoveryAcrossChain) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  EXPECT_TRUE(world.node(0).forwarding().send(world.addr(4), 256));
  world.run_for(sec(3));

  EXPECT_TRUE(world.has_route(0, world.addr(4)));
  ASSERT_EQ(world.node(4).deliveries().size(), 1u);
  EXPECT_EQ(world.node(4).deliveries()[0].hdr.src, world.addr(0));
}

TEST(AodvIntegration, ReverseRoutesFormDuringDiscovery) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  world.node(0).forwarding().send(world.addr(3), 64);
  world.run_for(sec(3));

  // Every node on the path formed a reverse route to the originator.
  EXPECT_TRUE(world.has_route(1, world.addr(0)));
  EXPECT_TRUE(world.has_route(2, world.addr(0)));
  EXPECT_TRUE(world.has_route(3, world.addr(0)));
}

TEST(AodvIntegration, IntermediateNodeAnswersFromCache) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  // First: 1 discovers 4, so 1 holds a fresh route to 4.
  world.node(1).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(1, world.addr(4)));

  // Now 0 discovers 4: node 1 may reply from cache; either way the route
  // must come up quickly and deliver.
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  EXPECT_TRUE(world.has_route(0, world.addr(4)));
  EXPECT_GE(world.node(4).deliveries().size(), 1u);
}

TEST(AodvIntegration, LinkBreakPurgesRoutesViaRerr) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(0, world.addr(4)));

  world.medium().set_link(world.addr(2), world.addr(3), false);
  // Keep traffic flowing so the break is noticed via send failure.
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(8));

  auto* st0 = aodv_state(*world.kit(0).protocol("aodv"));
  auto route = st0->route_to(world.addr(4));
  EXPECT_TRUE(!route.has_value() || !route->valid);
}

TEST(AodvIntegration, PiggybackSpreadsRoutesWithoutDiscovery) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  // 2 discovers 0 (so node 2 and node 1 hold routes toward 0).
  world.node(2).forwarding().send(world.addr(0), 64);
  world.run_for(sec(3));
  ASSERT_TRUE(world.has_route(2, world.addr(0)));

  // With route piggybacking on HELLOs, nodes keep refreshing each other's
  // tables; after a few HELLO periods node 1's advert reaches node 2 even
  // after lifetimes would have lapsed.
  world.node(2).forwarding().send(world.addr(0), 64);
  world.run_for(sec(4));
  EXPECT_GE(world.node(0).deliveries().size(), 1u);
}

TEST(AodvIntegration, UnreachableTargetGivesUp) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("aodv");
  world.run_for(sec(5));

  world.node(0).forwarding().send(net::addr_for_index(66), 64);
  world.run_for(sec(12));
  auto* st = aodv_state(*world.kit(0).protocol("aodv"));
  EXPECT_FALSE(st->pending().has(net::addr_for_index(66)));
}

TEST(AodvLearn, RouteSetDeadlineFollowsTheRouteEntry) {
  testbed::SimWorld world(1);
  world.kit(0).deploy("aodv");
  core::ManetProtocolCf& cf = *world.kit(0).protocol("aodv");
  AodvState& st = *aodv_state(cf);
  std::uint32_t rreq_id = 0;
  // An RREQ from originator 7 (seqnum `seq`) heard from neighbour `from`.
  auto deliver_rreq = [&](std::uint16_t seq, net::Addr from) {
    pbb::Message m;
    m.type = wire::kMsgAodvRreq;
    m.originator = 7;
    m.seqnum = seq;
    m.has_hops = true;
    m.hop_limit = kAodvNetDiameter;
    m.hop_count = 1;
    m.tlvs.push_back(pbb::Tlv::u32(wire::kTlvRreqId, ++rreq_id));
    pbb::AddressBlock target;
    target.addrs.push_back(9);
    m.addr_blocks.push_back(std::move(target));
    ev::Event e(ev::etype(ev::types::AODV_IN));
    e.from = from;
    e.set_msg(std::move(m));
    cf.deliver(e);
  };
  auto expect_deadline_matches = [&] {
    auto route = st.route_to(7);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(cf.context().soft()->deadline(reactive_sets::kRoute, 7),
              route->expires);
  };

  deliver_rreq(5, 8);  // new reverse route to 7 via 8
  EXPECT_EQ(st.route_to(7)->expires, world.now() + kAodvActiveRouteTimeout);
  expect_deadline_matches();

  world.run_for(sec(1));
  deliver_rreq(5, 8);  // same seqnum and hops via the same hop: refresh
  EXPECT_EQ(st.route_to(7)->expires, world.now() + kAodvActiveRouteTimeout);
  expect_deadline_matches();

  world.run_for(sec(1));
  const TimePoint before = st.route_to(7)->expires;
  deliver_rreq(4, 5);  // older seqnum via another neighbour: rejected
  EXPECT_EQ(st.route_to(7)->expires, before);
  EXPECT_EQ(st.route_to(7)->next_hop, 8u);
  expect_deadline_matches();
}

}  // namespace
}  // namespace mk::proto
