// DYMO unit tests: route-table acceptance rules (seqnum freshness, hop-count
// improvement), lifetimes, pending-RREQ backoff, RM codec with path
// accumulation, multipath state.
#include <gtest/gtest.h>

#include <map>

#include "net/medium.hpp"
#include "net/node.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/aodv/aodv_state.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "testbed/world.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"

namespace mk::proto {
namespace {

TEST(DymoState, FreshnessRules) {
  DymoState st;
  TimePoint t{0};
  EXPECT_TRUE(st.update_route(10, 5, 20, 3, t, sec(5)));
  // Older seq rejected.
  EXPECT_FALSE(st.update_route(10, 4, 21, 1, t, sec(5)));
  // Same seq, more hops rejected.
  EXPECT_FALSE(st.update_route(10, 5, 21, 4, t, sec(5)));
  // Same seq, fewer hops accepted.
  EXPECT_TRUE(st.update_route(10, 5, 22, 2, t, sec(5)));
  // Newer seq always accepted.
  EXPECT_TRUE(st.update_route(10, 6, 23, 9, t, sec(5)));
  EXPECT_EQ(st.route_to(10)->active()->next_hop, 23u);
}

TEST(DymoState, SeqnumWraparound) {
  DymoState st;
  TimePoint t{0};
  EXPECT_TRUE(st.update_route(10, 65535, 20, 1, t, sec(5)));
  EXPECT_TRUE(st.update_route(10, 0, 21, 1, t, sec(5)));  // 0 is newer
}

TEST(DymoState, SameInfoRefreshesLifetime) {
  DymoState st;
  st.update_route(10, 5, 20, 3, TimePoint{0}, sec(5));
  // Same route repeated later: not an "update", but lifetime extends.
  EXPECT_FALSE(st.update_route(10, 5, 20, 3, TimePoint{sec(4).count()},
                               sec(5)));
  EXPECT_EQ(st.route_to(10)->expires, TimePoint{sec(9).count()});
}

TEST(DymoState, InvalidRouteReacceptsSameSeq) {
  DymoState st;
  TimePoint t{0};
  st.update_route(10, 5, 20, 3, t, sec(5));
  st.invalidate(10);
  // Same seq re-learned after invalidation: accepted.
  EXPECT_TRUE(st.update_route(10, 5, 21, 3, t, sec(5)));
}

TEST(DymoState, InvalidateViaReportsDestSeqPairs) {
  DymoState st;
  TimePoint t{0};
  st.update_route(10, 5, 99, 2, t, sec(5));
  st.update_route(11, 7, 99, 3, t, sec(5));
  st.update_route(12, 9, 50, 1, t, sec(5));
  auto down = st.invalidate_via(99);
  ASSERT_EQ(down.size(), 2u);
  EXPECT_FALSE(st.route_to(10)->valid);
  EXPECT_TRUE(st.route_to(12)->valid);
  // Second invalidation via the same hop is empty (already invalid).
  EXPECT_TRUE(st.invalidate_via(99).empty());
}

/// The shared pending-discovery table as each protocol's S element owns it
/// (parameter: the protocol's try limit): the soft-state deadline lapses,
/// retry() doubles the wait until the limit is reached, and the next lapse
/// gives up.
class PendingBackoff : public ::testing::TestWithParam<int> {};

TEST_P(PendingBackoff, DoublesThenGivesUpAtTheTryLimit) {
  const int limit = GetParam();
  DymoState dymo;
  AodvState aodv;
  PendingDiscoveries& p =
      limit == DymoState::kMaxTries ? dymo.pending() : aodv.pending();
  p.start(10, sec(1));
  EXPECT_TRUE(p.has(10));

  TimePoint now{0};
  Duration wait = sec(1);
  for (int tries = 1; tries < limit; ++tries) {
    now = now + wait;
    auto next = p.retry(10, now);
    ASSERT_TRUE(next.has_value()) << "gave up after " << tries;
    wait = wait * 2;
    EXPECT_EQ(*next, now + wait);
  }
  EXPECT_FALSE(p.retry(10, now + wait).has_value());
  EXPECT_FALSE(p.has(10));
  EXPECT_TRUE(p.dests().empty());
  EXPECT_FALSE(p.retry(10, now + wait).has_value());  // absent: no-op
}

INSTANTIATE_TEST_SUITE_P(TryLimits, PendingBackoff,
                         ::testing::Values(int{DymoState::kMaxTries},
                                           int{AodvState::kMaxTries}));

TEST(RmCodec, RreqRoundTripWithAccumulation) {
  auto msg = rm::build_rreq(/*self=*/1, /*seq=*/9, /*target=*/5, 10);
  EXPECT_EQ(rm::kind(msg), rm::Kind::kRreq);
  EXPECT_EQ(rm::target(msg), 5u);

  // Two relays append themselves.
  msg.hop_count = 1;
  rm::append_self(msg, 2, 100);
  msg.hop_count = 2;
  rm::append_self(msg, 3, 200);

  pbb::Packet pkt;
  pkt.messages.push_back(msg);
  auto parsed = pbb::parse(pbb::serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  const auto& m = parsed.value().messages[0];
  ASSERT_EQ(m.addr_blocks.size(), 2u);
  const auto& path = m.addr_blocks[1];
  ASSERT_EQ(path.addrs.size(), 2u);
  EXPECT_EQ(path.addrs[0], 2u);
  EXPECT_EQ(path.tlv_for(0, wire::kAtlvSeqnum)->as_u32(), 100u);
  EXPECT_EQ(path.tlv_for(0, wire::kAtlvHops)->as_u8(), 1);
  EXPECT_EQ(path.tlv_for(1, wire::kAtlvHops)->as_u8(), 2);
}

TEST(RmCodec, RrepTargetsRreqOriginator) {
  auto msg = rm::build_rrep(/*self=*/5, /*seq=*/11, /*rreq_origin=*/1, 10);
  EXPECT_EQ(rm::kind(msg), rm::Kind::kRrep);
  EXPECT_EQ(rm::target(msg), 1u);
  EXPECT_EQ(*msg.originator, 5u);
}

TEST(RmCodec, RerrCarriesSeqPerAddress) {
  auto msg = rm::build_rerr(7, 3, {{10, 5}, {11, 8}}, 3);
  EXPECT_EQ(msg.type, wire::kMsgDymoRerr);
  ASSERT_EQ(msg.addr_blocks.size(), 1u);
  EXPECT_EQ(msg.addr_blocks[0].tlv_for(0, wire::kAtlvSeqnum)->as_u32(), 5u);
  EXPECT_EQ(msg.addr_blocks[0].tlv_for(1, wire::kAtlvSeqnum)->as_u32(), 8u);
}

TEST(MultipathState, DisjointPathsOnly) {
  MultipathDymoState st;
  st.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  EXPECT_FALSE(st.add_alternate_path(10, 20, 3));  // same next hop
  EXPECT_TRUE(st.add_alternate_path(10, 21, 3));
  EXPECT_TRUE(st.add_alternate_path(10, 22, 4));
  EXPECT_FALSE(st.add_alternate_path(10, 23, 4));  // kMaxPaths reached
  EXPECT_EQ(st.path_count(10), 3u);
}

TEST(MultipathState, FailOverPromotesNextPath) {
  MultipathDymoState st;
  st.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  st.add_alternate_path(10, 21, 3);

  auto alt = st.fail_over(10);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->next_hop, 21u);
  EXPECT_TRUE(st.route_to(10)->valid);

  EXPECT_FALSE(st.fail_over(10).has_value());  // no more alternates
  EXPECT_FALSE(st.route_to(10)->valid);
}

TEST(MultipathState, StateTransferFromBase) {
  DymoState base;
  base.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  base.update_route(11, 6, 21, 1, TimePoint{0}, sec(5));
  MultipathDymoState mp(base);
  EXPECT_EQ(mp.route_count(), 2u);
  EXPECT_EQ(mp.route_to(10)->active()->next_hop, 20u);
  EXPECT_TRUE(mp.add_alternate_path(10, 30, 4));
}

TEST(DymoState, NoAlternateOnInvalidRoute) {
  MultipathDymoState st;
  st.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  st.invalidate(10);
  EXPECT_FALSE(st.add_alternate_path(10, 21, 3));
}

/// DYMO's RM and RERR handlers on node 2, unmanaged: emitted events land in
/// `out` instead of the network.
struct DymoHandlers {
  static constexpr net::Addr kSelf = 2;

  DymoHandlers() {
    cf.set_state(std::make_unique<DymoState>());
    cf.add_handler(std::make_unique<ReHandler>());
    cf.add_handler(std::make_unique<RerrHandler>());
    cf.set_emit_hook([this](const ev::Event& e) { out.push_back(e); });
  }

  void deliver(const char* type, net::Addr from, pbb::Message msg) {
    ev::Event e(ev::etype(type));
    e.from = from;
    e.set_msg(std::move(msg));
    cf.deliver(e);
  }

  std::size_t emitted(const char* type) const {
    std::size_t n = 0;
    for (const auto& e : out) n += e.type() == ev::etype(type) ? 1 : 0;
    return n;
  }

  SimScheduler sched;
  net::SimMedium medium{sched};
  net::SimNode node{0, medium, sched};
  core::Manetkit kit{node};
  core::ManetProtocolCf cf{"dymo", sched, kSelf, nullptr};
  std::vector<ev::Event> out;
};

TEST(DymoDuplicates, RerrDoesNotSuppressRreqWithTheSameSeqnum) {
  DymoHandlers h;
  // Node 1's RERR numbered 2, then node 1's RREQ numbered 2: the RREQ is
  // new and must be relayed.
  h.deliver("RERR_IN", 1, rm::build_rerr(1, 2, {{5, 7}}, 3));
  h.deliver("RM_IN", 1, rm::build_rreq(1, 2, /*target=*/9, 10));
  EXPECT_EQ(h.emitted("RM_OUT"), 1u);

  // The same RREQ again is a duplicate.
  h.deliver("RM_IN", 1, rm::build_rreq(1, 2, /*target=*/9, 10));
  EXPECT_EQ(h.emitted("RM_OUT"), 1u);
}

TEST(DymoDuplicates, RelayedRerrIsNumberedByTheRelay) {
  DymoHandlers h;
  auto& st = h.cf.context().state_as<DymoState>();
  st.update_route(5, 7, /*next_hop=*/1, 2, TimePoint{0}, sec(5));

  // Node 1 reports 5 unreachable with its own RERR number 40; node 2 relays
  // the report as its own RERR, numbered from its own counter.
  h.deliver("RERR_IN", 1, rm::build_rerr(1, 40, {{5, 8}}, 3));
  ASSERT_EQ(h.emitted("RERR_OUT"), 1u);
  const pbb::Message& relayed = *h.out.back().msg();
  EXPECT_EQ(*relayed.originator, DymoHandlers::kSelf);
  EXPECT_EQ(*relayed.seqnum, 1u);
  EXPECT_FALSE(st.route_to(5)->valid);
}

TEST(DymoState, CodecCarriesRreqTuplesButNotRerrOnes) {
  DymoState st;
  st.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  st.bump_seq();
  st.check_duplicate(dymo_dup_key(DupKind::kRreq, 7, 3), TimePoint{1});
  st.check_duplicate(dymo_dup_key(DupKind::kRerr, 7, 3), TimePoint{2});
  std::vector<std::uint8_t> blob;
  st.encode_state(blob);

  DymoState copy;
  ASSERT_TRUE(copy.decode_state(blob));
  std::vector<std::uint8_t> again;
  copy.encode_state(again);
  EXPECT_EQ(again, blob);
  EXPECT_EQ(copy.own_seq(), st.own_seq());
  EXPECT_EQ(copy.duplicate_entries(),
            std::vector<std::uint64_t>{dymo_dup_key(DupKind::kRreq, 7, 3)});

  blob.pop_back();  // truncated
  EXPECT_FALSE(copy.decode_state(blob));
}

// The duplicate set is a hash table; its codec and its expiry re-seeding
// must still see the keys in the order the ordered map gave them.
TEST(DymoState, DuplicateCodecMatchesOrderedMap) {
  DymoState st;
  std::map<std::uint64_t, TimePoint> oracle;
  Rng rng(4242);
  for (int i = 0; i < 300; ++i) {
    const auto kind = rng.bernoulli(0.5) ? DupKind::kRreq : DupKind::kRerr;
    const auto origin = static_cast<net::Addr>(rng.uniform_int(1, 30));
    const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 40));
    const std::uint64_t key = dymo_dup_key(kind, origin, seq);
    const TimePoint now{i * 1000};
    EXPECT_EQ(st.check_duplicate(key, now), oracle.count(key) > 0);
    oracle[key] = now;
    if (rng.bernoulli(0.1)) {
      const std::uint64_t gone = dymo_dup_key(
          kind, static_cast<net::Addr>(rng.uniform_int(1, 30)), seq);
      EXPECT_EQ(st.drop_duplicate(gone), oracle.erase(gone) > 0);
    }
  }

  // The codec as it read over the ordered map: an empty route table, then
  // the RREQ tuples in key order.
  ByteWriter w;
  w.put_u8(1);
  w.put_u16(st.own_seq());
  w.put_u16(0);
  auto rreq_end = oracle.lower_bound(dymo_dup_key(DupKind::kRerr, 0, 0));
  w.put_u16(static_cast<std::uint16_t>(std::distance(oracle.begin(), rreq_end)));
  for (auto it = oracle.begin(); it != rreq_end; ++it) {
    w.put_u32(static_cast<std::uint32_t>(it->first >> 16));
    w.put_u16(static_cast<std::uint16_t>(it->first));
    w.put_u64(static_cast<std::uint64_t>(it->second.us));
  }
  std::vector<std::uint8_t> blob;
  st.encode_state(blob);
  EXPECT_EQ(blob, w.take());

  std::vector<std::uint64_t> keys;
  for (const auto& [key, _] : oracle) keys.push_back(key);
  EXPECT_EQ(st.duplicate_entries(), keys);
}

TEST(DymoLearn, RouteSetDeadlineFollowsTheRouteEntry) {
  testbed::SimWorld world(1);
  world.kit(0).deploy("dymo");
  core::ManetProtocolCf& cf = *world.kit(0).protocol("dymo");
  DymoState& st = *dymo_state(cf);
  // An RREQ from originator 7 (seqnum `seq`), relayed by 8 or heard from
  // 7's neighbour 5 directly.
  auto deliver_rreq = [&](std::uint16_t seq, net::Addr from) {
    pbb::Message m = rm::build_rreq(7, seq, /*target=*/9, kDymoMsgHopLimit);
    if (from == 8) {
      m.hop_count = 1;
      rm::append_self(m, 8, 4);
    }
    ev::Event e(ev::etype("RM_IN"));
    e.from = from;
    e.set_msg(std::move(m));
    cf.deliver(e);
  };
  auto expect_deadlines_match = [&] {
    for (net::Addr dest : {net::Addr{7}, net::Addr{8}}) {
      auto route = st.route_to(dest);
      ASSERT_TRUE(route.has_value());
      EXPECT_EQ(cf.context().soft()->deadline(reactive_sets::kRoute, dest),
                route->expires);
    }
  };

  deliver_rreq(3, 8);  // new routes to 7 (two hops) and 8 (one hop)
  EXPECT_EQ(st.route_to(7)->expires, world.now() + kDymoRouteTimeout);
  expect_deadlines_match();

  world.run_for(sec(1));
  deliver_rreq(3, 8);  // same information: lifetimes refresh
  EXPECT_EQ(st.route_to(7)->expires, world.now() + kDymoRouteTimeout);
  expect_deadlines_match();

  world.run_for(sec(1));
  const TimePoint before = st.route_to(7)->expires;
  deliver_rreq(2, 5);  // older seqnum via another neighbour: rejected
  EXPECT_EQ(st.route_to(7)->expires, before);
  EXPECT_EQ(st.route_to(7)->active()->next_hop, 8u);
  expect_deadlines_match();
}

}  // namespace
}  // namespace mk::proto
