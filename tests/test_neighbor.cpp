// Neighbour Detection CF: HELLO-based link sensing (asym -> sym), 2-hop
// gathering, expiry -> NHOOD_CHANGE, pluggable link-layer feedback, and
// piggybacking. The link-sensing core is shared with the MPR CF, so the
// LOST-code regression runs against both.
#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/aodv/aodv_cf.hpp"
#include "protocols/hello_codec.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

TEST(NeighborTable, SymmetryAndTwoHop) {
  NeighborTable t;
  t.note_heard(10);
  EXPECT_FALSE(t.is_sym_neighbor(10));
  EXPECT_TRUE(t.set_symmetric(10, true));
  EXPECT_FALSE(t.set_symmetric(10, true));  // no change
  EXPECT_TRUE(t.is_sym_neighbor(10));

  const std::vector<net::Addr> via10{20, 30};
  t.set_two_hop(10, via10);
  EXPECT_TRUE(std::ranges::equal(t.two_hop_via(10), via10));
  EXPECT_EQ(t.strict_two_hop(1), (std::set<net::Addr>{20, 30}));

  // A 2-hop node that is also a direct sym neighbour is not strict 2-hop.
  t.note_heard(20);
  t.set_symmetric(20, true);
  EXPECT_EQ(t.strict_two_hop(1), (std::set<net::Addr>{30}));
}

TEST(NeighborTable, ExpiryReportsLostSymNeighbors) {
  NeighborTable t;
  t.note_heard(10);
  t.set_symmetric(10, true);
  t.note_heard(11);  // asym — lost silently
  // remove() is the neighbor.link loss fn's step: it reports whether the
  // lapsed link was symmetric (NHOOD_CHANGE down-notification).
  EXPECT_TRUE(t.remove(10));
  EXPECT_FALSE(t.remove(11));
  EXPECT_TRUE(t.heard_neighbors().empty());
  EXPECT_TRUE(t.sym_neighbors().empty());
}

TEST(NeighborTable, PiggybackProvidersAndObservers) {
  NeighborTable t;
  t.set_piggyback("a", [] { return pbb::Tlv::u8(9, 0x55); });
  t.set_piggyback("b", []() -> std::optional<pbb::Tlv> {
    return std::nullopt;  // provider may decline
  });
  std::vector<pbb::Tlv> tlvs;
  t.append_piggyback(tlvs);
  ASSERT_EQ(tlvs.size(), 1u);
  EXPECT_EQ(tlvs[0].as_u8(), 0x55);

  net::Addr from = 0;
  t.set_piggyback("c", nullptr,
                  [&](net::Addr f, const pbb::Tlv&) { from = f; });
  t.dispatch_piggyback(42, tlvs[0]);
  EXPECT_EQ(from, 42u);
}

TEST(NeighborTable, PiggybackEntriesAreKeyedByOwner) {
  NeighborTable t;
  t.set_piggyback("a", [] { return pbb::Tlv::u8(9, 1); });
  t.set_piggyback("b", [] { return pbb::Tlv::u8(9, 2); });
  // Setting again replaces the owner's entry and runs it last.
  t.set_piggyback("a", [] { return pbb::Tlv::u8(9, 3); });
  EXPECT_EQ(t.piggyback_owners(), (std::vector<std::string>{"b", "a"}));
  std::vector<pbb::Tlv> tlvs;
  t.append_piggyback(tlvs);
  ASSERT_EQ(tlvs.size(), 2u);
  EXPECT_EQ(tlvs[0].as_u8(), 2);
  EXPECT_EQ(tlvs[1].as_u8(), 3);

  t.drop_piggyback("b");
  t.drop_piggyback("absent");
  EXPECT_EQ(t.piggyback_owners(), (std::vector<std::string>{"a"}));
}

TEST(HelloCodec, RoundTrip) {
  std::vector<hello::Link> links{{10, wire::LinkCode::kSym},
                                 {11, wire::LinkCode::kAsym},
                                 {12, wire::LinkCode::kMpr}};
  pbb::Message msg;
  hello::build_into(msg, 1, 5, links, wire::kWillHigh);
  msg.tlvs.push_back(pbb::Tlv{wire::kTlvPiggyback, {1, 2}});
  EXPECT_EQ(msg.hop_limit, 1);  // never forwarded
  EXPECT_EQ(hello::willingness(msg), wire::kWillHigh);
  std::vector<hello::Link> parsed;
  hello::for_each_link(msg, [&](const hello::Link& l) { parsed.push_back(l); });
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[2].code, wire::LinkCode::kMpr);
  EXPECT_EQ(hello::code_for(msg, 11), wire::LinkCode::kAsym);
  EXPECT_FALSE(hello::code_for(msg, 99).has_value());
  std::size_t piggybacked = 0;
  hello::for_each_piggyback(msg, [&](const pbb::Tlv&) { ++piggybacked; });
  EXPECT_EQ(piggybacked, 1u);
}

TEST(HelloCodec, LinkTlvsMatchAddWithU8OnTheWire) {
  std::vector<hello::Link> links{{10, wire::LinkCode::kSym},
                                 {11, wire::LinkCode::kAsym}};
  pbb::Packet built;
  hello::build_into(built.messages.emplace_back(), 1, 5, links,
                    wire::kWillDefault);

  pbb::Packet reference;
  pbb::Message& m = reference.messages.emplace_back(built.messages[0]);
  m.addr_blocks.assign(1, pbb::AddressBlock{});
  for (const hello::Link& l : links) {
    m.addr_blocks[0].add_with_u8(l.addr, wire::kAtlvLinkCode,
                                 static_cast<std::uint8_t>(l.code));
  }
  EXPECT_EQ(pbb::serialize(built), pbb::serialize(reference));
}

TEST(NeighborCf, TwoNodesBecomeSymmetric) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("neighbor");
  world.run_for(sec(6));  // hello(A) -> hello(B lists A) -> hello(A lists B)

  auto* s0 = neighbor_state(*world.kit(0).protocol("neighbor"));
  auto* s1 = neighbor_state(*world.kit(1).protocol("neighbor"));
  EXPECT_TRUE(s0->is_sym_neighbor(world.addr(1)));
  EXPECT_TRUE(s1->is_sym_neighbor(world.addr(0)));
}

TEST(NeighborCf, AsymmetricLinkStaysAsym) {
  testbed::SimWorld world(2);
  // Only 0 -> 1 can be heard.
  world.medium().set_link(world.addr(0), world.addr(1), true,
                          /*symmetric=*/false);
  world.deploy_all("neighbor");
  world.run_for(sec(10));

  auto* s1 = neighbor_state(*world.kit(1).protocol("neighbor"));
  // Node 1 hears node 0 but is never heard back: link stays asymmetric.
  EXPECT_FALSE(s1->is_sym_neighbor(world.addr(0)));
  EXPECT_EQ(s1->heard_neighbors().size(), 1u);
}

TEST(NeighborCf, TwoHopInformationPropagates) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("neighbor");
  world.run_for(sec(10));

  auto* s0 = neighbor_state(*world.kit(0).protocol("neighbor"));
  EXPECT_EQ(s0->strict_two_hop(world.addr(0)),
            (std::set<net::Addr>{world.addr(2)}));
}

TEST(NeighborCf, LinkBreakEmitsNhoodChangeDown) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("neighbor");
  world.run_for(sec(6));

  std::vector<std::pair<net::Addr, bool>> changes;
  world.kit(0).manager().subscribe(
      ev::types::NHOOD_CHANGE, [&](const ev::Event& e) {
        changes.emplace_back(
            static_cast<net::Addr>(e.attr(ev::IntAttr::neighbor)),
            e.attr(ev::IntAttr::up) != 0);
      });

  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(10));  // hold time passes, expiry sweep fires

  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().first, world.addr(1));
  EXPECT_FALSE(changes.back().second);
}

TEST(NeighborCf, LinkLayerFeedbackVariantReactsInstantly) {
  testbed::SimWorld world(2);
  world.deploy_all("neighbor");
  auto* cf = world.kit(0).protocol("neighbor");
  enable_link_layer_feedback(world.kit(0), *cf);

  // No HELLO exchange needed: the driver callback updates the table.
  world.medium().set_link(world.addr(0), world.addr(1), true);
  auto* s0 = neighbor_state(*cf);
  EXPECT_TRUE(s0->is_sym_neighbor(world.addr(1)));

  world.medium().set_link(world.addr(0), world.addr(1), false);
  EXPECT_FALSE(s0->is_sym_neighbor(world.addr(1)));
}

// Protocol switches must not pile up piggyback entries: AODV's route advert
// keeps one entry on the neighbour table however often AODV is redeployed,
// and rides HELLOs only while AODV is deployed.
TEST(NeighborCf, PiggybackRegistryHoldsOneEntryPerOwnerAcrossSwitches) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("dymo");
  world.run_for(sec(4));
  core::Manetkit& kit = world.kit(0);
  core::ManetProtocolCf* neighbor = kit.protocol("neighbor");
  auto* table = dynamic_cast<NeighborTable*>(neighbor->state_component());
  ASSERT_NE(table, nullptr);
  auto advertises_routes = [&] {
    std::vector<pbb::Tlv> tlvs;
    table->append_piggyback(tlvs);
    return std::any_of(tlvs.begin(), tlvs.end(), [](const pbb::Tlv& t) {
      return t.type == wire::kTlvPiggyback;
    });
  };

  for (int i = 0; i < 20; ++i) {
    kit.switch_protocol("dymo", "aodv", /*carry_state=*/false);
    aodv_state(*kit.protocol("aodv"))
        ->update_route(world.addr(1), 1, true, world.addr(1), 1, world.now(),
                       sec(10));
    EXPECT_TRUE(advertises_routes()) << "switch " << i;
    world.run_for(sec(1));
    kit.switch_protocol("aodv", "dymo", /*carry_state=*/false);
    EXPECT_FALSE(advertises_routes()) << "switch " << i;
    world.run_for(sec(1));
  }

  ASSERT_EQ(kit.protocol("neighbor"), neighbor);
  auto owners = table->piggyback_owners();
  EXPECT_LE(std::count(owners.begin(), owners.end(), "aodv"), 1);
}

// A HELLO that lists us as LOST removes its sender; if that sender then
// falls silent, nothing may bring the entry back without a holding time
// (the neighbour CF once re-created it with no expiry and advertised it as
// ASYM forever).
class LostLinkCode : public ::testing::TestWithParam<std::string> {};

TEST_P(LostLinkCode, LostSenderIsForgottenOnceSilent) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all(GetParam());
  world.run_for(sec(6));
  core::ManetProtocolCf* cf = world.kit(0).protocol(GetParam());
  ASSERT_TRUE(neighbor_state(*cf)->is_sym_neighbor(world.addr(1)));

  ev::Event lost(ev::types::HELLO_IN);
  lost.from = world.addr(1);
  const std::vector<hello::Link> links{{world.addr(0), wire::LinkCode::kLost}};
  hello::build_into(lost.acquire_msg(), world.addr(1), 999, links,
                    wire::kWillDefault);
  cf->deliver(lost);
  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(30));

  EXPECT_TRUE(neighbor_state(*cf)->heard_neighbors().empty());
}

INSTANTIATE_TEST_SUITE_P(
    SensingCfs, LostLinkCode, ::testing::Values("neighbor", "mpr"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace mk::proto
