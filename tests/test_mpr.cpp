// MPR CF: state tables, the greedy MPR-selection algorithm (with a
// randomized coverage-invariant property sweep), the energy-aware variant,
// hysteresis, willingness from POWER_STATUS, and flood relay behaviour.
#include <gtest/gtest.h>

#include "protocols/hello_codec.hpp"
#include "protocols/mpr/mpr_calculator.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/mpr/mpr_state.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "testbed/world.hpp"
#include "util/rng.hpp"

namespace mk::proto {
namespace {

constexpr net::Addr kSelf = 1;

std::unique_ptr<MprState> make_state(
    const std::vector<std::pair<net::Addr, std::set<net::Addr>>>& nbrs) {
  auto st = std::make_unique<MprState>();
  for (const auto& [addr, two_hop] : nbrs) {
    st->note_heard(addr);
    st->set_symmetric(addr, true);
    st->set_two_hop(addr,
                    std::vector<net::Addr>(two_hop.begin(), two_hop.end()));
  }
  return st;
}

TEST(MprState, SelectorLifecycle) {
  MprState st;
  st.note_selector(10);
  st.note_selector(11);
  EXPECT_TRUE(st.is_mpr_selector(10));
  EXPECT_EQ(st.mpr_selectors(), (std::set<net::Addr>{10, 11}));

  st.drop_selector(11);
  EXPECT_FALSE(st.is_mpr_selector(11));
  EXPECT_EQ(st.mpr_selectors(), (std::set<net::Addr>{10}));
}

TEST(MprState, DuplicateSet) {
  MprState st;
  EXPECT_FALSE(st.check_duplicate(10, 1));
  EXPECT_TRUE(st.check_duplicate(10, 1));
  EXPECT_FALSE(st.check_duplicate(10, 2));
  EXPECT_FALSE(st.check_duplicate(11, 1));
  EXPECT_EQ(st.duplicate_count(), 3u);
  EXPECT_TRUE(st.drop_duplicate(10, 1));
  EXPECT_FALSE(st.drop_duplicate(10, 1));
  EXPECT_FALSE(st.check_duplicate(10, 1));
}

TEST(MprCalculator, EmptyNeighborhoodYieldsEmptySet) {
  MprState st;
  MprCalculator calc;
  EXPECT_TRUE(calc.compute(st, kSelf).empty());
}

TEST(MprCalculator, SoleCoverNeighborIsAlwaysChosen) {
  auto stp = make_state({{10, {100}}, {11, {}}});
  MprCalculator calc;
  EXPECT_EQ(calc.compute(*stp, kSelf), (std::set<net::Addr>{10}));
}

TEST(MprCalculator, GreedyPrefersBroaderCoverage) {
  // 10 covers {100,101,102}; 11 covers {100}; 12 covers {101}.
  auto stp = make_state({{10, {100, 101, 102}}, {11, {100}}, {12, {101}}});
  MprCalculator calc;
  EXPECT_EQ(calc.compute(*stp, kSelf), (std::set<net::Addr>{10}));
}

TEST(MprCalculator, WillNeverExcluded) {
  auto stp = make_state({{10, {100}}, {11, {100}}});
  stp->set_willingness_of(10, wire::kWillNever);
  MprCalculator calc;
  EXPECT_EQ(calc.compute(*stp, kSelf), (std::set<net::Addr>{11}));
}

TEST(MprCalculator, WillAlwaysIncluded) {
  auto stp = make_state({{10, {}}, {11, {100}}});
  stp->set_willingness_of(10, wire::kWillAlways);
  MprCalculator calc;
  auto mprs = calc.compute(*stp, kSelf);
  EXPECT_TRUE(mprs.count(10) > 0);
  EXPECT_TRUE(mprs.count(11) > 0);
}

TEST(EnergyMprCalculatorT, PrefersHighWillingnessRelay) {
  // Both cover the same 2-hop node; energy calculator must pick the one
  // with higher (battery-derived) willingness.
  auto stp = make_state({{10, {100}}, {11, {100}}});
  stp->set_willingness_of(10, wire::kWillLow);
  stp->set_willingness_of(11, wire::kWillHigh);
  EnergyMprCalculator calc;
  EXPECT_EQ(calc.compute(*stp, kSelf), (std::set<net::Addr>{11}));
}

TEST(MprState, VersionMovesWithEveryCalculatorInput) {
  // The MPR and route calculators read the symmetric set, the 2-hop sets
  // and willingness; version() must move with each change and only then.
  MprState st;
  std::uint64_t v = st.version();
  auto moved = [&] {
    const bool m = st.version() != v;
    v = st.version();
    return m;
  };
  auto two_hop = [&](net::Addr via, std::vector<net::Addr> sorted) {
    st.set_two_hop(via, sorted);
  };
  st.note_heard(10);
  EXPECT_FALSE(moved()) << "heard, not symmetric";
  EXPECT_TRUE(st.set_symmetric(10, true));
  EXPECT_TRUE(moved()) << "became symmetric";
  EXPECT_FALSE(st.set_symmetric(10, true));
  EXPECT_FALSE(moved()) << "already symmetric";

  two_hop(10, {20, 21});
  EXPECT_TRUE(moved()) << "2-hop inserts";
  two_hop(10, {20, 21});
  EXPECT_FALSE(moved()) << "same 2-hop set";
  two_hop(10, {20});
  EXPECT_TRUE(moved()) << "2-hop erase at the tail";
  two_hop(10, {19, 20});
  EXPECT_TRUE(moved()) << "2-hop insert in the merge";
  two_hop(10, {20});
  EXPECT_TRUE(moved()) << "2-hop erase in the merge";
  two_hop(10, {20, 22});
  EXPECT_TRUE(moved()) << "2-hop insert at the tail";

  st.set_willingness_of(10, wire::kWillHigh);
  EXPECT_TRUE(moved()) << "willingness";
  st.set_willingness_of(10, wire::kWillHigh);
  EXPECT_FALSE(moved()) << "same willingness";
  st.set_willingness_of(10, wire::kWillLow);
  EXPECT_TRUE(moved()) << "changed willingness";

  EXPECT_TRUE(st.set_symmetric(10, false));
  EXPECT_TRUE(moved()) << "lost symmetry";
  EXPECT_FALSE(st.remove(11));
  EXPECT_FALSE(moved()) << "removing an unknown neighbour";
  EXPECT_FALSE(st.remove(10));
  EXPECT_TRUE(moved()) << "removed an entry";
  EXPECT_NE(MprState().version(), st.version());
}

TEST(MprMemo, WillingnessAloneReselects) {
  // 10 and 11 cover the same 2-hop node, so willingness alone decides.
  auto stp = make_state({{10, {100}}, {11, {100}}});
  stp->set_willingness_of(10, wire::kWillLow);
  stp->set_willingness_of(11, wire::kWillHigh);
  EnergyMprCalculator calc;
  EXPECT_TRUE(calc.update(*stp, kSelf));
  EXPECT_EQ(stp->mprs(), (std::set<net::Addr>{11}));
  EXPECT_FALSE(calc.update(*stp, kSelf)) << "unchanged inputs";

  stp->set_willingness_of(10, wire::kWillHigh);
  stp->set_willingness_of(11, wire::kWillLow);
  EXPECT_TRUE(calc.update(*stp, kSelf));
  EXPECT_EQ(stp->mprs(), (std::set<net::Addr>{10}));

  // A new self, or a calculator swapped in without a memo, recomputes.
  EXPECT_TRUE(calc.update(*stp, 100)) << "self is the 2-hop node: none left";
  EXPECT_TRUE(stp->mprs().empty());
  EXPECT_TRUE(EnergyMprCalculator().update(*stp, kSelf));
  EXPECT_EQ(stp->mprs(), (std::set<net::Addr>{10}));
}

// Property: the MPR set must cover every strict 2-hop neighbour reachable
// through a willing neighbour, and never contain non-neighbours.
class MprCoverageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprCoverageProperty, GreedySetCoversAllTwoHop) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    auto n_nbrs = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<std::pair<net::Addr, std::set<net::Addr>>> nbrs;
    for (std::size_t i = 0; i < n_nbrs; ++i) {
      std::set<net::Addr> two_hop;
      auto n2 = rng.uniform_int(0, 6);
      for (int j = 0; j < n2; ++j) {
        two_hop.insert(static_cast<net::Addr>(100 + rng.uniform_int(0, 20)));
      }
      nbrs.emplace_back(static_cast<net::Addr>(10 + i), std::move(two_hop));
    }
    auto stp = make_state(nbrs);
    MprCalculator calc;
    auto mprs = calc.compute(*stp, kSelf);

    // Every MPR is a symmetric neighbour.
    for (net::Addr m : mprs) {
      EXPECT_TRUE(stp->is_sym_neighbor(m));
    }
    // Coverage invariant.
    std::set<net::Addr> covered;
    for (net::Addr m : mprs) {
      for (net::Addr t : stp->two_hop_via(m)) covered.insert(t);
    }
    for (net::Addr t : stp->strict_two_hop(kSelf)) {
      EXPECT_TRUE(covered.count(t) > 0)
          << "2-hop node " << t << " uncovered (seed " << GetParam() << ")";
    }
  }
}

TEST_P(MprCoverageProperty, EnergyVariantAlsoCovers) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 10; ++iter) {
    auto n_nbrs = static_cast<std::size_t>(rng.uniform_int(1, 10));
    std::vector<std::pair<net::Addr, std::set<net::Addr>>> nbrs;
    for (std::size_t i = 0; i < n_nbrs; ++i) {
      std::set<net::Addr> two_hop;
      auto n2 = rng.uniform_int(0, 5);
      for (int j = 0; j < n2; ++j) {
        two_hop.insert(static_cast<net::Addr>(100 + rng.uniform_int(0, 15)));
      }
      nbrs.emplace_back(static_cast<net::Addr>(10 + i), std::move(two_hop));
    }
    auto stp = make_state(nbrs);
    for (const auto& [a, _] : nbrs) {
      stp->set_willingness_of(
          a, static_cast<std::uint8_t>(rng.uniform_int(1, 7)));
    }
    EnergyMprCalculator calc;
    auto mprs = calc.compute(*stp, kSelf);
    std::set<net::Addr> covered;
    for (net::Addr m : mprs) {
      for (net::Addr t : stp->two_hop_via(m)) covered.insert(t);
    }
    for (net::Addr t : stp->strict_two_hop(kSelf)) {
      EXPECT_TRUE(covered.count(t) > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprCoverageProperty,
                         ::testing::Values(1, 7, 42, 99, 1234));

TEST(Hysteresis, LinkMustProveItself) {
  Hysteresis h(0.5, 0.8, 0.3);
  EXPECT_TRUE(h.pending(10));
  h.on_hello(10);  // q = 0.5
  EXPECT_TRUE(h.pending(10));
  h.on_hello(10);  // q = 0.75
  EXPECT_TRUE(h.pending(10));
  h.on_hello(10);  // q = 0.875 > 0.8
  EXPECT_FALSE(h.pending(10));

  // Misses decay quality until the link is pending again.
  for (int i = 0; i < 4; ++i) h.on_interval(10);
  EXPECT_TRUE(h.pending(10));
}

// RFC 3626 §14 decays link quality only for a missed HELLO: a lossless link
// must pass the hysteresis gate within a few HELLO intervals, and a cut one
// must fall back.
TEST(MprCf, HysteresisEstablishesLosslessLinkAndDropsCutOne) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("mpr");
  for (std::size_t i = 0; i < world.size(); ++i) {
    apply_mpr_hysteresis(world.kit(i));
  }
  world.run_for(sec(10));

  auto* mpr0 = world.kit(0).protocol("mpr");
  ASSERT_NE(mpr0->find("Hysteresis"), nullptr);
  EXPECT_TRUE(mpr_state(*mpr0)->is_sym_neighbor(world.addr(1)));
  EXPECT_TRUE(mpr_state(*world.kit(1).protocol("mpr"))
                  ->is_sym_neighbor(world.addr(0)));

  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(10));
  EXPECT_FALSE(mpr_state(*mpr0)->is_sym_neighbor(world.addr(1)));
  auto* hyst = dynamic_cast<IHysteresis*>(mpr0->find("Hysteresis"));
  ASSERT_NE(hyst, nullptr);
  EXPECT_TRUE(hyst->pending(world.addr(1)));
}

// Hysteresis is a runtime reconfiguration: inserted into an MPR CF that has
// already established its links, it makes each link prove itself again and
// drops a cut one back to pending.
TEST(MprCf, HysteresisAppliedToRunningCfGatesLinks) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("mpr");
  world.run_for(sec(10));
  auto* mpr0 = world.kit(0).protocol("mpr");
  ASSERT_TRUE(mpr_state(*mpr0)->is_sym_neighbor(world.addr(1)));
  ASSERT_EQ(mpr0->find("Hysteresis"), nullptr);

  for (std::size_t i = 0; i < world.size(); ++i) {
    apply_mpr_hysteresis(world.kit(i));
    apply_mpr_hysteresis(world.kit(i));  // idempotent
  }
  ASSERT_NE(mpr0->find("Hysteresis"), nullptr);
  ASSERT_NE(mpr0->control().find("HysteresisTick"), nullptr);
  auto* hyst = dynamic_cast<IHysteresis*>(mpr0->find("Hysteresis"));
  ASSERT_NE(hyst, nullptr);
  EXPECT_TRUE(hyst->pending(world.addr(1)));

  world.run_for(sec(10));
  EXPECT_FALSE(hyst->pending(world.addr(1)));
  EXPECT_TRUE(mpr_state(*mpr0)->is_sym_neighbor(world.addr(1)));

  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(10));
  EXPECT_FALSE(mpr_state(*mpr0)->is_sym_neighbor(world.addr(1)));
  EXPECT_TRUE(hyst->pending(world.addr(1)));
}

TEST(MprCf, WillingnessFollowsBattery) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("mpr");
  world.node(0).set_battery(0.05);  // nearly dead
  world.run_for(sec(6));
  auto* st = mpr_state(*world.kit(0).protocol("mpr"));
  EXPECT_EQ(st->own_willingness(), wire::kWillNever);

  world.node(0).set_battery(0.95);
  world.run_for(sec(6));
  EXPECT_EQ(st->own_willingness(), wire::kWillHigh);
}

TEST(MprCf, ChainSelectsMiddleAsMprAndRelaysTc) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");  // olsr drives TC generation over mpr
  world.run_for(sec(30));

  // Node 2 must have heard node 0's TC (relayed by node 1 as its MPR).
  auto* olsr2 = world.kit(2).protocol("olsr");
  auto* s2 = dynamic_cast<OlsrState*>(olsr2->state_component());
  ASSERT_NE(s2, nullptr);
  bool has_edge_from_0 = false;
  for (auto [origin, dest] : s2->topology_edges()) {
    if (origin == world.addr(0) || dest == world.addr(0)) has_edge_from_0 = true;
  }
  EXPECT_TRUE(has_edge_from_0);
}

TEST(MprCf, AddFloodTypeWidensTuple) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  auto* mpr = kit.deploy("mpr");
  auto before = mpr->tuple().required.size();
  mpr_add_flood_type(kit, *mpr, "XFLOOD", 77);
  EXPECT_GT(mpr->tuple().required.size(), before);
  EXPECT_TRUE(mpr->tuple().provides(ev::etype("XFLOOD_OUT")));
  // Idempotent.
  mpr_add_flood_type(kit, *mpr, "XFLOOD", 77);
}

// Counts MPR_CHANGE events reaching a probe protocol deployed beside the MPR
// CF (the way OLSR hears relay-selection changes).
class MprChangeCounter final : public core::EventHandler {
 public:
  explicit MprChangeCounter(int* count)
      : core::EventHandler("test.MprChangeCounter", {"MPR_CHANGE"}),
        count_(count) {}
  void handle(const ev::Event&, core::ProtocolContext&) override { ++*count_; }

 private:
  int* count_;
};

// A HELLO listing us as LOST drops its sender's selector tuple; like link
// expiry, that must tell the protocols above through MPR_CHANGE.
TEST(MprCf, LostHelloFromSelectorEmitsMprChange) {
  testbed::SimWorld world(3);
  world.linear();  // node 0 needs node 1 to reach node 2: 0 selects 1
  world.deploy_all("mpr");
  int changes = 0;
  auto& kit = world.kit(1);
  kit.register_protocol("probe", 20, [&changes](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "probe", k.scheduler(), k.self(), &k.system().sys_state());
    cf->add_handler(std::make_unique<MprChangeCounter>(&changes));
    cf->declare_events({"MPR_CHANGE"}, {});
    return cf;
  });
  kit.deploy("probe");
  world.run_for(sec(10));
  core::ManetProtocolCf* mpr1 = kit.protocol("mpr");
  ASSERT_TRUE(mpr_state(*mpr1)->is_mpr_selector(world.addr(0)));

  ev::Event lost(ev::types::HELLO_IN);
  lost.from = world.addr(0);
  const std::vector<hello::Link> links{{world.addr(1), wire::LinkCode::kLost}};
  hello::build_into(lost.acquire_msg(), world.addr(0), 999, links,
                    wire::kWillDefault);
  const int before = changes;
  mpr1->deliver(lost);

  EXPECT_FALSE(mpr_state(*mpr1)->is_mpr_selector(world.addr(0)));
  EXPECT_EQ(changes, before + 1);
}

TEST(MprCf, DuplicateFloodsNotRelayedTwice) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(40));
  // The middle node relays each unique TC at most once: total TC traffic is
  // bounded (roughly one TC per origin per interval, each relayed once).
  auto tc_events = world.kit(1).protocol("mpr")->events_delivered();
  EXPECT_GT(tc_events, 0u);
}

}  // namespace
}  // namespace mk::proto
