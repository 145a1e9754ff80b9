// Invariant checker (ISSUE 3): forged violations are flagged — a two-node
// next-hop loop, a route via a non-neighbour past the grace window — and the
// checker stays silent across healthy converged scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "net/kernel_table.hpp"
#include "obs/invariants.hpp"
#include "obs/journal.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

using obs::InvariantChecker;
using obs::Journal;
using obs::Record;
using obs::RecordKind;
using obs::RouteView;

/// Synthetic world: per-node route maps + a symmetric link set, exposed
/// through the checker's provider callbacks.
struct FakeWorld {
  std::map<std::uint32_t, std::map<std::uint32_t, RouteView>> tables;
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> links;

  void route(std::uint32_t node, std::uint32_t dest, std::uint32_t hop) {
    tables[node][dest] = RouteView{dest, hop, 1};
  }
  void link(std::uint32_t a, std::uint32_t b, bool both = true) {
    links[{a, b}] = true;
    if (both) links[{b, a}] = true;
  }

  InvariantChecker checker(std::vector<std::uint32_t> nodes) {
    return InvariantChecker(
        std::move(nodes),
        [this](std::uint32_t n, std::uint32_t d) -> std::optional<RouteView> {
          auto t = tables.find(n);
          if (t == tables.end()) return std::nullopt;
          auto r = t->second.find(d);
          if (r == t->second.end()) return std::nullopt;
          return r->second;
        },
        [this](std::uint32_t n) {
          std::vector<RouteView> out;
          for (const auto& [_, r] : tables[n]) out.push_back(r);
          return out;
        },
        [this](std::uint32_t a, std::uint32_t b) {
          return links.count({a, b}) > 0;
        });
  }
};

TEST(InvariantChecker, FlagsTwoNodeNextHopLoop) {
  FakeWorld w;
  w.link(1, 2);
  w.link(2, 3);
  // Destination 3, but 1 and 2 point at each other: classic count-to-infinity
  // shape that loop-freedom must catch.
  w.route(1, 3, 2);
  w.route(2, 3, 1);

  auto checker = w.checker({1, 2, 3});
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  EXPECT_GT(checker.check_all(), 0u);

  bool saw_loop = false;
  for (const auto& v : checker.violations()) {
    if (v.kind == InvariantChecker::Violation::Kind::kLoop) saw_loop = true;
    EXPECT_FALSE(v.describe().empty());
  }
  EXPECT_TRUE(saw_loop);
}

TEST(InvariantChecker, SilentOnConsistentChain) {
  FakeWorld w;
  w.link(1, 2);
  w.link(2, 3);
  w.route(1, 3, 2);  // 1 -> 2 -> 3, loop-free, next hops are neighbours
  w.route(2, 3, 3);
  w.route(2, 1, 1);
  w.route(3, 1, 2);
  w.route(1, 2, 2);
  w.route(3, 2, 2);

  auto checker = w.checker({1, 2, 3});
  EXPECT_EQ(checker.check_all(), 0u);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_GT(checker.checks_run(), 0u);
}

TEST(InvariantChecker, FlagsRouteViaNonNeighbor) {
  FakeWorld w;
  w.link(1, 2);
  w.route(1, 3, 9);  // next hop 9 was never a neighbour

  auto checker = w.checker({1, 2, 3});
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  EXPECT_GT(checker.check_all(), 0u);
  ASSERT_FALSE(checker.violations().empty());
  bool saw_invalid = false;
  for (const auto& v : checker.violations()) {
    saw_invalid |=
        v.kind == InvariantChecker::Violation::Kind::kInvalidNextHop;
  }
  EXPECT_TRUE(saw_invalid);
}

TEST(InvariantChecker, FlagsAsymmetricLink) {
  FakeWorld w;
  w.link(1, 2, /*both=*/false);  // 1 hears 2 replies never arrive

  auto checker = w.checker({1, 2});
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  checker.set_check_symmetry(true);
  EXPECT_GT(checker.check_all(), 0u);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].kind,
            InvariantChecker::Violation::Kind::kAsymmetricLink);

  checker.clear_violations();
  checker.set_check_symmetry(false);
  w.tables.clear();
  EXPECT_EQ(checker.check_all(), 0u);
}

TEST(InvariantChecker, GraceWindowCoversRecentLinkDrop) {
  FakeWorld w;
  w.link(1, 2);
  auto checker = w.checker({1, 2});
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  checker.set_check_symmetry(false);
  checker.set_link_grace(sec(1));

  Journal journal;
  checker.attach(journal);

  // The link was up, then drops at t=10s; the route install lands 100ms
  // later — inside the grace window, so the protocol is allowed the lag.
  journal.append({RecordKind::kLinkUp, 1, 0, /*peer=*/2, 0, 0});
  w.links.clear();
  journal.append({RecordKind::kLinkDown, 1, 10'000'000, 2, 0, 0});
  journal.append(
      {RecordKind::kRouteAdd, 1, 10'100'000, /*dest=*/2, /*hop=*/2, 1});
  EXPECT_TRUE(checker.violations().empty());

  // Same install well past the grace window: flagged.
  journal.append({RecordKind::kRouteAdd, 1, 12'000'000, 2, 2, 1});
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].kind,
            InvariantChecker::Violation::Kind::kInvalidNextHop);
}

TEST(InvariantChecker, DiagnosticDumpListsViolationsAndTail) {
  FakeWorld w;
  w.route(1, 3, 9);
  auto checker = w.checker({1, 2, 3});
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});

  Journal journal;
  checker.attach(journal);
  journal.append({RecordKind::kRouteAdd, 1, 5, 3, 9, 1});
  ASSERT_FALSE(checker.violations().empty());

  std::ostringstream os;
  checker.diagnostic_dump(os);
  EXPECT_NE(os.str().find("violation"), std::string::npos);
  EXPECT_NE(os.str().find("route_add"), std::string::npos);
}

// ---------------------------------------------------------------- sim world

TEST(InvariantWorld, ContinuousCheckCatchesForgedLoop) {
  testbed::SimWorld world(3);
  world.linear();
  auto& checker = world.enable_invariants();
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  // Wire the kernel tables into the journal (lazily creates the kits).
  world.kit(0);
  world.kit(1);

  // Forge the loop live: the second install's kRouteAdd record triggers the
  // continuous check — no explicit check_all() sweep.
  net::RouteEntry e;
  e.dest = world.addr(2);
  e.next_hop = world.addr(1);
  e.installed_at = world.now();
  world.node(0).kernel_table().set_route(e);
  EXPECT_TRUE(checker.violations().empty());

  e.next_hop = world.addr(0);
  world.node(1).kernel_table().set_route(e);
  ASSERT_FALSE(checker.violations().empty());
  bool saw_loop = false;
  for (const auto& v : checker.violations()) {
    saw_loop |= v.kind == InvariantChecker::Violation::Kind::kLoop;
  }
  EXPECT_TRUE(saw_loop);
}

TEST(InvariantWorld, LinkGraceCoversTheLongestHoldPlusOneHello) {
  // A protocol keeps routing over a dropped link until its link tuple
  // lapses (NEIGHB_HOLD_TIME, or GPSR's position hold) and the next HELLO
  // round settles; a shorter grace flags that transient as a violation.
  static_assert(testbed::kInvariantLinkGrace ==
                std::max(proto::kNeighbHoldTime, proto::kGpsrPositionHold) +
                    proto::kHelloInterval);
  EXPECT_EQ(testbed::kInvariantLinkGrace, sec(8));
  testbed::SimWorld world(2);
  EXPECT_EQ(world.enable_invariants().link_grace(),
            testbed::kInvariantLinkGrace);
}

TEST(InvariantWorld, StaleNeighborRouteFlaggedAfterGrace) {
  testbed::SimWorld world(2);
  world.linear();
  auto& checker = world.enable_invariants();
  checker.set_violation_hook([](const InvariantChecker::Violation&) {});
  checker.set_link_grace(msec(200));
  world.kit(0);

  // Valid while the link is up.
  net::RouteEntry e;
  e.dest = world.addr(1);
  e.next_hop = world.addr(1);
  e.installed_at = world.now();
  world.node(0).kernel_table().set_route(e);
  EXPECT_TRUE(checker.violations().empty());

  // Cut the link, let the grace window lapse, then reinstall (metric bumped
  // so the table journals an effective change): stale-neighbour route.
  world.medium().set_link(world.addr(0), world.addr(1), /*up=*/false);
  world.run_for(sec(1));
  e.metric = 2;
  e.installed_at = world.now();
  world.node(0).kernel_table().set_route(e);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].kind,
            InvariantChecker::Violation::Kind::kInvalidNextHop);
}

TEST(InvariantWorld, SilentOnHealthyConvergedOlsr) {
  testbed::SimWorld world(4);
  world.linear();
  world.enable_invariants();
  world.deploy_all("olsr");

  auto elapsed = world.run_until_routed(sec(60));
  ASSERT_TRUE(elapsed.has_value());
  world.run_for(sec(10));

  auto* checker = world.checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_TRUE(checker->violations().empty());
  EXPECT_EQ(checker->check_all(world.now().us), 0u);
  EXPECT_GT(checker->checks_run(), 0u);
}

}  // namespace
}  // namespace mk
