// OLSR unit tests: state tables (ANSN freshness, topology expiry), TC codec,
// route calculation (shortest path, stale-route cleanup, the unchanged-input
// memo), energy-cost routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>

#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "protocols/wire.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

/// Hands node `to` a copy of node `from`'s current TC (its own ANSN and
/// selector set) without running the world: the periodic same-set refresh.
void deliver_tc_refresh(testbed::SimWorld& world, std::size_t from,
                        std::size_t to) {
  const OlsrState& src = *olsr_state(*world.kit(from).protocol("olsr"));
  ev::Event e(ev::etype("TC_IN"));
  e.from = world.addr(from);
  e.set_msg(tc::build(world.addr(from), 999, src.ansn(),
                      src.last_advertised()));
  world.kit(to).protocol("olsr")->deliver(e);
}

/// Hands node `to` a residual-power flood from `origin` at `percent` charge.
void deliver_residual_power(testbed::SimWorld& world, std::size_t to,
                            net::Addr origin, std::uint8_t percent) {
  pbb::Message m;
  m.type = wire::kMsgResidualPower;
  m.originator = origin;
  m.seqnum = 1;
  m.tlvs.push_back(pbb::Tlv::u8(wire::kTlvBattery, percent));
  ev::Event e(ev::etype("RP_IN"));
  e.from = origin;
  e.set_msg(std::move(m));
  world.kit(to).protocol("olsr")->deliver(e);
}

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

/// The (kind, dest, next hop, metric) of every route change `journal`
/// recorded from its record `from` on, in order.
std::vector<std::array<std::uint64_t, 4>> route_writes(obs::Journal& journal,
                                                       std::size_t from) {
  std::vector<std::array<std::uint64_t, 4>> out;
  const auto records = journal.snapshot();
  for (std::size_t i = from; i < records.size(); ++i) {
    const obs::Record& r = records[i];
    if (r.kind == obs::RecordKind::kRouteAdd ||
        r.kind == obs::RecordKind::kRouteDel) {
      out.push_back({static_cast<std::uint64_t>(r.kind), r.a, r.b, r.c});
    }
  }
  return out;
}

using RouteMap = std::map<net::Addr, std::pair<net::Addr, std::uint32_t>>;

/// Reference min-hop routes, dest -> (next hop, hops): a breadth-first
/// search over the explicit directed edge list (self -> symmetric
/// neighbour, symmetric neighbour -> its 2-hop set minus self, TC origin ->
/// advertised), each level expanded in address order.
RouteMap reference_routes(net::Addr self, const NeighborTable& nbr,
                          const OlsrState& st) {
  std::map<net::Addr, std::set<net::Addr>> edges;
  for (net::Addr n : nbr.sym_neighbors()) {
    edges[self].insert(n);
    for (net::Addr t : nbr.two_hop_via(n)) {
      if (t != self) edges[n].insert(t);
    }
  }
  for (auto [origin, d] : st.topology_edges()) edges[origin].insert(d);
  RouteMap routes;
  std::set<net::Addr> level{self}, seen{self};
  for (std::uint32_t hops = 1; !level.empty(); ++hops) {
    std::set<net::Addr> next;
    for (net::Addr u : level) {
      for (net::Addr v : edges[u]) {
        if (!seen.insert(v).second) continue;
        routes[v] = {u == self ? v : routes[u].first, hops};
        next.insert(v);
      }
    }
    level = std::move(next);
  }
  return routes;
}

// The hop metric's breadth-first search against the energy calculator's
// Dijkstra at full charge, where every node costs 1.0: on seeded random
// inputs both must write the same routes in the same order, through a
// first full recompute and after each of several random changes (new and
// withdrawn routes), and the table must hold the reference search's
// routes. The inputs mix dense equal-cost ties, TC-only and unreachable
// nodes, asymmetric neighbours whose 2-hop sets are not edges, and self
// inside advertised sets.
TEST(RouteCalc, HopSearchMatchesDijkstraOracle) {
  struct Node {
    testbed::SimWorld world{1};
    obs::Journal& journal = world.enable_tracing();
    core::ManetProtocolCf* olsr = nullptr;
    Node() {
      world.deploy_all("olsr");
      olsr = world.kit(0).protocol("olsr");
    }
  };
  std::size_t routes = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    auto coin = [&](int percent) {
      return static_cast<int>(rng() % 100) < percent;
    };
    Node hop, oracle;
    RouteCalculator bfs(hop.world.kit(0));
    EnergyRouteCalculator dijkstra(oracle.world.kit(0));
    const net::Addr self = hop.world.addr(0);
    const auto pool_size = static_cast<std::uint32_t>(8 + rng() % 24);
    auto pick = [&](int percent) {
      std::vector<net::Addr> out;  // ascending
      for (std::uint32_t i = 1; i <= pool_size; ++i) {
        if (coin(percent)) out.push_back(net::addr_for_index(i));
      }
      return out;
    };
    const int density = 5 + static_cast<int>(rng() % 25);
    for (int round = 0; round < 4; ++round) {
      // Random changes, applied identically to both nodes.
      const std::vector<net::Addr> heard = pick(30);
      std::vector<std::pair<net::Addr, bool>> links;
      std::vector<std::pair<net::Addr, std::vector<net::Addr>>> two_hop;
      for (net::Addr n : heard) {
        links.emplace_back(n, coin(70));
        std::vector<net::Addr> set = pick(density);
        if (coin(50)) set.insert(set.begin(), self);  // self sorts first
        two_hop.emplace_back(n, std::move(set));
      }
      std::vector<std::pair<net::Addr, std::vector<net::Addr>>> tcs;
      for (std::uint32_t i = 1; i <= pool_size + 4; ++i) {
        if (!coin(60)) continue;
        // Origins beyond the pool are known only through their own TC.
        std::vector<net::Addr> adv = pick(density);
        if (coin(20)) adv.insert(adv.begin(), self);
        tcs.emplace_back(net::addr_for_index(i), std::move(adv));
      }
      if (coin(20)) tcs.emplace_back(self, pick(density));
      const bool drop = round > 0 && coin(50);
      for (Node* node : {&hop, &oracle}) {
        auto lock = node->olsr->quiesce();
        MprState& nbr = *mpr_state(*node->world.kit(0).protocol("mpr"));
        OlsrState& st = *olsr_state(*node->olsr);
        for (std::uint32_t i = 1; i <= pool_size; ++i) {
          nbr.set_symmetric(net::addr_for_index(i), false);
        }
        for (auto [n, sym] : links) {
          nbr.note_heard(n);
          nbr.set_symmetric(n, sym);
        }
        for (const auto& [n, set] : two_hop) nbr.set_two_hop(n, set);
        for (const auto& [origin, adv] : tcs) {
          st.update_topology(origin, static_cast<std::uint16_t>(round), adv,
                             node->world.now(), sec(15));
        }
        if (drop && !tcs.empty()) st.drop_topology(tcs.front().first);
      }
      const std::size_t hop_from = hop.journal.snapshot().size();
      const std::size_t oracle_from = oracle.journal.snapshot().size();
      {
        auto lock = hop.olsr->quiesce();
        bfs.recompute(hop.olsr->context());
      }
      {
        auto lock = oracle.olsr->quiesce();
        dijkstra.recompute(oracle.olsr->context());
      }
      ASSERT_EQ(route_writes(hop.journal, hop_from),
                route_writes(oracle.journal, oracle_from))
          << "seed " << seed << " round " << round;
      RouteMap installed;
      for (const auto& e : hop.world.node(0).kernel_table().entries()) {
        installed[e.dest] = {e.next_hop, e.metric};
      }
      const MprState& nbr = *mpr_state(*hop.world.kit(0).protocol("mpr"));
      ASSERT_EQ(installed,
                reference_routes(self, nbr, *olsr_state(*hop.olsr)))
          << "seed " << seed << " round " << round;
      routes += installed.size();
    }
  }
  EXPECT_GT(routes, 0u);
}

// An address first seen deep in the walk (only in the advertised set of a
// far TC origin, itself unknown to the calculator's index until then) must
// still be indexed and routed, also when reaching it takes a second new
// address. A search that stopped once every already-known address was
// reached would never see either.
TEST(RouteCalc, AddressFirstSeenInFarTcSetIsRouted) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  auto* olsr = world.kit(0).protocol("olsr");
  OlsrState& st = *olsr_state(*olsr);
  const net::Addr far = net::addr_for_index(40);
  const net::Addr farther = net::addr_for_index(41);
  {
    auto lock = olsr->quiesce();
    st.update_topology(far, 1, {farther}, world.now(), sec(15));
    st.update_topology(world.addr(3), 1000, {world.addr(2), far}, world.now(),
                       sec(15));
  }
  olsr_recompute_routes(*olsr);

  const auto& table = world.node(0).kernel_table();
  for (auto [dest, metric] : {std::pair{far, 4u}, std::pair{farther, 5u}}) {
    auto route = table.lookup(dest);
    ASSERT_TRUE(route.has_value()) << dest;
    EXPECT_EQ(route->next_hop, world.addr(1));
    EXPECT_EQ(route->metric, metric);
  }
}

// The calculator keeps the MPR CF's S element between recomputes; a new S
// element installed into that CF (a composition change, no redeploy) must
// be the one the next recompute reads.
TEST(RouteCalc, ReadsReplacedMprStateElement) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  auto& table = world.node(0).kernel_table();
  ASSERT_EQ(table.size(), 2u);

  core::ManetProtocolCf& mpr = *world.kit(0).protocol("mpr");
  {
    auto lock = mpr.quiesce();
    mpr.set_state(std::make_unique<MprState>());
  }
  olsr_recompute_routes(*world.kit(0).protocol("olsr"));
  EXPECT_EQ(table.size(), 0u) << "the new S element has no neighbours";
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

TEST(OlsrState, SameSetRefreshKeepsEdgesAndTakesNewAnsn) {
  // version() moves with every change a route recompute can read, and only
  // then: a same-set refresh moves the ANSN and the expiry alone.
  OlsrState st;
  std::uint64_t v = st.version();
  auto moved = [&] {
    const bool m = st.version() != v;
    v = st.version();
    return m;
  };
  EXPECT_TRUE(st.update_topology(10, 5, {20, 21}, TimePoint{0}, sec(15)));
  EXPECT_TRUE(moved()) << "new origin";
  EXPECT_TRUE(st.update_topology(10, 5, {20, 21}, TimePoint{1}, sec(15)));
  EXPECT_TRUE(st.update_topology(10, 6, {20, 21}, TimePoint{3}, sec(15)));
  EXPECT_FALSE(moved()) << "same-set refresh";
  EXPECT_FALSE(st.update_topology(10, 5, {22}, TimePoint{4}, sec(15)));
  EXPECT_FALSE(moved()) << "stale ANSN";
  EXPECT_EQ(st.topology_edges().size(), 2u);
  EXPECT_TRUE(st.update_topology(11, 1, {}, TimePoint{5}, sec(15)));
  EXPECT_TRUE(moved()) << "new origin, empty set";
  EXPECT_TRUE(st.update_topology(10, 7, {20}, TimePoint{6}, sec(15)));
  EXPECT_TRUE(moved()) << "changed set";
  EXPECT_FALSE(st.drop_topology(12));
  EXPECT_FALSE(moved()) << "absent origin";
  EXPECT_TRUE(st.drop_topology(11));
  EXPECT_TRUE(moved()) << "dropped origin";

  st.set_energy(30, 0.5);
  EXPECT_TRUE(moved()) << "new energy level";
  st.set_energy(30, 0.5);
  EXPECT_FALSE(moved()) << "equal energy level";
  st.set_energy(30, 0.25);
  EXPECT_TRUE(moved()) << "changed energy level";
  st.set_energy(31, 1.0);
  EXPECT_FALSE(moved()) << "the default level";

  std::vector<std::uint8_t> blob;
  st.encode_state(blob);
  ASSERT_TRUE(st.decode_state(blob));
  EXPECT_TRUE(moved()) << "decode_state";
  EXPECT_EQ(st.topology_edges().size(), 1u);
  st.reset_state();
  EXPECT_TRUE(moved()) << "reset_state";
  EXPECT_NE(OlsrState().version(), st.version());
}

// The memo in RouteCalculator::recompute skips a recompute whose input
// stamps and kernel table generation match the last sync. The first four
// tests each change one input the memo must see, through a path that emits
// no event of its own.

TEST(RouteCalcMemo, SilentTwoHopChangeSeenOnNextTcRefresh) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  const net::Addr far = net::addr_for_index(9);
  auto& table = world.node(0).kernel_table();
  ASSERT_FALSE(table.lookup(far).has_value());
  const OlsrState& st = *olsr_state(*world.kit(0).protocol("olsr"));
  const auto edges = st.topology_edges();

  // Node 1's HELLO now lists `far`: the table changes, no event fires.
  std::vector<net::Addr> via1{world.addr(0), world.addr(2), far};
  mpr_state(*world.kit(0).protocol("mpr"))->set_two_hop(world.addr(1), via1);
  deliver_tc_refresh(world, 1, 0);

  EXPECT_EQ(st.topology_edges(), edges) << "the TC was a pure refresh";
  auto route = table.lookup(far);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(1));
  EXPECT_EQ(route->metric, 2u);
}

TEST(RouteCalcMemo, RouteRemovedByAnotherWriterIsReinstalled) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  auto& table = world.node(0).kernel_table();
  ASSERT_TRUE(table.remove_route(world.addr(2)));
  deliver_tc_refresh(world, 1, 0);

  auto route = table.lookup(world.addr(2));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, world.addr(1));
  EXPECT_EQ(route->metric, 2u);
}

TEST(RouteCalcMemo, DecodeOnLiveNodeResyncsInstalledDests) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  auto* olsr = world.kit(0).protocol("olsr");
  OlsrState& st = *olsr_state(*olsr);
  std::vector<std::uint8_t> blob;
  st.encode_state(blob);
  {
    auto lock = olsr->quiesce();
    ASSERT_TRUE(st.decode_state(blob));
  }
  EXPECT_TRUE(st.installed_dests().empty());
  olsr_recompute_routes(*olsr);

  auto& table = world.node(0).kernel_table();
  std::vector<net::Addr> table_dests;
  for (const auto& e : table.entries()) table_dests.push_back(e.dest);
  EXPECT_EQ(table_dests,
            (std::vector<net::Addr>{world.addr(1), world.addr(2)}));
  EXPECT_EQ(st.installed_dests(), table_dests);

  // Losing the only link must now withdraw both routes.
  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.run_for(sec(20));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RouteCalcMemo, EnergyCalculatorReroutesOnResidualPowerAlone) {
  // Diamond: 0-1-3 and 0-2-3; only relay energy decides the path to 3.
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[2], a[3], true);
  world.deploy_all("olsr");
  world.run_for(sec(20));
  apply_power_aware(world.kit(0));

  auto& table = world.node(0).kernel_table();
  ASSERT_TRUE(table.lookup(a[3]).has_value());
  EXPECT_EQ(table.lookup(a[3])->next_hop, a[1]) << "equal cost: lower address";

  deliver_residual_power(world, 0, a[1], 5);
  EXPECT_EQ(table.lookup(a[3])->next_hop, a[2]);

  deliver_residual_power(world, 0, a[1], 100);
  deliver_residual_power(world, 0, a[2], 5);
  EXPECT_EQ(table.lookup(a[3])->next_hop, a[1]);
}

// While the kernel table is as the last sync left it, a full recompute
// writes only new or changed routes. Each step below flips one link of
// node 0 in its neighbour table, without an event, then recomputes: the
// generation must rise by exactly the number of routes that changed, so
// every changed route was written and nothing else was.
TEST(RouteCalcMemo, DiffedInstallTouchesOnlyChangedRoutes) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  const auto a = world.addrs();
  core::ManetProtocolCf& olsr = *world.kit(0).protocol("olsr");
  MprState& nbr = *mpr_state(*world.kit(0).protocol("mpr"));
  const auto& table = world.node(0).kernel_table();
  using Routes = std::map<net::Addr, std::pair<net::Addr, std::uint32_t>>;
  auto routes = [&] {
    Routes out;
    for (const auto& e : table.entries()) out[e.dest] = {e.next_hop, e.metric};
    return out;
  };
  auto recompute_changes = [&](std::size_t expected, const char* step) {
    const Routes before = routes();
    const std::uint64_t generation = table.generation();
    olsr_recompute_routes(olsr);
    const Routes after = routes();
    std::size_t changed = 0;
    for (const auto& [dest, route] : before) {
      auto it = after.find(dest);
      changed += it == after.end() || it->second != route ? 1 : 0;
    }
    for (const auto& [dest, route] : after) changed += before.count(dest) == 0;
    EXPECT_EQ(changed, expected) << step;
    EXPECT_EQ(table.generation() - generation, changed) << step;
    olsr_recompute_routes(olsr);
    EXPECT_EQ(table.generation() - generation, changed) << step << ", again";
  };
  auto two_hop = [&](std::size_t via, std::vector<net::Addr> sorted) {
    std::sort(sorted.begin(), sorted.end());
    nbr.set_two_hop(a[via], sorted);
  };

  recompute_changes(0, "in sync");
  two_hop(1, {a[0], a[2], a[3]});
  recompute_changes(1, "1-3 up: a metric alone changes");
  EXPECT_EQ(routes()[a[3]], std::make_pair(a[1], 2u));
  two_hop(1, {a[0], a[2]});
  recompute_changes(1, "1-3 down");

  nbr.note_heard(a[2]);
  nbr.set_symmetric(a[2], true);
  two_hop(2, {a[1], a[3]});
  recompute_changes(2, "0-2 up: next hops change");
  EXPECT_EQ(routes(), (Routes{{a[1], {a[1], 1u}},
                              {a[2], {a[2], 1u}},
                              {a[3], {a[2], 2u}}}));
  nbr.set_symmetric(a[2], false);
  recompute_changes(2, "0-2 down");
  nbr.set_symmetric(a[1], false);
  recompute_changes(3, "0-1 down: every route goes");
  EXPECT_TRUE(table.entries().empty());
}

// RFC 3626 §10 parity: on a mobile 50-node world, after every mobility step
// each node's own (memoised) calculator is triggered, and then a fresh one
// with no memo must find the kernel table already in sync — no effective
// change, no route record. The own trigger comes first because the MPR CF
// updates 2-hop sets without an event, so between triggers the table can
// trail its inputs with or without the memo.
TEST(RouteCalcMemo, FreshFullRecomputeChangesNothingUnderMobility) {
  testbed::SimWorld world(50, /*seed=*/1);
  net::GaussMarkov::Params p;
  p.width = 1000.0;
  p.height = 1000.0;
  p.range = 250.0;
  p.mean_speed = 2.0;
  p.speed_sigma = 0.5;
  world.enable_mobility(p, /*seed=*/7);
  obs::Journal& journal = world.enable_tracing();
  world.deploy_all("olsr");

  std::size_t checks = 0;
  for (int step = 0; step < 250; ++step) {  // 25 s at 100 ms
    world.step_mobility(msec(100));
    for (std::size_t i = 0; i < world.size(); ++i) {
      core::ManetProtocolCf& olsr = *world.kit(i).protocol("olsr");
      olsr_recompute_routes(olsr);
      const auto& table = world.node(i).kernel_table();
      const std::uint64_t generation = table.generation();
      const std::uint64_t records = journal.total();
      {
        auto lock = olsr.quiesce();
        RouteCalculator(world.kit(i)).recompute(olsr.context());
      }
      ASSERT_EQ(table.generation(), generation)
          << "node " << i << " at step " << step;
      ASSERT_EQ(journal.total(), records)
          << "node " << i << " at step " << step;
      checks += table.size();
    }
  }
  EXPECT_GT(checks, 0u) << "the world never built a route";
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
