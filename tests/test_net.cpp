// Simulated network substrate: medium adjacency/loss/delay, device
// attachment, kernel route table, forwarding engine with hooks, topology
// builders and random-waypoint mobility.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace mk::net {
namespace {

struct TwoNodes {
  SimScheduler sched;
  SimMedium medium{sched};
  SimNode a{0, medium, sched};
  SimNode b{1, medium, sched};
};

TEST(Medium, BroadcastReachesOnlyNeighbors) {
  SimScheduler sched;
  SimMedium medium(sched);
  SimNode a(0, medium, sched), b(1, medium, sched), c(2, medium, sched);
  medium.set_link(a.addr(), b.addr(), true);

  int b_got = 0, c_got = 0;
  b.set_control_handler([&](const Frame&) { ++b_got; });
  c.set_control_handler([&](const Frame&) { ++c_got; });

  a.send_control({1, 2, 3});
  sched.run_all();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST(Medium, UnicastToNonNeighborFailsWithFeedback) {
  TwoNodes t;
  // no link
  EXPECT_FALSE(t.a.send_control({1}, t.b.addr()));
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  EXPECT_TRUE(t.a.send_control({1}, t.b.addr()));
  EXPECT_EQ(t.medium.stats().failed_unicasts, 1u);
}

TEST(Medium, AsymmetricLinksAreDirected) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true, /*symmetric=*/false);
  EXPECT_TRUE(t.medium.has_link(t.a.addr(), t.b.addr()));
  EXPECT_FALSE(t.medium.has_link(t.b.addr(), t.a.addr()));
}

TEST(Medium, LossDropsFrames) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.medium.set_loss_probability(1.0);
  int got = 0;
  t.b.set_control_handler([&](const Frame&) { ++got; });
  for (int i = 0; i < 10; ++i) t.a.send_control({1});
  t.sched.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(t.medium.stats().dropped_loss, 10u);
}

TEST(Medium, DeliveryIsDelayed) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.medium.set_base_delay(msec(5));
  TimePoint arrival{};
  t.b.set_control_handler([&](const Frame&) { arrival = t.sched.now(); });
  t.a.send_control({1});
  t.sched.run_all();
  EXPECT_GE(arrival.us, 5000);
}

TEST(Medium, TopologyChangeMidFlightDropsFrame) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.medium.set_base_delay(msec(5));
  int got = 0;
  t.b.set_control_handler([&](const Frame&) { ++got; });
  t.a.send_control({1});
  t.medium.set_link(t.a.addr(), t.b.addr(), false);  // breaks before delivery
  t.sched.run_all();
  EXPECT_EQ(got, 0);
}

TEST(Medium, LinkObserverSeesChanges) {
  TwoNodes t;
  std::vector<std::tuple<Addr, Addr, bool>> events;
  t.medium.add_link_observer([&](Addr x, Addr y, bool up) {
    events.emplace_back(x, y, up);
  });
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.medium.set_link(t.a.addr(), t.b.addr(), true);  // no-op: no event
  t.medium.set_link(t.a.addr(), t.b.addr(), false);
  EXPECT_EQ(events.size(), 4u);  // 2 symmetric ups + 2 downs
}

TEST(Medium, DownDeviceReceivesNothing) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  int got = 0;
  t.b.set_control_handler([&](const Frame&) { ++got; });
  t.b.device().set_up(false);
  t.a.send_control({1});
  t.sched.run_all();
  EXPECT_EQ(got, 0);
}

/// One sender (node 0) linked to k receivers (nodes 1..k); each receiver
/// logs its address on receipt, and may run a per-receiver action first.
struct Fanout {
  explicit Fanout(std::uint32_t k) {
    medium.set_journal(&journal);
    for (std::uint32_t i = 0; i <= k; ++i) {
      nodes.push_back(std::make_unique<SimNode>(i, medium, sched));
    }
    actions.resize(k + 1);
    for (std::uint32_t i = 1; i <= k; ++i) {
      medium.set_link(addr(0), addr(i), true);
      nodes[i]->set_control_handler([this, i](const Frame&) {
        got.push_back(addr(i));
        if (actions[i]) actions[i]();
      });
    }
  }
  Addr addr(std::uint32_t i) const { return nodes[i]->addr(); }
  std::vector<Addr> addrs(std::initializer_list<std::uint32_t> idx) const {
    std::vector<Addr> out;
    for (std::uint32_t i : idx) out.push_back(addr(i));
    return out;
  }
  /// (receiver, sender) of every kFrameRx record, in journal order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> rx_records() const {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (const obs::Record& r : journal.snapshot()) {
      if (r.kind == obs::RecordKind::kFrameRx) out.emplace_back(r.node, r.a);
    }
    return out;
  }

  SimScheduler sched;
  SimMedium medium{sched};
  obs::Journal journal;
  std::vector<std::unique_ptr<SimNode>> nodes;
  std::vector<std::function<void()>> actions;
  std::vector<Addr> got;
};

TEST(MediumBroadcast, OneEventPerBroadcast) {
  Fanout f(4);
  f.nodes[0]->send_control({1, 2, 3});
  EXPECT_EQ(f.sched.pending(), 1u);
  EXPECT_EQ(f.sched.run_all(), 1u);
  EXPECT_EQ(f.got, f.addrs({1, 2, 3, 4}));
}

TEST(MediumBroadcast, RxRecordsMatchThePerReceiverPath) {
  Fanout batched(5);
  batched.nodes[0]->send_control({1, 2, 3});
  batched.sched.run_all();

  // A verdict that delays every receiver alike takes the per-receiver
  // path: one event each, in the same order.
  Fanout delayed(5);
  delayed.medium.set_fault_filter([](const Frame&, Addr) {
    FaultVerdict v;
    v.extra_delay = usec(1);
    return v;
  });
  delayed.nodes[0]->send_control({1, 2, 3});
  EXPECT_EQ(delayed.sched.pending(), 5u);
  delayed.sched.run_all();

  EXPECT_EQ(batched.rx_records().size(), 5u);
  EXPECT_EQ(batched.rx_records(), delayed.rx_records());
  EXPECT_EQ(batched.got, delayed.got);
}

TEST(MediumBroadcast, LookOnlyFilterLeavesTheJournalAsItWas) {
  Fanout plain(5);
  plain.nodes[0]->send_control({1, 2, 3});
  plain.sched.run_all();

  Fanout watched(5);
  int looked = 0;
  watched.medium.set_fault_filter([&](const Frame&, Addr) {
    ++looked;
    return FaultVerdict{};
  });
  watched.nodes[0]->send_control({1, 2, 3});
  EXPECT_EQ(watched.sched.pending(), 1u);
  watched.sched.run_all();

  EXPECT_EQ(looked, 5);
  EXPECT_EQ(watched.journal.ordered_digest(), plain.journal.ordered_digest());
  EXPECT_EQ(watched.got, plain.got);
}

TEST(MediumBroadcast, LinkCutMidFlightDropsOnlyThatReceiver) {
  Fanout f(3);
  f.nodes[0]->send_control({1});
  f.medium.set_link(f.addr(0), f.addr(2), false);
  f.sched.run_all();
  EXPECT_EQ(f.got, f.addrs({1, 3}));
  EXPECT_EQ(f.medium.stats().dropped_link_lost, 1u);
}

TEST(MediumBroadcast, DownReceiverDropsOnlyItself) {
  Fanout f(3);
  f.nodes[0]->send_control({1});
  f.nodes[2]->device().set_up(false);
  f.sched.run_all();
  EXPECT_EQ(f.got, f.addrs({1, 3}));
  EXPECT_EQ(f.medium.stats().dropped_node_down, 1u);
}

TEST(MediumBroadcast, ReceiverMayTransmitFromInsideReceive) {
  Fanout f(3);
  f.medium.set_link(f.addr(1), f.addr(2), true);
  // Node 1 rebroadcasts on first receipt; node 0 and node 2 hear it.
  bool relayed = false;
  f.actions[1] = [&] {
    if (!relayed) {
      relayed = true;
      f.nodes[1]->send_control({9});
    }
  };
  f.nodes[0]->send_control({1});
  f.sched.run_all();
  EXPECT_EQ(f.got, f.addrs({1, 2, 3, 2}));
}

TEST(MediumBroadcast, TrappedThrowStillDeliversToTheRest) {
  Fanout f(4);
  int trapped = 0;
  f.sched.set_fault_trap([&](std::exception_ptr) {
    ++trapped;
    return true;
  });
  f.actions[2] = [] { throw std::runtime_error("receiver 2 failed"); };
  f.nodes[0]->send_control({1});
  f.sched.run_all();
  EXPECT_EQ(trapped, 1);
  EXPECT_EQ(f.got, f.addrs({1, 2, 3, 4}));
}

TEST(MediumBroadcast, DeclinedThrowReachesTheDriverOnceAndTheRestStayPending) {
  Fanout f(4);
  int offered = 0;
  f.sched.set_fault_trap([&](std::exception_ptr) {
    ++offered;
    return false;
  });
  f.actions[2] = [] { throw std::runtime_error("receiver 2 failed"); };
  f.nodes[0]->send_control({1});
  EXPECT_THROW(f.sched.step(), std::runtime_error);
  EXPECT_EQ(offered, 1);
  EXPECT_EQ(f.got, f.addrs({1, 2}));
  // A driver that carries on still delivers to receivers 3 and 4.
  f.sched.run_all();
  EXPECT_EQ(f.got, f.addrs({1, 2, 3, 4}));
}

TEST(KernelTable, SetLookupRemove) {
  KernelRouteTable table;
  table.set_route(RouteEntry{10, 20, 2, {}});
  ASSERT_TRUE(table.lookup(10).has_value());
  EXPECT_EQ(table.lookup(10)->next_hop, 20u);
  EXPECT_FALSE(table.lookup(11).has_value());
  EXPECT_TRUE(table.remove_route(10));
  EXPECT_FALSE(table.remove_route(10));
}

TEST(KernelTable, DestsViaAndGeneration) {
  KernelRouteTable table;
  auto gen0 = table.generation();
  table.set_route(RouteEntry{10, 99, 1, {}});
  table.set_route(RouteEntry{11, 99, 2, {}});
  table.set_route(RouteEntry{12, 50, 1, {}});
  EXPECT_EQ(table.dests_via(99).size(), 2u);
  EXPECT_GT(table.generation(), gen0);
}

TEST(KernelTable, IdenticalReinstallIsNoOp) {
  obs::Journal journal;
  KernelRouteTable table;
  table.set_journal(&journal, 1, nullptr);
  table.set_route(RouteEntry{10, 20, 2, TimePoint{5}});
  const auto gen = table.generation();
  const auto records = journal.total();

  table.set_route(RouteEntry{10, 20, 2, TimePoint{9}});
  EXPECT_EQ(table.generation(), gen);
  EXPECT_EQ(journal.total(), records);
  EXPECT_EQ(table.lookup(10)->installed_at, TimePoint{5}) << "not rewritten";

  table.set_route(RouteEntry{10, 20, 3, TimePoint{9}});
  EXPECT_EQ(table.generation(), gen + 1);
  EXPECT_EQ(journal.total(), records + 1);
  EXPECT_EQ(table.lookup(10)->metric, 3u);
}

// The flat table against the ordered map it replaced: every answer, every
// journal record (kind, order, fields) and every generation bump must match
// over a seeded mix of installs, reinstalls, removals and clears.
TEST(KernelRouteTable, MatchesMapOracle) {
  SimScheduler sched;
  obs::Journal journal;
  KernelRouteTable table;
  table.set_journal(&journal, 7, &sched);

  std::map<Addr, RouteEntry> oracle;
  std::vector<obs::Record> want;
  std::uint64_t want_gen = table.generation();
  auto record = [&](obs::RecordKind kind, Addr dest, Addr hop,
                    std::uint32_t metric) {
    want.push_back({kind, 7, sched.now().us, dest, hop, metric});
  };

  Rng rng(20261020);
  for (int step = 0; step < 4000; ++step) {
    sched.run_for(usec(10));
    const auto dest = static_cast<Addr>(rng.uniform_int(1, 48));
    const auto hop = static_cast<Addr>(rng.uniform_int(100, 105));
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 55) {
      const auto metric = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      table.set_route(RouteEntry{dest, hop, metric, sched.now()});
      auto it = oracle.find(dest);
      if (it == oracle.end() || it->second.next_hop != hop ||
          it->second.metric != metric) {
        oracle[dest] = RouteEntry{dest, hop, metric, sched.now()};
        ++want_gen;
        record(obs::RecordKind::kRouteAdd, dest, hop, metric);
      }
    } else if (op < 85) {
      const bool had = oracle.erase(dest) > 0;
      EXPECT_EQ(table.remove_route(dest), had);
      if (had) {
        ++want_gen;
        record(obs::RecordKind::kRouteDel, dest, 0, 0);
      }
    } else if (op < 99) {
      std::vector<Addr> via;
      for (const auto& [d, e] : oracle) {
        if (e.next_hop == hop) via.push_back(d);
      }
      EXPECT_EQ(table.dests_via(hop), via) << "step " << step;
    } else {
      if (!oracle.empty()) ++want_gen;
      for (const auto& [d, _] : oracle) {
        record(obs::RecordKind::kRouteDel, d, 0, 0);
      }
      oracle.clear();
      table.clear();
    }
    ASSERT_EQ(table.generation(), want_gen) << "step " << step;
    ASSERT_EQ(table.size(), oracle.size()) << "step " << step;

    auto got = table.lookup(dest);
    auto it = oracle.find(dest);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << "step " << step;
    if (got) {
      EXPECT_EQ(got->next_hop, it->second.next_hop);
      EXPECT_EQ(got->metric, it->second.metric);
      EXPECT_EQ(got->installed_at, it->second.installed_at);
    }
  }

  std::vector<RouteEntry> entries = table.entries();
  ASSERT_EQ(entries.size(), oracle.size());
  auto it = oracle.begin();
  for (const RouteEntry& e : entries) {
    EXPECT_EQ(e.dest, it->first) << "entries() must run in address order";
    EXPECT_EQ(e.next_hop, it->second.next_hop);
    ++it;
  }
  EXPECT_EQ(journal.snapshot(), want);
}

TEST(Forwarding, DeliversLocallyAcrossTwoHops) {
  SimScheduler sched;
  SimMedium medium(sched);
  SimNode a(0, medium, sched), b(1, medium, sched), c(2, medium, sched);
  topo::linear(medium, std::vector<Addr>{a.addr(), b.addr(), c.addr()});

  a.kernel_table().set_route(RouteEntry{c.addr(), b.addr(), 2, {}});
  b.kernel_table().set_route(RouteEntry{c.addr(), c.addr(), 1, {}});

  EXPECT_TRUE(a.forwarding().send(c.addr(), 100));
  sched.run_all();
  ASSERT_EQ(c.deliveries().size(), 1u);
  EXPECT_EQ(c.deliveries()[0].hdr.src, a.addr());
  EXPECT_EQ(b.forwarding().stats().forwarded, 1u);
}

TEST(Forwarding, NoRouteHookBuffersPacket) {
  TwoNodes t;
  bool hook_called = false;
  ForwardingEngine::Hooks hooks;
  hooks.on_no_route = [&](const DataHeader&) {
    hook_called = true;
    return true;  // consumed
  };
  t.a.forwarding().set_hooks(std::move(hooks));
  EXPECT_TRUE(t.a.forwarding().send(t.b.addr(), 10));
  EXPECT_TRUE(hook_called);
  EXPECT_EQ(t.a.forwarding().stats().buffered, 1u);
}

TEST(Forwarding, NoRouteWithoutHookDrops) {
  TwoNodes t;
  EXPECT_FALSE(t.a.forwarding().send(t.b.addr(), 10));
  EXPECT_EQ(t.a.forwarding().stats().dropped_no_route, 1u);
}

TEST(Forwarding, SendFailureHookFiresOnBrokenLink) {
  TwoNodes t;
  t.a.kernel_table().set_route(RouteEntry{t.b.addr(), t.b.addr(), 1, {}});
  Addr broken = kNoAddr;
  ForwardingEngine::Hooks hooks;
  hooks.on_send_failure = [&](const DataHeader&, Addr hop) { broken = hop; };
  t.a.forwarding().set_hooks(std::move(hooks));
  EXPECT_FALSE(t.a.forwarding().send(t.b.addr(), 10));  // no link
  EXPECT_EQ(broken, t.b.addr());
}

TEST(Forwarding, TtlExpiryDrops) {
  SimScheduler sched;
  SimMedium medium(sched);
  SimNode a(0, medium, sched), b(1, medium, sched), c(2, medium, sched);
  topo::linear(medium, std::vector<Addr>{a.addr(), b.addr(), c.addr()});
  a.kernel_table().set_route(RouteEntry{c.addr(), b.addr(), 2, {}});
  b.kernel_table().set_route(RouteEntry{c.addr(), c.addr(), 1, {}});

  EXPECT_TRUE(a.forwarding().send(c.addr(), 10, /*ttl=*/1));
  sched.run_all();
  EXPECT_TRUE(c.deliveries().empty());
  EXPECT_EQ(b.forwarding().stats().dropped_ttl, 1u);
}

TEST(Forwarding, RouteUsedHookFires) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.a.kernel_table().set_route(RouteEntry{t.b.addr(), t.b.addr(), 1, {}});
  Addr used = kNoAddr;
  ForwardingEngine::Hooks hooks;
  hooks.on_route_used = [&](Addr d) { used = d; };
  t.a.forwarding().set_hooks(std::move(hooks));
  t.a.forwarding().send(t.b.addr(), 10);
  EXPECT_EQ(used, t.b.addr());
}

TEST(Topology, BuildersProduceExpectedDegrees) {
  SimScheduler sched;
  SimMedium medium(sched);
  std::vector<Addr> addrs;
  for (std::uint32_t i = 0; i < 9; ++i) addrs.push_back(addr_for_index(i));

  topo::linear(medium, addrs);
  EXPECT_EQ(medium.neighbors_of(addrs[0]).size(), 1u);
  EXPECT_EQ(medium.neighbors_of(addrs[4]).size(), 2u);

  medium.clear_links();
  topo::ring(medium, addrs);
  for (Addr a : addrs) EXPECT_EQ(medium.neighbors_of(a).size(), 2u);

  medium.clear_links();
  topo::grid(medium, addrs, 3);
  EXPECT_EQ(medium.neighbors_of(addrs[4]).size(), 4u);  // center of 3x3
  EXPECT_EQ(medium.neighbors_of(addrs[0]).size(), 2u);  // corner

  medium.clear_links();
  topo::full_mesh(medium, addrs);
  for (Addr a : addrs) EXPECT_EQ(medium.neighbors_of(a).size(), 8u);
}

TEST(Topology, RangeLinksFollowPositions) {
  SimScheduler sched;
  SimMedium medium(sched);
  SimNode a(0, medium, sched), b(1, medium, sched);
  a.set_position({0, 0});
  b.set_position({100, 0});
  std::vector<SimNode*> nodes{&a, &b};
  topo::apply_range_links(medium, nodes, 150.0);
  EXPECT_TRUE(medium.has_link(a.addr(), b.addr()));
  b.set_position({200, 0});
  topo::apply_range_links(medium, nodes, 150.0);
  EXPECT_FALSE(medium.has_link(a.addr(), b.addr()));
}

TEST(Mobility, RandomWaypointMovesNodesAndKeepsBounds) {
  SimScheduler sched;
  SimMedium medium(sched);
  std::vector<std::unique_ptr<SimNode>> nodes;
  std::vector<SimNode*> ptrs;
  for (std::uint32_t i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<SimNode>(i, medium, sched));
    ptrs.push_back(nodes.back().get());
  }
  RandomWaypoint::Params params;
  params.width = 500;
  params.height = 500;
  params.min_speed = 5;
  params.max_speed = 20;
  params.pause = 0.5;
  RandomWaypoint rwp(medium, ptrs, params, /*seed=*/11);

  auto p0 = ptrs[0]->position();
  bool moved = false;
  for (int i = 0; i < 100; ++i) {
    rwp.step(sec(1));
    for (auto* n : ptrs) {
      EXPECT_GE(n->position().x, 0.0);
      EXPECT_LE(n->position().x, 500.0);
      EXPECT_GE(n->position().y, 0.0);
      EXPECT_LE(n->position().y, 500.0);
    }
    auto p = ptrs[0]->position();
    if (p.x != p0.x || p.y != p0.y) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Node, BatteryDrainsPerTransmission) {
  TwoNodes t;
  t.medium.set_link(t.a.addr(), t.b.addr(), true);
  t.a.set_tx_cost(0.1);
  for (int i = 0; i < 3; ++i) t.a.send_control({1});
  EXPECT_NEAR(t.a.battery(), 0.7, 1e-9);
}

}  // namespace
}  // namespace mk::net
