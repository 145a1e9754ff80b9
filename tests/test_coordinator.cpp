// Coordinated distributed reconfiguration: command flooding, epoch duplicate
// suppression — including RFC 1982 serial comparison across the uint16
// wraparound (ISSUE 5) — unknown-action tolerance, and a real network-wide
// protocol switch initiated from one node.
#include <gtest/gtest.h>

#include <atomic>

#include "policy/coordinator.hpp"
#include "testbed/world.hpp"

namespace mk::policy {
namespace {

TEST(Coordinator, DeployIsIdempotent) {
  testbed::SimWorld world(1);
  auto* a = deploy_coordinator(world.kit(0));
  auto* b = deploy_coordinator(world.kit(0));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(world.kit(0).is_deployed("reconfig"));
}

TEST(Coordinator, InitiateRunsLocallyAndFloodsChain) {
  testbed::SimWorld world(5);
  world.linear();
  std::atomic<int> ran{0};
  std::vector<core::ManetProtocolCf*> coords;
  for (std::size_t i = 0; i < 5; ++i) {
    auto* c = deploy_coordinator(world.kit(i));
    register_action(*c, "ping", [&ran](core::Manetkit&) { ++ran; });
    coords.push_back(c);
  }

  initiate(*coords[0], "ping");
  world.run_for(sec(1));
  EXPECT_EQ(ran.load(), 5) << "every node must execute exactly once";
  for (auto* c : coords) {
    EXPECT_EQ(commands_executed(*c), 1u);
  }
}

TEST(Coordinator, DuplicateFloodsExecuteOnce) {
  // Diamond topology: node 3 hears the command via two paths.
  testbed::SimWorld world(4);
  auto a = world.addrs();
  world.medium().set_link(a[0], a[1], true);
  world.medium().set_link(a[0], a[2], true);
  world.medium().set_link(a[1], a[3], true);
  world.medium().set_link(a[2], a[3], true);

  std::vector<int> ran(4, 0);
  std::vector<core::ManetProtocolCf*> coords;
  for (std::size_t i = 0; i < 4; ++i) {
    auto* c = deploy_coordinator(world.kit(i));
    register_action(*c, "ping",
                    [&ran, i](core::Manetkit&) { ++ran[i]; });
    coords.push_back(c);
  }
  initiate(*coords[0], "ping");
  world.run_for(sec(1));
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Coordinator, SuccessiveEpochsAllExecute) {
  testbed::SimWorld world(2);
  world.full_mesh();
  std::atomic<int> ran{0};
  std::vector<core::ManetProtocolCf*> coords;
  for (std::size_t i = 0; i < 2; ++i) {
    auto* c = deploy_coordinator(world.kit(i));
    register_action(*c, "ping", [&ran](core::Manetkit&) { ++ran; });
    coords.push_back(c);
  }
  auto e1 = initiate(*coords[0], "ping");
  world.run_for(sec(1));
  auto e2 = initiate(*coords[0], "ping");
  world.run_for(sec(1));
  EXPECT_NE(e1, e2);
  EXPECT_EQ(ran.load(), 4);
}

TEST(Coordinator, UnknownActionIsToleratedByReceivers) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto* c0 = deploy_coordinator(world.kit(0));
  auto* c1 = deploy_coordinator(world.kit(1));
  register_action(*c0, "only-here", [](core::Manetkit&) {});
  // node 1 never registered the action: must log-and-ignore, not crash.
  initiate(*c0, "only-here");
  world.run_for(sec(1));
  EXPECT_EQ(commands_executed(*c1), 0u);

  EXPECT_THROW(initiate(*c1, "only-here"), std::logic_error);
}

TEST(Coordinator, NetworkWideProtocolSwitch) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  std::vector<core::ManetProtocolCf*> coords;
  for (std::size_t i = 0; i < 5; ++i) {
    auto* c = deploy_coordinator(world.kit(i));
    register_action(*c, "go-reactive", [](core::Manetkit& kit) {
      if (kit.is_deployed("olsr")) {
        kit.switch_protocol("olsr", "dymo", /*carry_state=*/false);
      }
      if (kit.is_deployed("mpr")) kit.undeploy("mpr");
    });
    coords.push_back(c);
  }

  // One node decides; the whole network follows.
  initiate(*coords[2], "go-reactive");
  world.run_for(sec(2));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(world.kit(i).is_deployed("dymo")) << "node " << i;
    EXPECT_FALSE(world.kit(i).is_deployed("olsr")) << "node " << i;
  }

  // The switched network still routes (reactively, once old routes lapse).
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(5));
  EXPECT_GE(world.node(4).deliveries().size(), 1u);
}

// ------------------------------------------------- epoch serial arithmetic

TEST(Coordinator, EpochNewerComparesSerially) {
  // Plain ordering within half the number space...
  EXPECT_TRUE(serial_newer(2, 1));
  EXPECT_FALSE(serial_newer(1, 2));
  EXPECT_FALSE(serial_newer(7, 7));
  EXPECT_TRUE(serial_newer(0x7fff, 0));
  // ...the exact half-distance is incomparable: neither side is newer (the
  // RFC 1982 undefined case — we deliberately fail closed and suppress)...
  EXPECT_FALSE(serial_newer(0x8000, 0));
  EXPECT_FALSE(serial_newer(0, 0x8000));
  // ...and the wraparound reads as forward progress, not ancient history.
  EXPECT_TRUE(serial_newer(0, 0xffff));
  EXPECT_TRUE(serial_newer(5, 0xfffe));
  EXPECT_FALSE(serial_newer(0xffff, 0));
  EXPECT_FALSE(serial_newer(0xfffe, 5));
}

// --------------------------------------------- bounded per-origin epoch map

TEST(Coordinator, OriginEpochMapFiltersAndRefreshes) {
  OriginEpochMap m(/*max_origins=*/4);
  EXPECT_FALSE(m.seen(10, 1));  // fresh origin
  EXPECT_TRUE(m.seen(10, 1));   // duplicate epoch
  EXPECT_TRUE(m.seen(10, 0));   // stale epoch
  EXPECT_FALSE(m.seen(10, 2));  // serially newer
  EXPECT_EQ(m.size(), 1u);
}

TEST(Coordinator, OriginEpochMapEvictsLeastRecentlySeen) {
  OriginEpochMap m(/*max_origins=*/3);
  EXPECT_FALSE(m.seen(1, 5));
  EXPECT_FALSE(m.seen(2, 5));
  EXPECT_FALSE(m.seen(3, 5));
  // Refresh 1's last-seen stamp with a duplicate sighting: 2 is now the
  // least recently heard from.
  EXPECT_TRUE(m.seen(1, 5));
  EXPECT_FALSE(m.seen(4, 5));  // over capacity: evicts origin 2
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.tracks(1));
  EXPECT_FALSE(m.tracks(2));
  EXPECT_TRUE(m.tracks(3));
  EXPECT_TRUE(m.tracks(4));
  // The evicted origin re-admits its old epoch once (bounded memory), but
  // is filtered again from then on.
  EXPECT_FALSE(m.seen(2, 5));
  EXPECT_TRUE(m.seen(2, 5));
}

TEST(Coordinator, OriginEpochMapBoundedUnderThousandOriginChurn) {
  OriginEpochMap m;  // default cap: 1024 origins
  // Wave 1: a thousand distinct origins, two sightings each.
  for (net::Addr origin = 1; origin <= 1000; ++origin) {
    EXPECT_FALSE(m.seen(origin, 1));
    EXPECT_TRUE(m.seen(origin, 1));
  }
  EXPECT_EQ(m.size(), 1000u);
  // Wave 2: a thousand *new* origins churn through. The map must stay at
  // its cap, shedding the longest-silent wave-1 origins.
  for (net::Addr origin = 2001; origin <= 3000; ++origin) {
    EXPECT_FALSE(m.seen(origin, 1));
  }
  EXPECT_EQ(m.size(), OriginEpochMap::kDefaultMaxOrigins);
  // Every wave-2 origin survived (they are the most recently seen)...
  for (net::Addr origin = 2001; origin <= 3000; ++origin) {
    EXPECT_TRUE(m.seen(origin, 1)) << "origin " << origin;
  }
  // ...and stale epochs from surviving wave-1 origins are still filtered.
  std::size_t survivors = 0;
  for (net::Addr origin = 1; origin <= 1000; ++origin) {
    if (m.tracks(origin) && m.seen(origin, 0)) ++survivors;
  }
  EXPECT_EQ(survivors, OriginEpochMap::kDefaultMaxOrigins - 1000);
  EXPECT_EQ(m.size(), OriginEpochMap::kDefaultMaxOrigins);
}

/// Builds a RECONFIG command as a peer would flood it (message type 40,
/// action-name TLV 11, epoch in the message seqnum). has_hops is off so the
/// receiver executes without relaying.
ev::Event make_command(net::Addr origin, std::uint16_t epoch,
                       const std::string& action) {
  pbb::Message m;
  m.type = 40;
  m.originator = origin;
  m.seqnum = epoch;
  pbb::Tlv name_tlv;
  name_tlv.type = 11;
  name_tlv.value.assign(action.begin(), action.end());
  m.tlvs.push_back(std::move(name_tlv));
  ev::Event e(ev::etype("RECONFIG_IN"));
  e.set_msg(std::move(m));
  return e;
}

/// Harness: a local event source providing RECONFIG_IN, so tests can feed
/// the coordinator crafted epochs without a live network.
core::ManetProtocolCf* deploy_command_source(core::Manetkit& kit) {
  kit.register_protocol("cmdsrc", 5, [](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "cmdsrc", k.scheduler(), k.self(), &k.system().sys_state());
    cf->declare_events({}, {"RECONFIG_IN"});
    return cf;
  });
  return kit.deploy("cmdsrc");
}

TEST(Coordinator, EpochWrapAroundKeepsSuppressingStaleFloods) {
  testbed::SimWorld world(1);
  auto* coord = deploy_coordinator(world.kit(0));
  register_action(*coord, "ping", [](core::Manetkit&) {});
  auto* src = deploy_command_source(world.kit(0));
  const net::Addr peer = net::addr_for_index(1);

  // Approach the wrap, cross it, and then replay the pre-wrap epochs. Before
  // the RFC 1982 fix, every post-wrap epoch looked "new" only because the
  // duplicate FIFO still held the exact pair — and a rolled-out 65535 would
  // re-execute.
  src->emit(make_command(peer, 65534, "ping"));
  src->emit(make_command(peer, 65535, "ping"));
  EXPECT_EQ(commands_executed(*coord), 2u);

  src->emit(make_command(peer, 0, "ping"));  // serially newer: wraps
  EXPECT_EQ(commands_executed(*coord), 3u);

  src->emit(make_command(peer, 65535, "ping"));  // stale replay
  src->emit(make_command(peer, 65534, "ping"));  // staler replay
  EXPECT_EQ(commands_executed(*coord), 3u);

  src->emit(make_command(peer, 1, "ping"));  // progress resumes
  EXPECT_EQ(commands_executed(*coord), 4u);
  src->emit(make_command(peer, 0, "ping"));  // replay of the wrap epoch
  EXPECT_EQ(commands_executed(*coord), 4u);
}

TEST(Coordinator, StaleEpochStaysRejectedAfterManyCampaigns) {
  testbed::SimWorld world(1);
  auto* coord = deploy_coordinator(world.kit(0));
  register_action(*coord, "ping", [](core::Manetkit&) {});
  auto* src = deploy_command_source(world.kit(0));
  const net::Addr peer = net::addr_for_index(1);

  // 300 campaigns overflow the old 256-entry duplicate FIFO; epoch 5 would
  // then have re-executed. Per-origin latest-epoch tracking has no window to
  // roll out of.
  for (std::uint16_t e = 1; e <= 300; ++e) {
    src->emit(make_command(peer, e, "ping"));
  }
  EXPECT_EQ(commands_executed(*coord), 300u);
  src->emit(make_command(peer, 5, "ping"));
  EXPECT_EQ(commands_executed(*coord), 300u);

  // Epochs are tracked per origin: another peer's epoch 5 is fresh.
  src->emit(make_command(net::addr_for_index(2), 5, "ping"));
  EXPECT_EQ(commands_executed(*coord), 301u);
}

}  // namespace
}  // namespace mk::policy
