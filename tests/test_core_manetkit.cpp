// MANETKit facade + System CF: dynamic deployment (serial & simultaneous),
// deployment-level integrity, protocol switching with S-element carry-over,
// System CF message registry / demux / NetLink / context sensors, and
// ManetProtocol CF structural rules.
#include <gtest/gtest.h>

#include "core/manetkit.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"
#include "protocols/install.hpp"
#include "testbed/world.hpp"

namespace mk::core {
namespace {

class SpyHandler final : public EventHandler {
 public:
  SpyHandler(std::vector<std::string>* log, std::vector<std::string> types)
      : EventHandler("Spy", types), log_(log) {}
  void handle(const ev::Event& event, ProtocolContext&) override {
    log_->push_back(event.type_name());
  }

 private:
  std::vector<std::string>* log_;
};

struct KitFixture {
  SimScheduler sched;
  net::SimMedium medium{sched};
  net::SimNode node{0, medium, sched};
  Manetkit kit{node};
};

TEST(Manetkit, DeployIsIdempotentAndSharesInstance) {
  testbed::SimWorld world(2);
  auto& kit = world.kit(0);
  auto* mpr1 = kit.deploy("mpr");
  auto* mpr2 = kit.deploy("mpr");
  EXPECT_EQ(mpr1, mpr2);
  EXPECT_TRUE(kit.is_deployed("mpr"));
}

TEST(Manetkit, OlsrDeploymentPullsInMpr) {
  testbed::SimWorld world(2);
  auto& kit = world.kit(0);
  kit.deploy("olsr");
  EXPECT_TRUE(kit.is_deployed("mpr"));
  EXPECT_TRUE(kit.is_deployed("olsr"));
}

TEST(Manetkit, UnknownProtocolThrows) {
  testbed::SimWorld world(1);
  EXPECT_THROW(world.kit(0).deploy("bogus"), std::logic_error);
}

TEST(Manetkit, SingleReactiveProtocolRuleEnforced) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.deploy("dymo");
  EXPECT_THROW(kit.deploy("aodv"), std::logic_error);
  // DYMO must still be intact.
  EXPECT_TRUE(kit.is_deployed("dymo"));
  EXPECT_FALSE(kit.is_deployed("aodv"));
}

TEST(Manetkit, ProactiveAndReactiveCoexist) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.deploy("olsr");
  kit.deploy("dymo");
  EXPECT_TRUE(kit.is_deployed("olsr"));
  EXPECT_TRUE(kit.is_deployed("dymo"));
}

TEST(Manetkit, UndeployRemovesAndStops) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  auto* dymo = kit.deploy("dymo");
  EXPECT_TRUE(dymo->running());
  kit.undeploy("dymo");
  EXPECT_FALSE(kit.is_deployed("dymo"));
  EXPECT_THROW(kit.undeploy("dymo"), std::logic_error);
}

TEST(Manetkit, SerialRedeploymentAfterUndeploy) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.deploy("dymo");
  kit.undeploy("dymo");
  kit.deploy("aodv");  // reactive slot is free again
  EXPECT_TRUE(kit.is_deployed("aodv"));
}

TEST(Manetkit, SwitchProtocolWithoutState) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.deploy("olsr");
  auto* dymo = kit.switch_protocol("olsr", "dymo", /*carry_state=*/false);
  EXPECT_FALSE(kit.is_deployed("olsr"));
  EXPECT_TRUE(kit.is_deployed("dymo"));
  EXPECT_TRUE(dymo->running());
}

TEST(ManetProtocol, StateTransferCarriesSElement) {
  KitFixture f;
  auto cf = std::make_unique<ManetProtocolCf>("p1", f.sched, 1, nullptr);
  cf->set_state(std::make_unique<oc::Component>("test.State"));

  auto taken = cf->take_state();
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(cf->state_component(), nullptr);

  auto cf2 = std::make_unique<ManetProtocolCf>("p2", f.sched, 1, nullptr);
  cf2->set_state(std::move(taken));
  EXPECT_NE(cf2->state_component(), nullptr);
  EXPECT_EQ(cf2->state_component()->name(), "test.State");
}

// The S element is whatever occupies the slot, not a member with a
// particular name, and the slot holds one element at a time.
TEST(ManetProtocol, StateSlotHoldsOneElement) {
  KitFixture f;
  ManetProtocolCf cf("p", f.sched, 1, nullptr);
  const std::size_t base = cf.member_count();  // the ManetControl CF

  // A plain insert() does not fill the slot, whatever the member's name.
  cf.insert(std::make_unique<oc::Component>("State"));
  EXPECT_EQ(cf.state_component(), nullptr);
  EXPECT_THROW(cf.take_state(), std::logic_error);

  // A second set_state replaces the first: one S member, the newer one.
  cf.set_state(std::make_unique<oc::Component>("test.S1"));
  auto s2 = std::make_unique<oc::Component>("test.S2");
  oc::Component* second = s2.get();
  cf.set_state(std::move(s2));
  EXPECT_EQ(cf.state_component(), second);
  EXPECT_EQ(cf.member_count(), base + 2);  // the plain member and S
  EXPECT_EQ(cf.find("test.S1"), nullptr);

  // The generic meta-model operations cannot take the S element out from
  // under its slot.
  EXPECT_THROW(cf.remove(cf.find_id("test.S2")), std::logic_error);
  EXPECT_THROW(cf.replace(cf.find_id("test.S2"),
                          std::make_unique<oc::Component>("test.S3")),
               std::logic_error);
  EXPECT_EQ(cf.state_component(), second);

  // take_state hands the element out and empties the slot.
  auto taken = cf.take_state();
  EXPECT_EQ(taken.get(), second);
  EXPECT_EQ(cf.state_component(), nullptr);
  EXPECT_EQ(cf.member_count(), base + 1);
  EXPECT_THROW(cf.take_state(), std::logic_error);
}

TEST(ManetProtocol, HandlerReplaceUpdatesRegistry) {
  KitFixture f;
  ManetProtocolCf cf("p", f.sched, 1, nullptr);
  std::vector<std::string> log1, log2;
  cf.add_handler(std::make_unique<SpyHandler>(&log1,
                                              std::vector<std::string>{"E1"}));
  cf.deliver(ev::Event(ev::etype("E1")));
  EXPECT_EQ(log1.size(), 1u);

  cf.replace_handler("Spy", std::make_unique<SpyHandler>(
                                &log2, std::vector<std::string>{"E1"}));
  cf.deliver(ev::Event(ev::etype("E1")));
  EXPECT_EQ(log1.size(), 1u);
  EXPECT_EQ(log2.size(), 1u);
}

/// Logs its tag per delivery. The tag is apart from the plug-in name, so a
/// replacement under the same name is told apart from the original.
class TagHandler final : public EventHandler {
 public:
  TagHandler(std::string name, std::string tag,
             std::vector<std::string> types, std::vector<std::string>* log)
      : EventHandler(std::move(name), types), tag_(std::move(tag)), log_(log) {}
  void handle(const ev::Event&, ProtocolContext&) override {
    log_->push_back(tag_);
  }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
};

TEST(ManetControl, RegistryOrderFollowsHandlerMutations) {
  KitFixture f;
  ManetProtocolCf cf("p", f.sched, 1, nullptr);
  std::vector<std::string> log;
  auto handler = [&](std::string name, std::string tag,
                     std::vector<std::string> types) {
    return std::make_unique<TagHandler>(std::move(name), std::move(tag),
                                        std::move(types), &log);
  };
  auto deliver = [&](const char* type) {
    log.clear();
    cf.deliver(ev::Event(ev::etype(type)));
    return log;
  };
  using Tags = std::vector<std::string>;

  cf.add_handler(handler("a", "a", {"REG_X", "REG_Y"}));
  cf.add_handler(handler("b", "b", {"REG_X"}));
  cf.add_handler(handler("c", "c", {"REG_X", "REG_Y"}));
  EXPECT_EQ(deliver("REG_X"), (Tags{"a", "b", "c"}));
  EXPECT_EQ(deliver("REG_Y"), (Tags{"a", "c"}));

  // A replacement takes a fresh component id, so it runs last for its types
  // and leaves the types it no longer handles.
  cf.replace_handler("a", handler("a", "a2", {"REG_X"}));
  EXPECT_EQ(deliver("REG_X"), (Tags{"b", "c", "a2"}));
  EXPECT_EQ(deliver("REG_Y"), (Tags{"c"}));

  EXPECT_TRUE(cf.remove_handler("b"));
  EXPECT_EQ(deliver("REG_X"), (Tags{"c", "a2"}));

  cf.add_handler(handler("d", "d", {"REG_Y"}));
  EXPECT_EQ(deliver("REG_Y"), (Tags{"c", "d"}));

  // A refused replacement (its name collides with "d") leaves every type's
  // handlers, and their order, as they were.
  EXPECT_THROW(cf.replace_handler("c", handler("d", "c2", {"REG_X"})),
               std::logic_error);
  EXPECT_EQ(deliver("REG_X"), (Tags{"c", "a2"}));
  EXPECT_EQ(deliver("REG_Y"), (Tags{"c", "d"}));
}

TEST(ManetProtocol, RemoveHandlerStopsDelivery) {
  KitFixture f;
  ManetProtocolCf cf("p", f.sched, 1, nullptr);
  std::vector<std::string> log;
  cf.add_handler(std::make_unique<SpyHandler>(&log,
                                              std::vector<std::string>{"E2"}));
  EXPECT_TRUE(cf.remove_handler("Spy"));
  EXPECT_FALSE(cf.remove_handler("Spy"));
  cf.deliver(ev::Event(ev::etype("E2")));
  EXPECT_TRUE(log.empty());
}

TEST(ManetProtocol, EmitHookReceivesWhenUnmanaged) {
  KitFixture f;
  ManetProtocolCf cf("p", f.sched, 1, nullptr);
  std::vector<std::string> emitted;
  cf.set_emit_hook([&](const ev::Event& e) { emitted.push_back(e.type_name()); });
  cf.emit(ev::Event(ev::etype("E3")));
  EXPECT_EQ(emitted, std::vector<std::string>{"E3"});
}

// ------------------------------------------------------------------ System CF

TEST(SystemCf, DemuxRaisesInEventsForRegisteredTypes) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto& kit0 = world.kit(0);
  auto& kit1 = world.kit(1);

  kit0.system().register_message(42, "CUSTOM");
  kit1.system().register_message(42, "CUSTOM");

  // A spy protocol on node 1 requiring CUSTOM_IN.
  std::vector<std::string> log;
  kit1.register_protocol("spy", 20, [&log](Manetkit& k) {
    auto cf = std::make_unique<ManetProtocolCf>(
        "spy", k.scheduler(), k.self(), &k.system().sys_state());
    cf->add_handler(std::make_unique<SpyHandler>(
        &log, std::vector<std::string>{"CUSTOM_IN"}));
    cf->declare_events({"CUSTOM_IN"}, {});
    return cf;
  });
  kit1.deploy("spy");

  // Node 0 transmits a CUSTOM message via its System CF.
  pbb::Message m;
  m.type = 42;
  m.originator = kit0.self();
  m.seqnum = 1;
  ev::Event out(ev::etype("CUSTOM_OUT"));
  out.set_msg(m);
  kit0.system().deliver(out);

  world.run_for(msec(100));
  EXPECT_EQ(log, std::vector<std::string>{"CUSTOM_IN"});
}

TEST(SystemCf, ConflictingMessageRegistrationThrows) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.system().register_message(50, "ALPHA");
  kit.system().register_message(50, "ALPHA");  // idempotent: fine
  EXPECT_THROW(kit.system().register_message(50, "BETA"), std::logic_error);
}

TEST(SystemCf, MalformedPacketsCountedNotCrashing) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.kit(1).system().register_message(42, "CUSTOM");
  auto before = world.kit(1).system().parse_errors();
  world.node(0).send_control({0xDE, 0xAD});
  world.run_for(msec(100));
  EXPECT_EQ(world.kit(1).system().parse_errors(), before + 1);
}

TEST(SystemCf, SysStateExposesKernelAndDevices) {
  testbed::SimWorld world(1);
  auto& sys = world.kit(0).system();
  EXPECT_EQ(sys.sys_state().local_addr(), world.addr(0));
  EXPECT_EQ(sys.sys_state().list_devices(),
            std::vector<std::string>{"wlan0"});
  sys.sys_state().kernel_table().set_route(
      net::RouteEntry{99, 98, 1, {}});
  EXPECT_TRUE(world.node(0).kernel_table().lookup(99).has_value());
}

TEST(SystemCf, PowerStatusSensorEmitsContextEvents) {
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);
  kit.system().ensure_power_status(msec(500));
  world.node(0).set_battery(0.42);

  std::vector<double> seen;
  kit.manager().subscribe(ev::types::POWER_STATUS, [&](const ev::Event& e) {
    seen.push_back(e.attr(ev::RealAttr::battery));
  });
  world.run_for(sec(2));
  ASSERT_GE(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen.back(), 0.42);
}

TEST(SystemCf, NetlinkBuffersAndReinjects) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto& kit = world.kit(0);
  kit.system().ensure_netlink();

  int no_route_events = 0;
  kit.manager().subscribe(ev::types::NO_ROUTE,
                          [&](const ev::Event&) { ++no_route_events; });

  // No route: NetLink buffers the packet and raises NO_ROUTE.
  EXPECT_TRUE(world.node(0).forwarding().send(world.addr(1), 64));
  EXPECT_EQ(no_route_events, 1);
  EXPECT_EQ(kit.system().netlink()->buffered_count(), 1u);

  // Install the route and signal ROUTE_FOUND: buffered packet re-injected.
  world.node(0).kernel_table().set_route(
      net::RouteEntry{world.addr(1), world.addr(1), 1, {}});
  ev::Event found(ev::types::ROUTE_FOUND);
  found.set_attr(ev::IntAttr::dest, world.addr(1));
  kit.system().deliver(found);
  world.run_for(msec(100));
  EXPECT_EQ(world.node(1).deliveries().size(), 1u);
  EXPECT_EQ(kit.system().netlink()->buffered_count(), 0u);
}

TEST(SystemCf, NetlinkBufferBoundedPerDest) {
  testbed::SimWorld world(2);
  auto& kit = world.kit(0);
  kit.system().ensure_netlink();
  for (int i = 0; i < 10; ++i) {
    world.node(0).forwarding().send(world.addr(1), 64);
  }
  EXPECT_EQ(kit.system().netlink()->buffered_count(),
            NetLinkComponent::kMaxBufferedPerDest);
  EXPECT_GT(kit.system().netlink()->buffer_drops(), 0u);
}

TEST(SystemCf, NetlinkBufferTimesOut) {
  testbed::SimWorld world(2);
  auto& kit = world.kit(0);
  kit.system().ensure_netlink();
  world.node(0).forwarding().send(world.addr(1), 64);
  EXPECT_EQ(kit.system().netlink()->buffered_count(), 1u);
  world.run_for(sec(15));  // > kBufferTimeout
  EXPECT_EQ(kit.system().netlink()->buffered_count(), 0u);
}

}  // namespace
}  // namespace mk::core
