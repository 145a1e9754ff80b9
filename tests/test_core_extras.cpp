// Further core behaviours: PacketBB message aggregation in the System CF,
// per-message processing-time profiling (the Table 1 instrument), event FIFO
// ordering across same-interest protocols, and OLSR's triggered TCs.
#include <gtest/gtest.h>

#include "core/manetkit.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "testbed/world.hpp"

namespace mk::core {
namespace {

pbb::Message tiny_msg(std::uint8_t type, std::uint16_t seq) {
  pbb::Message m;
  m.type = type;
  m.originator = 1;
  m.seqnum = seq;
  return m;
}

TEST(Aggregation, DisabledByDefaultOnePacketPerMessage) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto& sys = world.kit(0).system();
  sys.register_message(60, "AGG");

  for (int i = 0; i < 3; ++i) {
    ev::Event e(ev::etype("AGG_OUT"));
    e.set_msg(tiny_msg(60, static_cast<std::uint16_t>(i)));
    sys.deliver(e);
  }
  world.run_for(msec(100));
  EXPECT_EQ(sys.packets_sent(), 3u);
  EXPECT_EQ(sys.messages_sent(), 3u);
}

TEST(Aggregation, WindowCoalescesMessagesIntoOnePacket) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto& sys0 = world.kit(0).system();
  auto& sys1 = world.kit(1).system();
  sys0.register_message(60, "AGG");
  sys1.register_message(60, "AGG");
  sys0.set_aggregation_window(msec(50));

  int received = 0;
  world.kit(1).manager().subscribe("AGG_IN",
                                   [&](const ev::Event&) { ++received; });

  for (int i = 0; i < 5; ++i) {
    ev::Event e(ev::etype("AGG_OUT"));
    e.set_msg(tiny_msg(60, static_cast<std::uint16_t>(i)));
    sys0.deliver(e);
  }
  world.run_for(msec(200));

  EXPECT_EQ(sys0.packets_sent(), 1u);
  EXPECT_EQ(sys0.messages_sent(), 5u);
  EXPECT_EQ(received, 5) << "all aggregated messages must demux individually";
}

TEST(Aggregation, UnicastAndBroadcastKeptApart) {
  testbed::SimWorld world(3);
  world.full_mesh();
  auto& sys = world.kit(0).system();
  sys.register_message(60, "AGG");
  sys.set_aggregation_window(msec(50));

  ev::Event bcast(ev::etype("AGG_OUT"));
  bcast.set_msg(tiny_msg(60, 1));
  sys.deliver(bcast);
  ev::Event ucast(ev::etype("AGG_OUT"));
  ucast.set_msg(tiny_msg(60, 2));
  ucast.set_attr(ev::IntAttr::unicast_to, world.addr(1));
  sys.deliver(ucast);

  world.run_for(msec(200));
  EXPECT_EQ(sys.packets_sent(), 2u);  // different link destinations
}

TEST(Aggregation, DisablingFlushesPending) {
  testbed::SimWorld world(2);
  world.full_mesh();
  auto& sys = world.kit(0).system();
  sys.register_message(60, "AGG");
  sys.set_aggregation_window(sec(10));  // long window

  ev::Event e(ev::etype("AGG_OUT"));
  e.set_msg(tiny_msg(60, 1));
  sys.deliver(e);
  EXPECT_EQ(sys.packets_sent(), 0u);

  sys.set_aggregation_window(Duration{0});  // disable -> immediate flush
  EXPECT_EQ(sys.packets_sent(), 1u);
}

TEST(Aggregation, OlsrStillConvergesWithAggregation) {
  testbed::SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  for (std::size_t i = 0; i < 4; ++i) {
    world.kit(i).system().set_aggregation_window(msec(20));
  }
  EXPECT_TRUE(world.run_until_routed(sec(90)).has_value());
}

TEST(Profiling, RecordsPerMessageProcessingTimes) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  world.kit(1).system().enable_profiling(true);
  world.run_for(sec(30));

  const auto& times = world.kit(1).system().processing_times();
  ASSERT_TRUE(times.count("HELLO") > 0);
  EXPECT_GT(times.at("HELLO").count(), 0u);
  EXPECT_GT(times.at("HELLO").mean(), 0.0);
}

TEST(FifoOrdering, SameInterestProtocolsSeeSameOrder) {
  // The paper (§4.4): protocols sharing an interest in a set of events all
  // process them in the same FIFO order.
  testbed::SimWorld world(1);
  auto& kit = world.kit(0);

  struct OrderHandler final : EventHandler {
    explicit OrderHandler(std::vector<std::int64_t>* log)
        : EventHandler("test.OrderHandler", {"SEQD"}), log_(log) {}
    void handle(const ev::Event& e, ProtocolContext&) override {
      log_->push_back(e.attr(ev::IntAttr::dest));
    }
    std::vector<std::int64_t>* log_;
  };

  std::vector<std::int64_t> log_a, log_b;
  for (auto [name, log] : {std::pair<const char*, std::vector<std::int64_t>*>{
                               "pa", &log_a},
                           {"pb", &log_b}}) {
    auto* captured = log;
    kit.register_protocol(name, 20, [captured](Manetkit& k) {
      auto cf = std::make_unique<ManetProtocolCf>(
          "p", k.scheduler(), k.self(), &k.system().sys_state());
      cf->add_handler(std::make_unique<OrderHandler>(captured));
      cf->declare_events({"SEQD"}, {});
      return cf;
    });
    kit.deploy(name);
  }

  for (int i = 0; i < 100; ++i) {
    ev::Event e(ev::etype("SEQD"));
    e.set_attr(ev::IntAttr::dest, i);
    kit.system().emit(std::move(e));
  }
  kit.manager().drain();
  ASSERT_EQ(log_a.size(), 100u);
  EXPECT_EQ(log_a, log_b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(log_a[static_cast<std::size_t>(i)], i);
}

TEST(TriggeredTc, MprChangePublishesTopologyEarly) {
  // Without the periodic TC generator, topology can only spread via
  // *triggered* TCs (sent on MPR_CHANGE). Routes beyond 2 hops still form.
  testbed::SimWorld world(4);
  world.linear();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(world.kit(i).deploy("olsr")->remove_source("TcGenerator"));
  }
  auto converged = world.run_until_routed(sec(60));
  EXPECT_TRUE(converged.has_value())
      << "triggered TCs must propagate topology without periodic TCs";
}

}  // namespace
}  // namespace mk::core
