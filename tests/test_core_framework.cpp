// Framework Manager: declarative <required, provided> binding derivation —
// fan-out to consumers, interposer chains ordered by layer, exclusive
// delivery, loop avoidance, rebinding on tuple change — plus concurrency
// models and the context concentrator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "util/scheduler.hpp"

namespace mk::core {
namespace {

/// Records events; optionally re-emits them under a (possibly different)
/// type — enough to model producers, consumers and interposers.
class RelayHandler final : public EventHandler {
 public:
  RelayHandler(const std::vector<std::string>& in, std::string out,
               std::string tag, std::vector<std::string>* log)
      : EventHandler("Relay:" + tag, in),
        out_(std::move(out)),
        tag_(std::move(tag)),
        log_(log) {}

  void handle(const ev::Event& event, ProtocolContext& ctx) override {
    log_->push_back(tag_ + ":" + event.type_name());
    if (!out_.empty()) {
      ev::Event renamed(ev::etype(out_));
      renamed.set_msg(event.shared_msg());
      ctx.emit(std::move(renamed));
    }
  }

 private:
  std::string out_;
  std::string tag_;
  std::vector<std::string>* log_;
};

struct Fixture {
  SimScheduler sched;
  net::SimMedium medium{sched};
  net::SimNode node{0, medium, sched};
  FrameworkManager manager;
  std::vector<std::string> log;
  std::vector<std::unique_ptr<ManetProtocolCf>> owned;

  /// Creates a unit with the given tuple; handlers log "<tag>:<event>" and
  /// re-emit `emit_as` (if nonempty) for each required event.
  ManetProtocolCf* unit(const std::string& tag, int layer,
                        std::vector<std::string> required,
                        std::vector<std::string> provided,
                        std::string emit_as = "",
                        std::vector<std::string> exclusive = {}) {
    auto cf = std::make_unique<ManetProtocolCf>(tag, sched, 1, nullptr);
    if (!required.empty()) {
      cf->add_handler(
          std::make_unique<RelayHandler>(required, emit_as, tag, &log));
    }
    ManetProtocolCf* raw = cf.get();
    owned.push_back(std::move(cf));
    manager.register_unit(raw, layer);
    raw->declare_events(required, provided, exclusive);
    return raw;
  }
};

TEST(FrameworkManager, FanOutToAllConsumers) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_X"});
  f.unit("c1", 10, {"EVT_X"}, {});
  f.unit("c2", 10, {"EVT_X"}, {});
  p->emit(ev::Event(ev::etype("EVT_X")));
  EXPECT_EQ(f.log, (std::vector<std::string>{"c1:EVT_X", "c2:EVT_X"}));
}

TEST(FrameworkManager, ExclusiveConsumerSuppressesOthers) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_EX"});
  f.unit("normal", 10, {"EVT_EX"}, {});
  f.unit("greedy", 10, {"EVT_EX"}, {}, "", /*exclusive=*/{"EVT_EX"});
  p->emit(ev::Event(ev::etype("EVT_EX")));
  EXPECT_EQ(f.log, (std::vector<std::string>{"greedy:EVT_EX"}));
}

TEST(FrameworkManager, InterposerChainOrderedByLayerDescending) {
  Fixture f;
  auto* top = f.unit("top", 30, {}, {"EVT_I"});
  f.unit("mid", 20, {"EVT_I"}, {"EVT_I"}, "EVT_I");   // interposer
  f.unit("low", 10, {"EVT_I"}, {"EVT_I"}, "EVT_I");   // interposer
  f.unit("sink", 0, {"EVT_I"}, {});
  top->emit(ev::Event(ev::etype("EVT_I")));
  EXPECT_EQ(f.log, (std::vector<std::string>{"mid:EVT_I", "low:EVT_I",
                                             "sink:EVT_I"}));
}

TEST(FrameworkManager, LateInsertedInterposerSlotsByLayer) {
  Fixture f;
  auto* top = f.unit("top", 30, {}, {"EVT_J"});
  f.unit("low", 10, {"EVT_J"}, {"EVT_J"}, "EVT_J");
  f.unit("sink", 0, {"EVT_J"}, {});
  // Registered last but layered between top and low (the fish-eye pattern).
  f.unit("mid", 20, {"EVT_J"}, {"EVT_J"}, "EVT_J");
  top->emit(ev::Event(ev::etype("EVT_J")));
  EXPECT_EQ(f.log, (std::vector<std::string>{"mid:EVT_J", "low:EVT_J",
                                             "sink:EVT_J"}));
}

TEST(FrameworkManager, ProviderAndRequirerOfSameTypeDoesNotLoop) {
  Fixture f;
  // Unit both provides and requires EVT_L; its own emission must not be
  // delivered back to itself (loop avoidance).
  auto* u = f.unit("loopy", 20, {"EVT_L"}, {"EVT_L"}, "");
  u->emit(ev::Event(ev::etype("EVT_L")));
  EXPECT_TRUE(f.log.empty());
}

TEST(FrameworkManager, RebindOnTupleChange) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_R"});
  auto* c = f.unit("consumer", 10, {}, {});
  p->emit(ev::Event(ev::etype("EVT_R")));
  EXPECT_TRUE(f.log.empty());  // consumer not interested yet

  // Declarative reconfiguration: consumer starts requiring EVT_R. The
  // handler must also exist.
  c->add_handler(std::make_unique<RelayHandler>(
      std::vector<std::string>{"EVT_R"}, "", "consumer", &f.log));
  c->declare_events({"EVT_R"}, {});
  p->emit(ev::Event(ev::etype("EVT_R")));
  EXPECT_EQ(f.log, (std::vector<std::string>{"consumer:EVT_R"}));
}

TEST(FrameworkManager, DeregisterStopsDelivery) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_D"});
  auto* c = f.unit("consumer", 10, {"EVT_D"}, {});
  f.manager.deregister_unit(c);
  p->emit(ev::Event(ev::etype("EVT_D")));
  EXPECT_TRUE(f.log.empty());
  EXPECT_FALSE(f.manager.is_registered(c));
}

TEST(FrameworkManager, UnitRuleRejectsRegistration) {
  Fixture f;
  f.manager.add_unit_rule([](const std::vector<CfsUnit*>& units,
                             std::string& err) {
    std::size_t n = 0;
    for (auto* u : units) {
      if (u->category() == "reactive") ++n;
    }
    if (n > 1) {
      err = "one reactive only";
      return false;
    }
    return true;
  });
  auto make = [&](const std::string& name) {
    auto cf = std::make_unique<ManetProtocolCf>(name, f.sched, 1, nullptr);
    cf->set_category("reactive");
    ManetProtocolCf* raw = cf.get();
    f.owned.push_back(std::move(cf));
    return raw;
  };
  f.manager.register_unit(make("r1"), 20);
  EXPECT_THROW(f.manager.register_unit(make("r2"), 20), std::logic_error);
}

TEST(FrameworkManager, ContextConcentratorSeesRoutedEvents) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_CTX"});
  int seen = 0;
  f.manager.subscribe("EVT_CTX", [&](const ev::Event&) { ++seen; });
  p->emit(ev::Event(ev::etype("EVT_CTX")));
  p->emit(ev::Event(ev::etype("EVT_CTX")));
  EXPECT_EQ(seen, 2);
}

TEST(FrameworkManager, EventsRoutedCounterAdvances) {
  Fixture f;
  auto* p = f.unit("producer", 20, {}, {"EVT_N"});
  auto before = f.manager.events_routed();
  p->emit(ev::Event(ev::etype("EVT_N")));
  EXPECT_EQ(f.manager.events_routed(), before + 1);
}

TEST(Concurrency, ThreadedModelsDeliverEverything) {
  for (auto model : {ConcurrencyModel::kThreadPerMessage,
                     ConcurrencyModel::kThreadPerNMessages}) {
    Fixture f;
    std::atomic<int> count{0};

    class CountHandler final : public EventHandler {
     public:
      CountHandler(std::atomic<int>& c)
          : EventHandler("test.CountHandler", {"EVT_T"}), c_(c) {}
      void handle(const ev::Event&, ProtocolContext&) override { ++c_; }
      std::atomic<int>& c_;
    };

    auto cf = std::make_unique<ManetProtocolCf>("counter", f.sched, 1, nullptr);
    cf->add_handler(std::make_unique<CountHandler>(count));
    f.manager.register_unit(cf.get(), 10);
    cf->declare_events({"EVT_T"}, {});
    auto* producer = f.unit("producer", 20, {}, {"EVT_T"});

    f.manager.set_concurrency(model, 2, 4);
    for (int i = 0; i < 500; ++i) {
      producer->emit(ev::Event(ev::etype("EVT_T")));
    }
    f.manager.drain();
    EXPECT_EQ(count.load(), 500) << "model " << static_cast<int>(model);
    f.manager.deregister_unit(cf.get());
  }
}

TEST(Concurrency, DedicatedThreadModelDeliversEverything) {
  Fixture f;
  std::atomic<int> count{0};

  class CountHandler final : public EventHandler {
   public:
    CountHandler(std::atomic<int>& c)
        : EventHandler("test.CountHandler", {"EVT_Q"}), c_(c) {}
    void handle(const ev::Event&, ProtocolContext&) override { ++c_; }
    std::atomic<int>& c_;
  };

  auto cf = std::make_unique<ManetProtocolCf>("counter", f.sched, 1, nullptr);
  cf->add_handler(std::make_unique<CountHandler>(count));
  f.manager.register_unit(cf.get(), 10);
  cf->declare_events({"EVT_Q"}, {});
  cf->enable_dedicated_thread();

  auto* producer = f.unit("producer", 20, {}, {"EVT_Q"});
  for (int i = 0; i < 500; ++i) {
    producer->emit(ev::Event(ev::etype("EVT_Q")));
  }
  f.manager.drain();
  EXPECT_EQ(count.load(), 500);
  cf->disable_dedicated_thread();
  f.manager.deregister_unit(cf.get());
}

/// Counts deliveries made through it and how many are inside it right now.
class ProbeGuard final : public DispatchGuard {
 public:
  void deliver(CfsUnit& target, const ev::Event& event) override {
    ++inside;
    target.deliver(event);
    --inside;
    ++through;
  }
  std::atomic<int> inside{0};
  std::atomic<int> through{0};
};

/// Holds every delivery until `release` is set, then counts it.
class GateHandler final : public EventHandler {
 public:
  GateHandler(const std::string& type, std::atomic<bool>& release,
              std::atomic<int>& handled)
      : EventHandler("test.GateHandler", {type}),
        release_(release),
        handled_(handled) {}
  void handle(const ev::Event&, ProtocolContext&) override {
    while (!release_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++handled_;
  }

 private:
  std::atomic<bool>& release_;
  std::atomic<int>& handled_;
};

/// Spins until `value` reaches `want` (or a generous timeout passes).
void await(const std::atomic<int>& value, int want) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (value.load() < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Concurrency, GuardUninstallWaitsForThreadedDispatches) {
  for (bool per_protocol : {false, true}) {
    SCOPED_TRACE(per_protocol ? "thread-per-protocol" : "thread-per-message");
    Fixture f;
    std::atomic<bool> release{false};
    std::atomic<int> handled{0};
    ProbeGuard probe;

    auto cf = std::make_unique<ManetProtocolCf>("gated", f.sched, 1, nullptr);
    cf->add_handler(std::make_unique<GateHandler>("EVT_G", release, handled));
    f.manager.register_unit(cf.get(), 10);
    cf->declare_events({"EVT_G"}, {});
    auto* producer = f.unit("producer", 20, {}, {"EVT_G"});
    if (per_protocol) {
      cf->enable_dedicated_thread();
    } else {
      f.manager.set_concurrency(ConcurrencyModel::kThreadPerMessage, 2);
    }
    f.manager.set_dispatch_guard(&probe);

    // Pool: both workers enter the guard (one in the handler, one on the CF
    // lock). Dedicated: the worker holds the first event, two stay queued.
    const int sent = per_protocol ? 3 : 2;
    for (int i = 0; i < sent; ++i) {
      producer->emit(ev::Event(ev::etype("EVT_G")));
    }
    await(probe.inside, per_protocol ? 1 : 2);

    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.store(true);
    });
    f.manager.set_dispatch_guard(nullptr);
    EXPECT_EQ(probe.inside.load(), 0);
    EXPECT_EQ(probe.through.load(), sent);
    releaser.join();

    // Later dispatches bypass the uninstalled guard.
    producer->emit(ev::Event(ev::etype("EVT_G")));
    f.manager.drain();
    EXPECT_EQ(handled.load(), sent + 1);
    EXPECT_EQ(probe.through.load(), sent);
    cf->disable_dedicated_thread();
    f.manager.deregister_unit(cf.get());
  }
}

TEST(Concurrency, DestroyingADedicatedThreadCfDeliversIntoAWholeCf) {
  SimScheduler sched;
  std::atomic<bool> release{false};
  std::atomic<int> handled{0};
  auto cf = std::make_unique<ManetProtocolCf>("gated", sched, 1, nullptr);
  cf->add_handler(std::make_unique<GateHandler>("EVT_D", release, handled));
  cf->enable_dedicated_thread();
  constexpr int kSent = 5;
  for (int i = 0; i < kSent; ++i) {
    cf->dedicated()->enqueue(ev::Event(ev::etype("EVT_D")));
  }

  // The worker holds the first event while the CF is destroyed; the rest are
  // still queued and must be delivered into a CF whose members are intact
  // (its delivery counter included).
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  cf.reset();
  releaser.join();
  EXPECT_EQ(handled.load(), kSent);
}

/// An S element stamped with the order it was installed in.
class StampedState final : public oc::Component {
 public:
  explicit StampedState(int stamp) : oc::Component("State"), stamp(stamp) {}
  const int stamp;
};

/// Reads the S element on every delivery and checks the stamps it sees never
/// go backwards: each read must see the slot's latest element.
class StateReader final : public EventHandler {
 public:
  StateReader(std::atomic<int>& handled, std::atomic<bool>& backwards)
      : EventHandler("StateReader", {"EVT_S"}),
        handled_(handled),
        backwards_(backwards) {}
  void handle(const ev::Event&, ProtocolContext& ctx) override {
    int stamp = ctx.state_as<StampedState>().stamp;
    if (stamp < last_) backwards_.store(true);
    last_ = stamp;
    ++handled_;
  }

 private:
  std::atomic<int>& handled_;
  std::atomic<bool>& backwards_;
  int last_ = 0;
};

// The S slot is written by the reconfiguring thread and read by the CF's
// dedicated worker; both go through the CF lock.
TEST(Concurrency, ReplaceStateUnderDedicatedThread) {
  SimScheduler sched;
  std::atomic<int> handled{0};
  std::atomic<bool> backwards{false};
  auto cf = std::make_unique<ManetProtocolCf>("stateful", sched, 1, nullptr);
  cf->set_state(std::make_unique<StampedState>(0));
  cf->add_handler(std::make_unique<StateReader>(handled, backwards));
  cf->enable_dedicated_thread();

  constexpr int kEvents = 2000;
  constexpr int kEventsPerSwap = 10;
  int stamp = 0;
  for (int i = 0; i < kEvents; ++i) {
    cf->dedicated()->enqueue(ev::Event(ev::etype("EVT_S")));
    if (i % kEventsPerSwap == 0) {
      cf->set_state(std::make_unique<StampedState>(++stamp));
    }
  }
  cf->disable_dedicated_thread();  // delivers what is still queued

  EXPECT_EQ(handled.load(), kEvents);
  EXPECT_FALSE(backwards.load());
  auto* state = dynamic_cast<StampedState*>(cf->state_component());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->stamp, stamp);
  EXPECT_EQ(cf->member_count(), 2u);  // ManetControl CF + one S element
}

}  // namespace
}  // namespace mk::core
