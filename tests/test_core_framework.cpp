// Framework Manager: declarative <required, provided> binding derivation —
// fan-out to consumers, interposer chains ordered by layer, exclusive
// delivery, loop avoidance, rebinding on tuple change — plus concurrency
// models and the context concentrator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "util/rng.hpp"
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

/// A bare CFS unit whose tuple the test sets directly and whose deliveries
/// land in a shared log, so route()'s targets can be read off in order.
class StubUnit final : public CfsUnit {
 public:
  StubUnit(std::string name, std::vector<const CfsUnit*>* log)
      : name_(std::move(name)), log_(log) {}
  const std::string& unit_name() const override { return name_; }
  const ev::EventTuple& tuple() const override { return tuple_; }
  void deliver(const ev::Event&) override { log_->push_back(this); }
  ev::EventTuple tuple_;

 private:
  std::string name_;
  std::vector<const CfsUnit*>* log_;
};

/// The binding derivation as a per-type std::map rebuilt from scratch: the
/// reference the dense tables must reproduce.
struct RefRegistration {
  const CfsUnit* unit;
  int layer;
  std::uint64_t seq;
};

struct RefRoute {
  std::vector<RefRegistration> interposers;
  std::vector<RefRegistration> consumers;
  const CfsUnit* exclusive = nullptr;
};

std::map<ev::EventTypeId, RefRoute> reference_routes(
    const std::vector<RefRegistration>& regs,
    const std::set<const CfsUnit*>& quarantined) {
  std::set<ev::EventTypeId> all_types;
  for (const auto& r : regs) {
    if (quarantined.count(r.unit) > 0) continue;
    const auto& t = r.unit->tuple();
    all_types.insert(t.required.begin(), t.required.end());
    all_types.insert(t.provided.begin(), t.provided.end());
  }
  std::map<ev::EventTypeId, RefRoute> routes;
  for (ev::EventTypeId type : all_types) {
    RefRoute route;
    for (const auto& r : regs) {
      if (quarantined.count(r.unit) > 0) continue;
      const auto& t = r.unit->tuple();
      const bool req = t.requires_type(type);
      const bool prov = t.provides(type);
      if (req && prov) {
        route.interposers.push_back(r);
      } else if (req) {
        route.consumers.push_back(r);
        const bool excl = std::find(t.exclusive.begin(), t.exclusive.end(),
                                    type) != t.exclusive.end();
        if (excl && route.exclusive == nullptr) route.exclusive = r.unit;
      }
    }
    std::sort(route.interposers.begin(), route.interposers.end(),
              [](const RefRegistration& a, const RefRegistration& b) {
                if (a.layer != b.layer) return a.layer > b.layer;
                return a.seq < b.seq;
              });
    routes.emplace(type, std::move(route));
  }
  return routes;
}

/// The targets the reference derivation sends `emitter`'s event of `type` to.
std::vector<const CfsUnit*> reference_targets(
    const std::map<ev::EventTypeId, RefRoute>& routes,
    const std::vector<RefRegistration>& regs,
    const std::set<const CfsUnit*>& quarantined, const CfsUnit* emitter,
    ev::EventTypeId type) {
  std::vector<const CfsUnit*> out;
  if (emitter != nullptr && quarantined.count(emitter) > 0) return out;
  int emitter_layer = std::numeric_limits<int>::max();
  for (const auto& r : regs) {
    if (r.unit == emitter) emitter_layer = r.layer;
  }
  auto it = routes.find(type);
  if (it == routes.end()) return out;
  const RefRoute& route = it->second;
  for (const auto& i : route.interposers) {
    if (i.unit != emitter && i.layer < emitter_layer) {
      out.push_back(i.unit);
      return out;
    }
  }
  if (route.exclusive != nullptr) {
    if (route.exclusive != emitter) out.push_back(route.exclusive);
    return out;
  }
  for (const auto& c : route.consumers) {
    if (c.unit != emitter) out.push_back(c.unit);
  }
  return out;
}

TEST(FrameworkManager, RebindMatchesReferenceDerivation) {
  constexpr std::size_t kUnits = 8;
  constexpr std::size_t kTypes = 6;
  std::vector<ev::EventTypeId> types;
  for (std::size_t i = 0; i < kTypes; ++i) {
    types.push_back(ev::etype("REF_T" + std::to_string(i)));
  }
  std::sort(types.begin(), types.end());

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<const CfsUnit*> log;
    std::vector<std::unique_ptr<StubUnit>> units;
    for (std::size_t i = 0; i < kUnits; ++i) {
      units.push_back(
          std::make_unique<StubUnit>("u" + std::to_string(i), &log));
    }
    auto random_tuple = [&] {
      ev::EventTuple t;
      for (ev::EventTypeId type : types) {
        const bool req = rng.bernoulli(0.5);
        if (req) t.required.push_back(type);
        if (rng.bernoulli(0.3)) t.provided.push_back(type);
        if (req && rng.bernoulli(0.3)) t.exclusive.push_back(type);
      }
      return t;
    };
    for (auto& u : units) u->tuple_ = random_tuple();

    FrameworkManager manager;
    std::vector<RefRegistration> regs;
    std::set<const CfsUnit*> quarantined;
    std::uint64_t next_seq = 1;
    auto registered = [&](const CfsUnit* u) {
      return std::any_of(regs.begin(), regs.end(),
                         [u](const RefRegistration& r) { return r.unit == u; });
    };

    for (int step = 0; step < 60; ++step) {
      StubUnit* u = units[rng.uniform_int(0, kUnits - 1)].get();
      switch (rng.uniform_int(0, 3)) {
        case 0:  // register, or deregister a registered unit
          if (!registered(u)) {
            const int layer = static_cast<int>(rng.uniform_int(0, 3)) * 10;
            manager.register_unit(u, layer);
            regs.push_back({u, layer, next_seq++});
          } else {
            manager.deregister_unit(u);
            std::erase_if(regs,
                          [u](const RefRegistration& r) { return r.unit == u; });
            quarantined.erase(u);
          }
          break;
        case 1:  // a new tuple, then the rebind set_tuple() would trigger
          u->tuple_ = random_tuple();
          manager.rebind();
          break;
        default: {  // quarantine toggle; a no-op on unregistered units
          const bool on = quarantined.count(u) == 0;
          manager.set_quarantined(u, on);
          if (registered(u)) {
            if (on) {
              quarantined.insert(u);
            } else {
              quarantined.erase(u);
            }
          }
          break;
        }
      }

      const auto routes = reference_routes(regs, quarantined);
      std::vector<CfsUnit*> emitters{nullptr};
      for (auto& unit : units) emitters.push_back(unit.get());
      for (CfsUnit* emitter : emitters) {
        for (ev::EventTypeId type : types) {
          log.clear();
          manager.route(emitter, ev::Event(type));
          EXPECT_EQ(log, reference_targets(routes, regs, quarantined, emitter,
                                           type))
              << "seed " << seed << " step " << step << " type "
              << ev::EventTypeRegistry::instance().name(type);
        }
      }
    }
  }
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
