// Ablation A1: MANETKit's pluggable concurrency models (§4.4).
//
// A single node hosts three event-consuming ManetProtocol instances; two
// producer threads push events in from below (as the System CF would on
// packet arrival). For each model we measure end-to-end throughput and
// report the paper's claimed trade-off: single-threaded = lowest overhead /
// lowest throughput; thread-per-message = highest of both;
// thread-per-n-messages and thread-per-ManetProtocol in between.
#include <atomic>
#include <tuple>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/manetkit.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

std::atomic<std::uint64_t> g_handled{0};
int g_work_iters = 12000;  // per-handler busy work (see main)

class CountingHandler final : public core::EventHandler {
 public:
  CountingHandler() : core::EventHandler("CountingHandler", {"BENCH"}) {}

  void handle(const ev::Event& event, core::ProtocolContext&) override {
    // A few microseconds of protocol-ish work (table lookups, checksum-y
    // arithmetic), so dispatch overhead does not dominate unrealistically.
    volatile std::uint64_t acc = 0;
    for (int i = 0; i < g_work_iters; ++i) {
      acc += static_cast<std::uint64_t>(i) * 31;
    }
    acc += static_cast<std::uint64_t>(event.attr(ev::IntAttr::dest));
    g_handled.fetch_add(1, std::memory_order_relaxed);
  }
};

struct Harness {
  SimScheduler sched;  // timers unused; events are injected directly
  net::SimMedium medium{sched};
  net::SimNode node{0, medium, sched};
  core::Manetkit kit{node};
  std::vector<core::ManetProtocolCf*> protos;

  explicit Harness(std::size_t num_protocols) {
    for (std::size_t i = 0; i < num_protocols; ++i) {
      std::string name = "consumer" + std::to_string(i);
      kit.register_protocol(name, /*layer=*/20, [](core::Manetkit& k) {
        auto cf = std::make_unique<core::ManetProtocolCf>(
            "consumer", k.scheduler(), k.self(), &k.system().sys_state());
        cf->add_handler(std::make_unique<CountingHandler>());
        cf->declare_events({"BENCH"}, {});
        return cf;
      });
      protos.push_back(kit.deploy(name));
    }
  }
};

double run_case(const char* label, std::size_t events,
                std::size_t producer_threads,
                const std::function<void(Harness&)>& configure) {
  Harness h(3);
  configure(h);
  g_handled.store(0);

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  std::size_t per_thread = events / producer_threads;
  for (std::size_t p = 0; p < producer_threads; ++p) {
    producers.emplace_back([&h, per_thread, p] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        ev::Event e(ev::etype("BENCH"));
        e.set_attr(ev::IntAttr::dest,
                   static_cast<std::int64_t>(p * 1000000 + i));
        h.kit.system().emit(std::move(e));
      }
    });
  }
  for (auto& t : producers) t.join();
  h.kit.manager().drain();
  auto t1 = std::chrono::steady_clock::now();

  double secs = std::chrono::duration<double>(t1 - t0).count();
  double rate = static_cast<double>(g_handled.load()) / secs;
  std::printf("%-28s %12.0f events/s   (%llu deliveries in %.3fs)\n", label,
              rate, static_cast<unsigned long long>(g_handled.load()), secs);
  return rate;
}

}  // namespace
}  // namespace mk

int main() {
  using namespace mk;

  for (auto [label, iters, events] :
       {std::tuple<const char*, int, std::size_t>{"light handlers (~0.1us)",
                                                  100, 200000},
        {"heavy handlers (~9us)", 12000, 30000}}) {
    g_work_iters = iters;
    std::size_t kEvents = events;
    std::printf("Ablation A1: concurrency models — %s "
                "(3 consumer protocols, 1 producer thread, %zu events)\n\n",
                label, kEvents);

  run_case("single-threaded", kEvents, 1, [](Harness& h) {
    h.kit.manager().set_concurrency(core::ConcurrencyModel::kSingleThreaded);
  });
  run_case("thread-per-message (4 wkr)", kEvents, 1, [](Harness& h) {
    h.kit.manager().set_concurrency(core::ConcurrencyModel::kThreadPerMessage,
                                    4);
  });
  run_case("thread-per-8-messages", kEvents, 1, [](Harness& h) {
    h.kit.manager().set_concurrency(
        core::ConcurrencyModel::kThreadPerNMessages, 4, 8);
  });
  run_case("thread-per-protocol", kEvents, 1, [](Harness& h) {
    h.kit.manager().set_concurrency(core::ConcurrencyModel::kSingleThreaded);
    for (auto* p : h.protos) p->enable_dedicated_thread();
  });
  std::printf("\n");
  }

  std::printf("Expected shape (§4.4): threaded models pay a per-event\n"
              "dispatch cost (visible with light handlers) in exchange for\n"
              "cross-protocol parallelism with heavy handlers; batching\n"
              "(thread-per-n) amortises the cost. NOTE: on a single-core\n"
              "host the parallel upside is physically absent, so the heavy-\n"
              "handler case flattens to parity — the models then differ only\n"
              "in overhead, which is the resource side of the paper's\n"
              "trade-off.\n");
  return 0;
}
