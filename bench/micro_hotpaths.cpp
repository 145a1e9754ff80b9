// google-benchmark micro-benchmarks for the hot paths every protocol shares:
// PacketBB encode/parse, Framework-Manager event routing, MPR selection and
// OLSR route calculation. These quantify the per-operation cost behind
// Table 1's Time-to-Process-Message numbers.
//
// The fan-out benches additionally report an `allocs_per_op` counter (via
// mk::memtrack's counting operator-new interposer in mk_util — the same one
// that backs the supervision alloc budget) so the zero-copy claims — one
// payload allocation per broadcast, one message allocation per event fan-out
// — are measurable, not just asserted.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>

#include "core/manetkit.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/payload_pool.hpp"
#include "obs/journal.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/dymo/multipath.hpp"
#include "protocols/dymo/opt_flood.hpp"
#include "protocols/hello_codec.hpp"
#include "protocols/mpr/mpr_calculator.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "testbed/world.hpp"
#include "util/mem.hpp"
#include "util/memtrack.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

/// Records which build produced the numbers in the run's JSON context.
const bool kProvenanceRecorded = [] {
  benchmark::AddCustomContext("mk_build_type", MK_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("mk_compiler", MK_BENCH_COMPILER);
  return true;
}();

/// RAII window counting heap allocations between construction and sample().
class AllocWindow {
 public:
  AllocWindow() : start_(memtrack::snapshot().total_allocs) {}
  std::uint64_t sample() const {
    return memtrack::snapshot().total_allocs - start_;
  }

 private:
  std::uint64_t start_;
};

pbb::Message make_tc(std::size_t advertised) {
  std::set<net::Addr> sel;
  for (std::size_t i = 0; i < advertised; ++i) {
    sel.insert(net::addr_for_index(static_cast<std::uint32_t>(i + 1)));
  }
  return proto::tc::build(net::addr_for_index(0), 17, 3, sel);
}

void BM_PacketBBSerialize(benchmark::State& state) {
  pbb::Packet pkt;
  pkt.messages.push_back(make_tc(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbb::serialize(pkt));
  }
}
BENCHMARK(BM_PacketBBSerialize)->Arg(2)->Arg(8)->Arg(32);

// Single-allocation serialization into a recycled buffer: the steady-state
// encode cost once the output vector has warmed up (zero allocations/op).
void BM_PacketBBSerializeInto(benchmark::State& state) {
  pbb::Packet pkt;
  pkt.messages.push_back(make_tc(static_cast<std::size_t>(state.range(0))));
  std::vector<std::uint8_t> buf;
  AllocWindow window;
  for (auto _ : state) {
    pbb::serialize_into(pkt, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PacketBBSerializeInto)->Arg(2)->Arg(8)->Arg(32);

void BM_PacketBBParse(benchmark::State& state) {
  pbb::Packet pkt;
  pkt.messages.push_back(make_tc(static_cast<std::size_t>(state.range(0))));
  auto bytes = pbb::serialize(pkt);
  for (auto _ : state) {
    auto parsed = pbb::parse(bytes);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketBBParse)->Arg(2)->Arg(8)->Arg(32);

// The parse path the System CF actually runs on every received frame: into
// one reused scratch packet (zero allocations/op once it has warmed up).
void BM_PacketBBParseInto(benchmark::State& state) {
  pbb::Packet pkt;
  pkt.messages.push_back(make_tc(static_cast<std::size_t>(state.range(0))));
  auto bytes = pbb::serialize(pkt);
  pbb::Packet scratch;
  AllocWindow window;
  for (auto _ : state) {
    auto ok = pbb::parse_into(bytes, scratch);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PacketBBParseInto)->Arg(2)->Arg(8)->Arg(32);

// Scheduler under DYMO-style hold bursts: every 250 ms one event arms 750
// timers at exactly now + 5 s, so ~15k entries are pending and each
// level-0 tick holds a 750-entry pile at one microsecond. One iteration is
// one sim-second. Arg(0) runs the timer wheel, Arg(1) the ordered-map
// oracle; run_hotpaths.sh fails if /0 is slower than /1.
void BM_SchedulerHoldBurst(benchmark::State& state) {
  SimScheduler sched(state.range(0) == 0 ? SimBackend::kWheel
                                         : SimBackend::kHeap);
  std::function<void()> burst = [&] {
    const TimePoint hold = sched.now() + sec(5);
    for (int i = 0; i < 750; ++i) sched.schedule_at(hold, [] {});
    sched.schedule_after(msec(250), burst);
  };
  sched.schedule_at(TimePoint{0}, burst);
  sched.run_for(sec(6));  // fill the 5 s hold window before measuring

  AllocWindow window;
  for (auto _ : state) {
    sched.run_for(sec(1));
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.counters["pending"] = static_cast<double>(sched.pending());
}
BENCHMARK(BM_SchedulerHoldBurst)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

class NullHandler final : public core::EventHandler {
 public:
  NullHandler() : core::EventHandler("bench.NullHandler", {"BENCH"}) {}
  void handle(const ev::Event& event, core::ProtocolContext&) override {
    benchmark::DoNotOptimize(event.type());
  }
};

void BM_EventRouting(benchmark::State& state) {
  SimScheduler sched;
  net::SimMedium medium(sched);
  net::SimNode node(0, medium, sched);
  core::Manetkit kit(node);
  for (int i = 0; i < state.range(0); ++i) {
    std::string name = "p" + std::to_string(i);
    kit.register_protocol(name, 20, [](core::Manetkit& k) {
      auto cf = std::make_unique<core::ManetProtocolCf>(
          "p", k.scheduler(), k.self(), &k.system().sys_state());
      cf->add_handler(std::make_unique<NullHandler>());
      cf->declare_events({"BENCH"}, {});
      return cf;
    });
    kit.deploy(name);
  }
  ev::Event e(ev::etype("BENCH"));
  for (auto _ : state) {
    kit.system().emit(e);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventRouting)->Arg(1)->Arg(3)->Arg(8);

// Broadcast fan-out across the simulated medium: one control frame reaching
// k neighbours. With shared payload buffers the payload is allocated once
// per send regardless of k, and the frame parks with its receivers in one
// recycled delivery slot under one scheduler event: `fires_per_op` counts
// the events run per broadcast (run_hotpaths.sh holds /32 at one, with
// zero allocations).
void BM_BroadcastFanout(benchmark::State& state) {
  auto k = static_cast<std::uint32_t>(state.range(0));
  SimScheduler sched;
  net::SimMedium medium(sched);
  std::vector<std::unique_ptr<net::SimNode>> nodes;
  nodes.push_back(std::make_unique<net::SimNode>(0, medium, sched));
  std::size_t received = 0;
  for (std::uint32_t i = 1; i <= k; ++i) {
    nodes.push_back(std::make_unique<net::SimNode>(i, medium, sched));
    nodes.back()->set_control_handler(
        [&received](const net::Frame&) { ++received; });
    medium.set_link(nodes[0]->addr(), nodes.back()->addr(), true);
  }
  auto payload = net::make_payload(net::PayloadBuffer(512, 0xAB));

  AllocWindow window;
  std::size_t fires = 0;
  for (auto _ : state) {
    nodes[0]->send_control(payload);
    fires += sched.run_all();
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.counters["fires_per_op"] = benchmark::Counter(
      static_cast<double>(fires), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}
BENCHMARK(BM_BroadcastFanout)->Arg(2)->Arg(8)->Arg(32);

// The System CF's receive path: one serialized DYMO RM (an 8-hop RREQ)
// broadcast to k Manetkit nodes with DYMO deployed, copied into a fresh
// pooled payload each op as a sender's serialization would leave it. The
// first receiver decodes the payload; every other receiver raises RM_IN
// over the same shared message, and each DYMO instance drops it as a
// duplicate after the first op. run_hotpaths.sh holds /32 at zero
// allocations per op.
void BM_ControlRx(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  testbed::SimWorld world(k + 1);
  net::SimNode& sender = world.node(0);
  for (std::size_t i = 1; i <= k; ++i) {
    world.medium().set_link(sender.addr(), world.node(i).addr(), true);
    world.kit(i).deploy("dymo");
  }
  world.run_for(sec(1));

  std::uint16_t seq = 2;
  pbb::Message m = proto::rm::build_rreq(net::addr_for_index(300), seq,
                                         net::addr_for_index(299),
                                         proto::kDymoMsgHopLimit);
  for (std::uint8_t hop = 1; hop <= 8; ++hop) {
    m.hop_count = hop;
    proto::rm::append_self(m, net::addr_for_index(300 + hop), seq);
  }
  std::vector<std::uint8_t> bytes;
  const pbb::Message* one[1] = {&m};
  pbb::serialize_msgs_into(one, bytes);
  auto broadcast = [&] {
    auto buf = net::acquire_payload();
    buf->assign(bytes.begin(), bytes.end());
    sender.send_control(net::PayloadPtr(std::move(buf)));
    world.run_for(msec(1));  // past the frame's air time
  };
  // Warm-up past every periodic cycle (HELLOs, buffer sweeps, duplicate
  // expiry and the relays it re-enables) so the pools hold their shapes.
  for (int i = 0; i < 12000; ++i) broadcast();

  AllocWindow window;
  for (auto _ : state) broadcast();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_ControlRx)->Arg(1)->Arg(8)->Arg(32);

// Same fan-out with the trace journal attached: every tx/rx appends a record
// into the preallocated ring, so the overhead budget (ISSUE 3) is a mutex'd
// store per frame — allocs_per_op must not move at all versus the bench
// above, and latency must stay within a few percent.
void BM_BroadcastFanoutJournaled(benchmark::State& state) {
  auto k = static_cast<std::uint32_t>(state.range(0));
  SimScheduler sched;
  net::SimMedium medium(sched);
  obs::Journal journal;  // ring preallocated here, before the alloc window
  medium.set_journal(&journal);
  std::vector<std::unique_ptr<net::SimNode>> nodes;
  nodes.push_back(std::make_unique<net::SimNode>(0, medium, sched));
  std::size_t received = 0;
  for (std::uint32_t i = 1; i <= k; ++i) {
    nodes.push_back(std::make_unique<net::SimNode>(i, medium, sched));
    nodes.back()->set_control_handler(
        [&received](const net::Frame&) { ++received; });
    medium.set_link(nodes[0]->addr(), nodes.back()->addr(), true);
  }
  auto payload = net::make_payload(net::PayloadBuffer(512, 0xAB));

  AllocWindow window;
  for (auto _ : state) {
    nodes[0]->send_control(payload);
    sched.run_all();
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.counters["records"] = benchmark::Counter(
      static_cast<double>(journal.total()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}
BENCHMARK(BM_BroadcastFanoutJournaled)->Arg(2)->Arg(8)->Arg(32);

// Event fan-out carrying a real PacketBB message to N co-deployed protocols:
// with COW events each delivery shares the one message allocation.
void BM_EventFanoutWithMsg(benchmark::State& state) {
  SimScheduler sched;
  net::SimMedium medium(sched);
  net::SimNode node(0, medium, sched);
  core::Manetkit kit(node);
  for (int i = 0; i < state.range(0); ++i) {
    std::string name = "p" + std::to_string(i);
    kit.register_protocol(name, 20, [](core::Manetkit& k) {
      auto cf = std::make_unique<core::ManetProtocolCf>(
          "p", k.scheduler(), k.self(), &k.system().sys_state());
      cf->add_handler(std::make_unique<NullHandler>());
      cf->declare_events({"BENCH"}, {});
      return cf;
    });
    kit.deploy(name);
  }
  ev::Event e(ev::etype("BENCH"));
  e.set_msg(make_tc(16));

  AllocWindow window;
  for (auto _ : state) {
    kit.system().emit(e);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventFanoutWithMsg)->Arg(1)->Arg(3)->Arg(8);

// Event fan-out with tracing enabled end-to-end (framework manager + kernel
// table journaling): one extra ring store per routed event.
void BM_EventFanoutWithMsgJournaled(benchmark::State& state) {
  SimScheduler sched;
  net::SimMedium medium(sched);
  net::SimNode node(0, medium, sched);
  core::Manetkit kit(node);
  obs::Journal journal;
  kit.set_journal(&journal);
  for (int i = 0; i < state.range(0); ++i) {
    std::string name = "p" + std::to_string(i);
    kit.register_protocol(name, 20, [](core::Manetkit& k) {
      auto cf = std::make_unique<core::ManetProtocolCf>(
          "p", k.scheduler(), k.self(), &k.system().sys_state());
      cf->add_handler(std::make_unique<NullHandler>());
      cf->declare_events({"BENCH"}, {});
      return cf;
    });
    kit.deploy(name);
  }
  ev::Event e(ev::etype("BENCH"));
  e.set_msg(make_tc(16));

  AllocWindow window;
  for (auto _ : state) {
    kit.system().emit(e);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventFanoutWithMsgJournaled)->Arg(1)->Arg(3)->Arg(8);

// Full-scenario tracing overhead: one sim-second of a converged 5-node OLSR
// world per iteration. This is the number the <5% tracing budget is about —
// in context, where frames are actually serialized, parsed and routed, not
// just counted. Arg(2) additionally arms a light fault plan: a loss burst
// that rakes the convergence phase and expires before measurement, plus a
// far-future crash still pending. The steady state therefore runs with the
// injection filter installed and the plan live but no window open — that
// standing cost is the injection budget, within ~2% of Arg(1).
// Arg(3) instead wraps every dispatch in the supervision guard (healthy
// units, no misbehaviour): the guarded-deliver atomic load plus the
// per-dispatch charge reset is the armed-idle supervision budget, within
// ~2% of Arg(2).
// Arg(4) reruns the traced workload of Arg(1) on the ordered-map scheduler
// backend: the Arg(1)-vs-Arg(4) delta isolates what the hierarchical timer
// wheel (pooled nodes, O(1) arm/cancel — the soft-state expiry layer's
// substrate) saves per sim-second in both time and allocations.
// Arg(5) reruns the traced workload of Arg(1) with MemBackend::kHeap — every
// pooled acquire (messages, events, payloads, control blocks) degenerates to
// plain heap allocation. The Arg(1)-vs-Arg(5) allocs_per_op delta is what
// the arena/pool layer removes per sim-second; run_hotpaths.sh gates Arg(1)
// against the 50 allocs/op steady-state budget.
void BM_OlsrWorldSecond(benchmark::State& state) {
  std::optional<mk::mem::BackendGuard> heap_backend;
  if (state.range(0) == 5) heap_backend.emplace(mk::mem::MemBackend::kHeap);
  testbed::SimWorld world(5, /*seed=*/42,
                          state.range(0) == 4 ? SimBackend::kHeap
                                              : SimBackend::kWheel);
  world.linear();
  if (state.range(0) != 0) world.enable_tracing();
  if (state.range(0) == 3) world.enable_supervision();
  world.deploy_all("olsr");
  if (state.range(0) >= 2 && state.range(0) != 5) {
    fault::FaultPlan plan;
    plan.loss_burst(sec(1), 0.1, sec(4));  // expires during convergence
    plan.crash(sec(1'000'000'000), world.addr(4));  // pending, never reached
    world.apply_fault_plan(plan);
  }
  world.run_for(sec(10));  // converge before measuring steady state

  AllocWindow window;
  for (auto _ : state) {
    world.run_for(sec(1));
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  if (auto* journal = world.journal()) {
    state.counters["records"] = benchmark::Counter(
        static_cast<double>(journal->total()),
        benchmark::Counter::kAvgIterations);
  }
  if (auto* injector = world.injector()) {
    state.counters["faults_fired"] = benchmark::Counter(
        static_cast<double>(injector->actions_fired()),
        benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_OlsrWorldSecond)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// Mobile-world stepping at scale: n nodes under RandomWaypoint on a field
// sized for constant density (~5 neighbours/node at range 250), one
// sim-second (10 x 100ms mobility steps) per iteration. BM_WorldSecond runs
// the spatial-hash grid backend (one grid sweep per step);
// BM_WorldSecondRef reruns the identical seeded scenario on the exhaustive
// O(n²) reference oracle. The /1000 pair is the ISSUE 7 acceptance bar
// (grid >= 10x faster); pair_evals/link_flips counters come from the
// medium so the asymptotic claim is visible in BENCH_hotpaths.json, not
// just the wall clock.
void world_second(benchmark::State& state, net::topo::TopologyBackend backend) {
  auto n = static_cast<std::size_t>(state.range(0));
  testbed::SimWorld world(n, /*seed=*/42);
  net::RandomWaypoint::Params p;
  double side = 200.0 * std::sqrt(static_cast<double>(n));
  p.width = side;
  p.height = side;
  p.range = 250.0;
  world.enable_mobility(p, /*seed=*/7, backend);

  std::uint64_t evals_before = world.medium().stats().pair_evals;
  std::uint64_t flips_before = world.medium().stats().link_flips;
  AllocWindow window;
  for (auto _ : state) {
    for (int s = 0; s < 10; ++s) world.step_mobility(msec(100));
  }
  auto stats = world.medium().stats();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.counters["pair_evals"] = benchmark::Counter(
      static_cast<double>(stats.pair_evals - evals_before),
      benchmark::Counter::kAvgIterations);
  state.counters["link_flips"] = benchmark::Counter(
      static_cast<double>(stats.link_flips - flips_before),
      benchmark::Counter::kAvgIterations);
}

void BM_WorldSecond(benchmark::State& state) {
  world_second(state, net::topo::TopologyBackend::kGrid);
}
BENCHMARK(BM_WorldSecond)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_WorldSecondRef(benchmark::State& state) {
  world_second(state, net::topo::TopologyBackend::kReference);
}
BENCHMARK(BM_WorldSecondRef)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// Quarantine churn at scale (the ROADMAP's 50-node supervision debt): a
// 10-wide grid of OLSR nodes, and per iteration one rotating victim's MPR CF
// is misbehaved until the breaker trips, then cleared so the recovery ladder
// restarts it — a full trip/quarantine/restart/recover cycle through the
// supervision machinery, with the whole world's control traffic running
// underneath.
void BM_QuarantineChurn(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  testbed::SimWorld world(n, /*seed=*/42);
  world.grid(10);
  supervision::SupervisorOptions opts;
  opts.fault_threshold = 3;
  opts.fault_window = sec(10);
  opts.initial_backoff = sec(1);  // recovery fires after the clear below
  opts.max_restarts = 5;
  world.enable_supervision(opts);
  world.deploy_all("olsr");
  world.run_for(sec(10));  // HELLO/TC flows live on every node

  std::size_t victim = 0;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    auto& sup = *world.supervisor(victim);
    sup.set_misbehaviour("mpr", fault::Misbehave::kThrow);
    for (int spins = 0;
         sup.health("mpr") != supervision::UnitHealth::kQuarantined &&
         spins < 100;
         ++spins) {
      world.run_for(msec(200));
    }
    sup.set_misbehaviour("mpr", fault::Misbehave::kNone);
    for (int spins = 0;
         sup.health("mpr") != supervision::UnitHealth::kHealthy && spins < 100;
         ++spins) {
      world.run_for(msec(200));
    }
    cycles += sup.health("mpr") == supervision::UnitHealth::kHealthy ? 1 : 0;
    victim = (victim + 1) % world.size();
  }
  state.counters["recovered_cycles"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_QuarantineChurn)->Arg(50)->Unit(benchmark::kMillisecond);

// Crash-reconverge pair (ISSUE 10): a mid-grid relay in a 50-node OLSR world
// suffers a full crash (every protocol stopped, S elements wiped, kernel
// table cleared), stays dark 2s, restarts, and the bench clocks the run
// until it holds kernel routes to all 49 peers again. The `none` capture
// cold-starts from protocol defaults; `checkpoint` rehydrates from 1-hop
// peer replicas. `reconverge_us` is the matching sim-time figure (restart ->
// fully routed) recorded for docs/REPLICATION.md.
void BM_CrashReconverge(benchmark::State& state,
                        core::ReplicationStrategy strategy) {
  constexpr std::size_t kNodes = 50;
  testbed::SimWorld world(kNodes, /*seed=*/42);
  repl::ReplicationParams params;
  params.initial = strategy;
  world.enable_replication(params);
  world.grid(10);
  world.deploy_all("olsr");
  const std::size_t relay = kNodes / 2;
  auto relay_routed = [&] {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i != relay && !world.has_route(relay, world.addr(i))) return false;
    }
    return true;
  };
  for (int i = 0; i < 1200 && !relay_routed(); ++i) world.run_for(msec(100));
  world.run_for(sec(5));  // a checkpoint cycle spreads the relay's S element

  std::int64_t reconverge_us = 0;
  for (auto _ : state) {
    world.crash_node(relay);
    world.run_for(sec(2));
    world.restart_node(relay);
    const std::int64_t restart_us = world.now().us;
    for (int i = 0; i < 2400 && !relay_routed(); ++i) world.run_for(msec(50));
    reconverge_us += world.now().us - restart_us;
    world.run_for(sec(5));  // settle + re-replicate before the next crash
  }
  state.counters["reconverge_us"] = benchmark::Counter(
      static_cast<double>(reconverge_us), benchmark::Counter::kAvgIterations);
  state.counters["rehydrates"] = benchmark::Counter(
      static_cast<double>(
          world.kit(relay).metrics().counter_value("repl.rehydrates")),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_CrashReconverge, none, core::ReplicationStrategy::kNone)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CrashReconverge, checkpoint,
                  core::ReplicationStrategy::kCheckpoint)
    ->Unit(benchmark::kMillisecond);

// OLSR route recompute on node 0 of a converged, frozen 50-node
// Gauss-Markov world (the olsr_gm50 cell's shape). /0 re-runs it with
// unchanged inputs, the periodic same-set TC refresh that RFC 3626 §10
// lets the calculator skip; /1 flips one origin's advertised set between
// its learned value and that value minus one address, so every iteration
// is a full Dijkstra plus kernel-table sync. run_hotpaths.sh fails if /0
// is not faster than /1.
void BM_OlsrRecompute(benchmark::State& state) {
  testbed::SimWorld world(50, /*seed=*/1);
  net::GaussMarkov::Params p;
  p.width = 1000.0;
  p.height = 1000.0;
  p.range = 250.0;
  p.mean_speed = 2.0;
  p.speed_sigma = 0.5;
  world.enable_mobility(p, /*seed=*/7);
  world.deploy_all("olsr");
  for (int s = 0; s < 200; ++s) world.step_mobility(msec(100));

  core::ManetProtocolCf& olsr = *world.kit(0).protocol("olsr");
  proto::OlsrState& st = *proto::olsr_state(olsr);
  auto edges = st.topology_edges();
  if (edges.empty()) {
    state.SkipWithError("node 0 learned no topology");
    return;
  }
  const net::Addr origin = edges.front().first;
  std::vector<net::Addr> full;
  for (const auto& [from, to] : edges) {
    if (from == origin) full.push_back(to);
  }
  std::vector<net::Addr> shrunk(full.begin(), full.end() - 1);
  const bool flip = state.range(0) == 1;
  std::uint64_t i = 0;
  proto::olsr_recompute_routes(olsr);
  for (auto _ : state) {
    if (flip) {
      st.drop_topology(origin);
      st.update_topology(origin, 0, (++i & 1) != 0 ? shrunk : full,
                         world.now(), sec(15));
    }
    proto::olsr_recompute_routes(olsr);
  }
  benchmark::DoNotOptimize(world.node(0).kernel_table().generation());
}
BENCHMARK(BM_OlsrRecompute)->Arg(0)->Arg(1);

/// Exposes ReHandler's learn step, so the bench times it without the
/// duplicate check and relay that follow it in handle().
class LearnProbe final : public proto::ReHandler {
 public:
  using ReHandler::learn;
};

// DYMO's learn path, the dymo_rwp200 hot spot: one RREQ accumulated over
// eight relays (nine routes: the originator plus each relay) into node 0's
// DymoState, which already holds 200 routes with their soft-state entries.
// /0 replays the same message, so every hop is a same-info refresh: a
// route lookup and a soft-state touch (run_hotpaths.sh holds it at zero
// allocations). /1 bumps every seqnum each iteration, so every hop
// replaces its route, reinstalls the kernel route and emits ROUTE_FOUND.
void BM_DymoLearn(benchmark::State& state) {
  testbed::SimWorld world(1);
  world.kit(0).deploy("dymo");
  core::ManetProtocolCf& cf = *world.kit(0).protocol("dymo");
  core::ProtocolContext& ctx = cf.context();
  proto::DymoState& st = *proto::dymo_state(cf);
  for (std::uint32_t i = 1; i <= 200; ++i) {
    const net::Addr dest = net::addr_for_index(i);
    const proto::RouteUpdate update =
        st.update_route(dest, 1, net::addr_for_index(1), 2, world.now(),
                        proto::kDymoRouteTimeout);
    ctx.soft()->touch_at(proto::reactive_sets::kRoute, dest, update.expires);
  }

  // Originator 10, relayed by 20, 30, ..., 90; node 0 hears 90.
  std::uint16_t seq = 2;
  pbb::Message m = proto::rm::build_rreq(net::addr_for_index(10), seq,
                                         net::addr_for_index(199),
                                         proto::kDymoMsgHopLimit);
  for (std::uint8_t hop = 1; hop <= 8; ++hop) {
    m.hop_count = hop;
    proto::rm::append_self(m, net::addr_for_index(10 + 10 * hop), seq);
  }
  ev::Event event(ev::etype("RM_IN"));
  event.from = net::addr_for_index(90);
  event.set_msg(std::move(m));

  LearnProbe probe;
  const bool bump = state.range(0) == 1;
  probe.learn(event, ctx);  // first sighting: every route changes once
  AllocWindow window;
  for (auto _ : state) {
    if (bump) {
      ++seq;
      pbb::Message& msg = event.mutable_msg();
      msg.seqnum = seq;
      for (pbb::AddressTlv& tlv : msg.addr_blocks[1].tlvs) {
        if (tlv.type != proto::wire::kAtlvSeqnum) continue;
        tlv.value[2] = static_cast<std::uint8_t>(seq >> 8);
        tlv.value[3] = static_cast<std::uint8_t>(seq);
      }
    }
    probe.learn(event, ctx);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_DymoLearn)->Arg(0)->Arg(1);

/// A 3x3 DYMO grid with supervision and checkpoint replication, warmed for
/// 10 simulated seconds: the composition perfbench's reconfig_rwp100
/// reconfigures, on a node (the centre) with four neighbours.
std::unique_ptr<testbed::SimWorld> warm_reconfig_world() {
  auto world = std::make_unique<testbed::SimWorld>(9, /*seed=*/42);
  world->grid(3);
  world->enable_supervision();
  world->enable_replication();
  world->deploy_all("dymo");
  world->run_for(sec(10));
  return world;
}

/// perfbench's rolling enactment schedule, one op per phase; op k leaves
/// the node where op k+1 (mod 6) applies.
void enact(core::Manetkit& kit, int op) {
  switch (op) {
    case 0: proto::apply_multipath_dymo(kit); break;
    case 1: proto::remove_multipath_dymo(kit); break;
    case 2: proto::apply_dymo_optimized_flooding(kit); break;
    case 3: proto::remove_dymo_optimized_flooding(kit); break;
    case 4: kit.switch_protocol("dymo", "aodv", false); break;
    default: kit.switch_protocol("aodv", "dymo", false); break;
  }
}

// One reconfiguration enactment: /k times op k of the rolling schedule on
// the warm centre node. Each iteration runs the whole six-op cycle (with
// 100 ms of simulated traffic after it) so every op meets the composition
// it meets in the benchmark; only op k is timed and its allocations counted.
void BM_Enactment(benchmark::State& state) {
  auto world = warm_reconfig_world();
  core::Manetkit& kit = world->kit(4);
  const auto timed = static_cast<int>(state.range(0));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    for (int op = 0; op < 6; ++op) {
      if (op != timed) {
        enact(kit, op);
        continue;
      }
      AllocWindow window;
      const auto t0 = std::chrono::steady_clock::now();
      enact(kit, op);
      state.SetIterationTime(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
      allocs += window.sample();
    }
    world->run_for(msec(100));
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Enactment)->DenseRange(0, 5)->UseManualTime();

// The Framework Manager's binding derivation on the same warm node: every
// enactment above runs it at least once. run_hotpaths.sh holds it at zero
// allocations.
void BM_Rebind(benchmark::State& state) {
  auto world = warm_reconfig_world();
  core::FrameworkManager& fm = world->kit(4).manager();
  fm.rebind();
  AllocWindow window;
  for (auto _ : state) fm.rebind();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(window.sample()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Rebind);

void BM_MprSelection(benchmark::State& state) {
  // A dense neighbourhood: n neighbours, each covering a slice of 2n
  // two-hop nodes.
  auto n = static_cast<std::uint32_t>(state.range(0));
  proto::MprState st;
  for (std::uint32_t i = 1; i <= n; ++i) {
    net::Addr nb = net::addr_for_index(i);
    st.note_heard(nb);
    st.set_symmetric(nb, true);
    std::set<net::Addr> two_hop;
    for (std::uint32_t j = 0; j < 4; ++j) {
      two_hop.insert(net::addr_for_index(100 + ((i * 3 + j) % (2 * n))));
    }
    st.set_two_hop(nb,
                   std::vector<net::Addr>(two_hop.begin(), two_hop.end()));
  }
  proto::MprCalculator calc;
  net::Addr self = net::addr_for_index(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(st, self));
  }
}
BENCHMARK(BM_MprSelection)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace mk
