#include "worlds.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/executor.hpp"
#include "fault/plan.hpp"
#include "ledger.hpp"
#include "packetbb/packetbb.hpp"
#include "protocols/dymo/multipath.hpp"
#include "protocols/dymo/opt_flood.hpp"
#include "protocols/olsr/fisheye.hpp"
#include "testbed/traffic.hpp"
#include "testbed/world.hpp"
#include "util/memtrack.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mk::Duration;
using mk::sec;
using Clock = std::chrono::steady_clock;
namespace sc = mk::testbed::scenario;

// Seed salts copied from scenario::run_cell, so an untraced episode of a
// fault-free workload reproduces run_cell's digest for the same CellSpec
// (the self-test pins this).
constexpr std::uint64_t kMobilitySalt = 0x6d0b111711ull;
constexpr std::uint64_t kFaultSalt = 0xfa0175eedull;
constexpr std::uint64_t kTrafficSalt = 0x0f10f10f1ull;

// Control payloads kept per traced episode for the codec rows, and how many
// times the codec loops over them.
constexpr std::size_t kCodecSamples = 1024;
constexpr int kCodecReps = 40;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // Proactive steady state: OLSR route computation dominates, the scheduler
  // barely registers. The committed olsr/n50/gauss_markov/cbr/none cell.
  Workload olsr;
  olsr.name = "olsr_gm50";
  olsr.cell.protocol = "olsr";
  olsr.cell.nodes = 50;
  olsr.cell.mobility = "gauss_markov";
  olsr.episodes = 3;
  olsr.probe_rounds = 10;
  out.push_back(olsr);

  // Reactive discovery over a 4x fleet at the same density: the scheduler,
  // medium, codec, dispatch and mobility carry the cost; no route
  // computation at all.
  Workload dymo;
  dymo.name = "dymo_rwp200";
  dymo.cell.protocol = "dymo";
  dymo.cell.nodes = 200;
  dymo.cell.mobility = "random_waypoint";
  dymo.cell.width = 2000.0;
  dymo.cell.height = 2000.0;
  dymo.cell.flows = 20;
  dymo.cell.duration = sec(10);
  dymo.episodes = 10;
  dymo.probe_rounds = 5;
  out.push_back(dymo);

  // Reconfiguration under traffic: the Framework Manager and OpenCom on the
  // write side, with supervision and checkpoint replication running. No
  // crash/restart: with replication on, a crash during fleet reconfiguration
  // aborts in SoftExpiry (see BENCHMARK.json).
  Workload reconf;
  reconf.name = "reconfig_rwp100";
  reconf.cell.protocol = "dymo";
  reconf.cell.nodes = 100;
  reconf.cell.mobility = "random_waypoint";
  reconf.cell.width = 1414.0;
  reconf.cell.height = 1414.0;
  reconf.cell.flows = 10;
  reconf.cell.duration = sec(300);
  reconf.cell.fault_plan =
      "at 30s loss 0.3 for 5s\n"
      "at 90s misbehave 4 dymo throw for 1500ms\n"
      "at 180s loss 0.3 for 5s\n";
  reconf.reconfig = true;
  reconf.episodes = 6;
  out.push_back(reconf);
  return out;
}

// Antipodal flows, as scenario::run_cell builds them.
std::vector<mk::testbed::FlowSpec> build_flows(const sc::CellSpec& spec) {
  std::vector<mk::testbed::FlowSpec> flows;
  for (std::size_t i = 0; i < spec.flows; ++i) {
    mk::testbed::FlowSpec f;
    f.src = i % spec.nodes;
    f.dst = (i + spec.nodes / 2) % spec.nodes;
    if (f.dst == f.src) f.dst = (f.dst + 1) % spec.nodes;
    f.interval = spec.interval;
    f.payload = spec.payload;
    flows.push_back(f);
  }
  return flows;
}

void enable_mobility(mk::testbed::SimWorld& world, const sc::CellSpec& spec) {
  if (spec.mobility == "gauss_markov") {
    mk::net::GaussMarkov::Params p;
    p.width = spec.width;
    p.height = spec.height;
    p.range = spec.range;
    p.mean_speed = spec.max_speed / 2.0;
    p.speed_sigma = spec.max_speed / 8.0;
    world.enable_mobility(p, spec.seed ^ kMobilitySalt, spec.backend);
  } else {
    mk::net::RandomWaypoint::Params p;
    p.width = spec.width;
    p.height = spec.height;
    p.range = spec.range;
    p.max_speed = spec.max_speed;
    world.enable_mobility(p, spec.seed ^ kMobilitySalt, spec.backend);
  }
}

/// A checker over the world's kernel tables and medium adjacency, built the
/// way SimWorld::enable_invariants builds its own.
std::unique_ptr<mk::obs::InvariantChecker> make_checker(
    mk::testbed::SimWorld& world) {
  auto table_of =
      [&world](std::uint32_t node) -> const mk::net::KernelRouteTable* {
    const std::uint32_t idx = mk::net::index_for_addr(node);
    return idx < world.size() ? &world.node(idx).kernel_table() : nullptr;
  };
  auto lookup = [table_of](std::uint32_t node, std::uint32_t dest)
      -> std::optional<mk::obs::RouteView> {
    const auto* table = table_of(node);
    if (table == nullptr) return std::nullopt;
    auto e = table->lookup(dest);
    if (!e.has_value()) return std::nullopt;
    return mk::obs::RouteView{e->dest, e->next_hop, e->metric};
  };
  auto routes = [table_of](std::uint32_t node) {
    std::vector<mk::obs::RouteView> out;
    if (const auto* table = table_of(node)) {
      for (const auto& e : table->entries()) {
        out.push_back(mk::obs::RouteView{e.dest, e.next_hop, e.metric});
      }
    }
    return out;
  };
  auto link = [&world](std::uint32_t from, std::uint32_t to) {
    return world.medium().has_link(from, to);
  };
  return std::make_unique<mk::obs::InvariantChecker>(
      world.addrs(), std::move(lookup), std::move(routes), std::move(link));
}

/// The traced episode's instruments.
struct Tracer {
  Ledger ledger;
  const int mobility = ledger.layer("net.mobility");
  const int scheduler = ledger.layer("util.scheduler");
  const int invariants = ledger.layer("obs.invariants");
  const int reconfig = ledger.layer("core.reconfig");

  /// Journal records seen, by RecordKind.
  std::array<std::uint64_t, 32> records{};
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t pending_samples = 0;

  /// Unit name -> ledger row, shared by every node's guard.
  std::vector<std::pair<std::string, int>> deliver_rows;
  int deliver_row(const std::string& unit) {
    for (const auto& [name, id] : deliver_rows) {
      if (name == unit) return id;
    }
    const int id = ledger.layer("core.deliver." + unit);
    deliver_rows.emplace_back(unit, id);
    return id;
  }

  /// Reservoir of distinct control payloads seen on the medium.
  std::vector<std::vector<std::uint8_t>> payloads;
  std::uint64_t payloads_seen = 0;
  const void* last_payload = nullptr;
  mk::Rng reservoir_rng{0x5a3c1e};

  void sample(const mk::net::Frame& frame) {
    if (frame.kind != mk::net::FrameKind::kControl ||
        frame.payload == nullptr || frame.payload.get() == last_payload) {
      return;  // a broadcast reaches the filter once per receiver
    }
    last_payload = frame.payload.get();
    ++payloads_seen;
    if (payloads.size() < kCodecSamples) {
      payloads.push_back(*frame.payload);
      return;
    }
    const auto slot = static_cast<std::uint64_t>(reservoir_rng.uniform_int(
        0, static_cast<std::int64_t>(payloads_seen - 1)));
    if (slot < kCodecSamples) payloads[slot] = *frame.payload;
  }
};

/// A span on the tracer's ledger; free when the episode is untraced.
Span span_for(Tracer* tracer, const int Tracer::*layer) {
  return Span(tracer != nullptr ? &tracer->ledger : nullptr,
              tracer != nullptr ? tracer->*layer : 0);
}

/// Times every deliver into a unit, then hands it to the guard that was
/// installed before (the node's Supervisor, when supervision is on).
class TimingGuard final : public mk::core::DispatchGuard {
 public:
  TimingGuard(Tracer& tracer, mk::core::FrameworkManager& fm)
      : tracer_(tracer), fm_(fm), inner_(fm.dispatch_guard()) {
    fm_.set_dispatch_guard(this);
  }
  ~TimingGuard() override {
    if (fm_.dispatch_guard() == this) fm_.set_dispatch_guard(inner_);
  }
  TimingGuard(const TimingGuard&) = delete;
  TimingGuard& operator=(const TimingGuard&) = delete;

  void deliver(mk::core::CfsUnit& target, const mk::ev::Event& event) override {
    Span span(&tracer_.ledger, tracer_.deliver_row(target.unit_name()));
    if (inner_ != nullptr) {
      inner_->deliver(target, event);
    } else {
      target.deliver(event);
    }
  }

 private:
  Tracer& tracer_;
  mk::core::FrameworkManager& fm_;
  mk::core::DispatchGuard* inner_;
};

/// SimWorld::step_mobility, with the two halves timed apart.
void step(mk::testbed::SimWorld& world, Duration dt, Tracer* tracer) {
  {
    Span span = span_for(tracer, &Tracer::mobility);
    world.mobility()->step(dt);
  }
  Span span = span_for(tracer, &Tracer::scheduler);
  world.run_for(dt);
}

bool live(mk::testbed::SimWorld& world, std::size_t i) {
  const mk::supervision::Supervisor* sup = world.supervisor(i);
  return sup == nullptr ||
         (sup->health("dymo") == mk::supervision::UnitHealth::kHealthy &&
          sup->health("aodv") == mk::supervision::UnitHealth::kHealthy);
}

/// Runs one enactment call, timing it and counting it as failed when it
/// throws (switch_protocol throws when it rolled back).
template <typename Fn>
void enactment(EpisodeResult& out, Tracer* tracer, Fn&& fn) {
  bool ok = true;
  const auto t0 = Clock::now();
  {
    Span span = span_for(tracer, &Tracer::reconfig);
    try {
      fn();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  out.enact_us.push_back(seconds_since(t0) * 1e6);
  ++out.enactments;
  if (!ok) ++out.enact_failures;
}

/// One step of the rolling schedule: the tenth of the fleet whose index is
/// `k` mod 10 each advance one phase through multipath apply/remove,
/// optimised-flooding apply/remove and dymo -> aodv -> dymo switches. Nodes
/// the supervisor is nursing are skipped.
void enact_step(mk::testbed::SimWorld& world, std::size_t k,
                std::vector<int>& phase, EpisodeResult& out, Tracer* tracer) {
  for (std::size_t i = k % 10; i < world.size(); i += 10) {
    if (!live(world, i)) continue;
    mk::core::Manetkit& kit = world.kit(i);
    const int op = phase[i]++ % 6;
    enactment(out, tracer, [&] {
      switch (op) {
        case 0: mk::proto::apply_multipath_dymo(kit); break;
        case 1: mk::proto::remove_multipath_dymo(kit); break;
        case 2: mk::proto::apply_dymo_optimized_flooding(kit); break;
        case 3: mk::proto::remove_dymo_optimized_flooding(kit); break;
        case 4: kit.switch_protocol("dymo", "aodv", false); break;
        default: kit.switch_protocol("aodv", "dymo", false); break;
      }
    });
  }
}

/// Enactment cost on the steady-state workloads, which do not reconfigure
/// in their window: after it, every node applies and then removes the
/// protocol's variant (fish-eye for OLSR, multipath for DYMO), round after
/// round, with no simulated time passing in between.
void probe(mk::testbed::SimWorld& world, const Workload& workload,
           EpisodeResult& out) {
  const bool olsr = workload.cell.protocol == "olsr";
  for (int round = 0; round < workload.probe_rounds; ++round) {
    for (bool apply : {true, false}) {
      for (std::size_t i = 0; i < world.size(); ++i) {
        mk::core::Manetkit& kit = world.kit(i);
        enactment(out, nullptr, [&] {
          if (olsr && apply) mk::proto::apply_fisheye(kit);
          if (olsr && !apply) mk::proto::remove_fisheye(kit);
          if (!olsr && apply) mk::proto::apply_multipath_dymo(kit);
          if (!olsr && !apply) mk::proto::remove_multipath_dymo(kit);
        });
      }
    }
  }
}

std::uint64_t kit_counter(mk::testbed::SimWorld& world, std::string_view name) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (world.has_kit(i)) sum += world.kit(i).metrics().counter_value(name);
  }
  return sum;
}

// Per-node counters the ledger reports, under their metric names.
constexpr std::pair<const char*, const char*> kKitCounters[] = {
    {"core.fm.events_routed_per_sim_s", "fm.events_routed"},
    {"core.fm.dispatches_per_sim_s", "fm.dispatches"},
    {"protocols.olsr.tc_in_per_sim_s", "olsr.tc_in"},
    {"protocols.dymo.discoveries_per_sim_s", "dymo.discoveries"},
    {"protocols.aodv.discoveries_per_sim_s", "aodv.discoveries"},
    {"core.reconfig.replace_attempts", "fm.replace_attempts"},
    {"core.reconfig.replace_rollbacks", "fm.replace_rollbacks"},
    {"supervision.guarded_dispatches_per_sim_s", "sup.guarded_dispatches"},
    {"supervision.faults", "sup.faults"},
    {"replication.piggybacked_per_sim_s", "repl.piggybacked"},
    {"replication.checkpoints_stored_per_sim_s", "repl.checkpoints_stored"},
};

struct WindowMark {
  std::array<std::uint64_t, std::size(kKitCounters)> kit{};
  mk::net::MediumStats medium;
  std::array<std::uint64_t, 32> records{};
  std::uint64_t checks = 0;
};

WindowMark mark(mk::testbed::SimWorld& world,
                const mk::obs::InvariantChecker& checker,
                const Tracer& tracer) {
  WindowMark m;
  for (std::size_t i = 0; i < std::size(kKitCounters); ++i) {
    m.kit[i] = kit_counter(world, kKitCounters[i].second);
  }
  m.medium = world.medium().stats();
  m.records = tracer.records;
  m.checks = checker.checks_run();
  return m;
}

std::uint64_t kind_delta(const WindowMark& a, const WindowMark& b,
                         mk::obs::RecordKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return b.records[k] - a.records[k];
}

/// Which share of deliver time a unit's span lands in. Time rows exist
/// only for shares every workload has, so none reads a constant zero.
std::string_view deliver_share(std::string_view unit) {
  if (unit == "olsr" || unit == "dymo" || unit == "aodv") return "routing";
  if (unit == "neighbor" || unit == "mpr") return "neighborhood";
  if (unit == "System") return "System";
  return "";
}

void fill_layers(EpisodeResult& out, const WindowMark& a, const WindowMark& b,
                 const Tracer& tracer) {
  using K = mk::obs::RecordKind;
  auto& L = out.layers;
  constexpr std::string_view kDeliver = "core.deliver.";
  double span_ns = 0.0;
  for (const char* share : {"routing", "neighborhood", "System"}) {
    L[std::string(kDeliver) + share + ".self_ms_per_sim_s"] = 0.0;
  }
  L["core.deliver.self_ms_per_sim_s"] = 0.0;
  for (const Ledger::Row& row : tracer.ledger.rows()) {
    span_ns += static_cast<double>(row.self_ns);
    if (!row.name.starts_with(kDeliver)) continue;
    const std::string unit = row.name.substr(kDeliver.size());
    const double ms = static_cast<double>(row.self_ns) / 1e6;
    L[row.name + ".calls_per_sim_s"] = static_cast<double>(row.calls);
    L[row.name + ".self_ms_per_sim_s"] = ms;
    L["core.deliver.self_ms_per_sim_s"] += ms;
    const std::string_view share = deliver_share(unit);
    if (!share.empty()) {
      L[std::string(kDeliver).append(share) + ".self_ms_per_sim_s"] += ms;
    }
  }
  auto self_ms = [&](std::string_view name) {
    const Ledger::Row* row = tracer.ledger.find(name);
    return row == nullptr ? 0.0 : static_cast<double>(row->self_ns) / 1e6;
  };
  L["util.scheduler.residual_ms_per_sim_s"] = self_ms("util.scheduler");
  L["net.mobility.step_ms_per_sim_s"] = self_ms("net.mobility");
  L["obs.invariants.self_ms_per_sim_s"] = self_ms("obs.invariants");
  L["trace.coverage"] = span_ns / (out.window_s * 1e9);

  std::uint64_t records = 0;
  for (std::size_t k = 0; k < b.records.size(); ++k) {
    records += b.records[k] - a.records[k];
  }
  L["obs.journal.records_per_sim_s"] = static_cast<double>(records);
  L["obs.invariants.checks_per_sim_s"] =
      static_cast<double>(b.checks - a.checks);
  L["obs.invariants.loops"] = static_cast<double>(out.violations[0]);
  L["obs.invariants.invalid_next_hop"] = static_cast<double>(out.violations[1]);
  L["obs.invariants.asymmetric"] = static_cast<double>(out.violations[2]);
  L["net.kernel.route_changes_per_sim_s"] = static_cast<double>(
      kind_delta(a, b, K::kRouteAdd) + kind_delta(a, b, K::kRouteDel));
  L["util.scheduler.timer_fires_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kTimerFire));
  L["net.medium.frames_tx_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kFrameTx));
  L["net.medium.frames_rx_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kFrameRx));
  L["net.medium.drops_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kFrameDrop));
  L["core.soft_state.expiries_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kSoftExpire));
  L["core.reconfig.cf_binds_per_sim_s"] =
      static_cast<double>(kind_delta(a, b, K::kCfBind));
  L["net.medium.pair_evals_per_sim_s"] =
      static_cast<double>(b.medium.pair_evals - a.medium.pair_evals);
  L["net.medium.link_flips_per_sim_s"] =
      static_cast<double>(b.medium.link_flips - a.medium.link_flips);
  L["fault.frames_dropped"] =
      static_cast<double>(b.medium.dropped_fault - a.medium.dropped_fault);
  for (std::size_t i = 0; i < std::size(kKitCounters); ++i) {
    L[kKitCounters[i].first] = static_cast<double>(b.kit[i] - a.kit[i]);
  }
  L["util.scheduler.pending_mean"] =
      tracer.pending_samples == 0
          ? 0.0
          : static_cast<double>(tracer.pending_sum) /
                static_cast<double>(tracer.pending_samples);
  L["util.scheduler.pending_max"] = static_cast<double>(tracer.pending_max);
}

/// Times the codec on the sampled payloads and checks each one round-trips
/// byte for byte through parse_into and serialize_into.
void time_codec(const Tracer& tracer, EpisodeResult& out) {
  const auto& samples = tracer.payloads;
  if (samples.empty()) {
    out.codec_roundtrip_ok = false;
    return;
  }
  auto& L = out.layers;
  std::vector<mk::pbb::Packet> parsed(samples.size());
  std::vector<std::uint8_t> wire;
  double bytes = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    bytes += static_cast<double>(samples[i].size());
    if (!mk::pbb::parse_into(samples[i], parsed[i])) {
      out.codec_roundtrip_ok = false;
      continue;
    }
    mk::pbb::serialize_into(parsed[i], wire);
    if (wire != samples[i]) out.codec_roundtrip_ok = false;
  }
  const double frames =
      static_cast<double>(samples.size()) * static_cast<double>(kCodecReps);

  mk::pbb::Packet reused;
  std::size_t sink = 0;
  auto t0 = Clock::now();
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (const auto& bytes_in : samples) {
      if (mk::pbb::parse_into(bytes_in, reused)) {
        sink += reused.messages.size();
      }
    }
  }
  L["packetbb.parse_ns_per_frame"] = seconds_since(t0) * 1e9 / frames;

  t0 = Clock::now();
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (const auto& packet : parsed) {
      mk::pbb::serialize_into(packet, wire);
      sink += wire.size();
    }
  }
  L["packetbb.serialize_ns_per_frame"] = seconds_since(t0) * 1e9 / frames;
  L["packetbb.bytes_per_frame"] = bytes / static_cast<double>(samples.size());
  if (sink == 0) out.codec_roundtrip_ok = false;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Duration traffic_offset(std::uint64_t run_seed, std::size_t episode,
                        std::size_t episodes) {
  // splitmix64 over (seed, episode): a well-spread draw per episode.
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ull +
                    (episode + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t stratum = 1'000'000 / std::max<std::size_t>(episodes, 1);
  return mk::usec(static_cast<std::int64_t>(episode * stratum + z % stratum));
}

EpisodeResult run_episode(const Workload& workload, Duration traffic_offset,
                          bool traced) {
  const sc::CellSpec& spec = workload.cell;
  EpisodeResult out;

  const auto setup_start = Clock::now();
  mk::testbed::SimWorld world(spec.nodes, spec.seed);
  mk::obs::Journal& journal = world.enable_tracing();

  // Declared after the world: torn down first, so every guard is gone (and
  // the Supervisors it wrapped reinstated) before the world unwinds.
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<mk::obs::InvariantChecker> own_checker;
  std::vector<std::unique_ptr<TimingGuard>> guards;
  mk::obs::InvariantChecker* checker = nullptr;
  if (traced) {
    tracer = std::make_unique<Tracer>();
    own_checker = make_checker(world);
    checker = own_checker.get();
    journal.add_observer([t = tracer.get(), checker](const mk::obs::Record& r) {
      ++t->records[static_cast<std::size_t>(r.kind) % t->records.size()];
      using K = mk::obs::RecordKind;
      if (r.kind == K::kRouteAdd || r.kind == K::kLinkUp ||
          r.kind == K::kLinkDown) {
        Span span(&t->ledger, t->invariants);
        checker->on_record(r);
      }
    });
  } else {
    checker = &world.enable_invariants();
  }
  checker->set_violation_hook(
      [&out](const mk::obs::InvariantChecker::Violation& v) {
        ++out.violations[static_cast<std::size_t>(v.kind)];
      });

  enable_mobility(world, spec);
  if (workload.reconfig) {
    world.enable_supervision();
    world.enable_replication();
  }
  world.deploy_all(spec.protocol);
  if (traced) {
    for (std::size_t i = 0; i < world.size(); ++i) {
      guards.push_back(
          std::make_unique<TimingGuard>(*tracer, world.kit(i).manager()));
    }
    // Default verdict: the filter only looks. A fault plan armed later
    // replaces it, so reconfig_rwp100 samples its warmup traffic.
    world.medium().set_fault_filter(
        [t = tracer.get()](const mk::net::Frame& frame, mk::net::Addr) {
          t->sample(frame);
          return mk::net::FaultVerdict{};
        });
  }
  Tracer* tr = tracer.get();

  for (Duration t{0}; t < spec.warmup; t += spec.step) {
    step(world, spec.step, tr);
  }
  out.setup_s = seconds_since(setup_start);
  if (traffic_offset > Duration{0}) step(world, traffic_offset, tr);
  if (!spec.fault_plan.empty()) {
    world.apply_fault_plan(mk::fault::FaultPlan::parse(spec.fault_plan),
                           spec.seed ^ kFaultSalt);
  }
  mk::testbed::TrafficMatrix traffic(world, build_flows(spec),
                                     spec.seed ^ kTrafficSalt);
  traffic.start();

  WindowMark before;
  if (tr != nullptr) {
    before = mark(world, *checker, *tr);
    tr->ledger.reset();
  }
  const std::uint64_t allocs_before = mk::memtrack::snapshot().total_allocs;
  std::vector<int> phase(world.size(), 0);
  const auto window_start = Clock::now();
  auto lap = window_start;
  auto end_lap = [&] {
    const auto now = Clock::now();
    out.step_s.push_back(std::chrono::duration<double>(now - lap).count());
    lap = now;
  };
  std::size_t k = 0;
  for (Duration t{0}; t < spec.duration; t += spec.step, ++k) {
    if (workload.reconfig) enact_step(world, k, phase, out, tr);
    step(world, spec.step, tr);
    if (tr != nullptr) {
      const std::uint64_t pending = world.scheduler().pending();
      tr->pending_sum += pending;
      tr->pending_max = std::max(tr->pending_max, pending);
      ++tr->pending_samples;
    }
    end_lap();
  }
  traffic.stop();
  {
    Span span = span_for(tr, &Tracer::scheduler);
    world.run_for(spec.drain);
  }
  end_lap();
  out.window_s = seconds_since(window_start);
  out.window_allocs = mk::memtrack::snapshot().total_allocs - allocs_before;
  out.sim_window_s =
      std::chrono::duration<double>(spec.duration + spec.drain).count();

  out.sent = traffic.total_sent();
  out.received = traffic.total_received();
  out.latencies_ms = traffic.merged_latencies_ms().values();
  out.control_bytes = world.medium().stats().control_bytes;
  out.digest = journal.digests();

  if (tr != nullptr) {
    fill_layers(out, before, mark(world, *checker, *tr), *tr);
    time_codec(*tr, out);
  }
  if (!workload.reconfig) {
    // The probe is not part of the simulated outcome: stop counting.
    checker->set_violation_hook([](const auto&) {});
    probe(world, workload, out);
  }
  return out;
}

bool same_outcome(const EpisodeResult& a, const EpisodeResult& b) {
  return a.sent == b.sent && a.received == b.received &&
         a.control_bytes == b.control_bytes &&
         a.latencies_ms == b.latencies_ms && a.violations == b.violations &&
         a.digest.ordered == b.digest.ordered &&
         a.digest.canonical == b.digest.canonical &&
         a.digest.records == b.digest.records &&
         a.enactments == b.enactments && a.enact_failures == b.enact_failures;
}

}  // namespace perfbench
