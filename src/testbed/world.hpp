// Scenario harness: N simulated nodes on one medium, with per-node MANETKit
// stacks (lazily created) and/or monolithic baseline daemons. Reproduces the
// paper's testbed: 5 nodes, linear emulated topology, identical protocol
// parameters across framework and monolithic implementations.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dymoum.hpp"
#include "baselines/olsrd.hpp"
#include "core/manetkit.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "obs/invariants.hpp"
#include "obs/journal.hpp"
#include "protocols/gpsr/gpsr_cf.hpp"
#include "protocols/timing.hpp"
#include "replication/replication.hpp"
#include "supervision/supervisor.hpp"
#include "util/scheduler.hpp"

namespace mk::testbed {

/// The invariant checker's link grace: the longest link hold time of any
/// deployable protocol (the neighbour table's NEIGHB_HOLD_TIME, GPSR's
/// position beacons) plus one HELLO interval, the time a protocol may
/// legitimately keep routing over a link that has already dropped.
inline constexpr Duration kInvariantLinkGrace =
    std::max(proto::kNeighbHoldTime, proto::kGpsrPositionHold) +
    proto::kHelloInterval;
static_assert(kInvariantLinkGrace == obs::InvariantChecker::kDefaultLinkGrace,
              "a checker built outside SimWorld must use the same grace");

class SimWorld {
 public:
  /// `backend` selects the scheduler's timer store (hierarchical wheel by
  /// default; the ordered-map oracle is kept for digest-parity conformance
  /// runs).
  explicit SimWorld(std::size_t num_nodes, std::uint64_t seed = 42,
                    SimBackend backend = SimBackend::kWheel);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  SimScheduler& scheduler() { return sched_; }
  net::SimMedium& medium() { return medium_; }

  std::size_t size() const { return nodes_.size(); }
  net::SimNode& node(std::size_t i) { return *nodes_.at(i); }
  net::Addr addr(std::size_t i) const { return net::addr_for_index(i); }
  std::vector<net::Addr> addrs() const;

  // -- topology ---------------------------------------------------------------
  void linear() { net::topo::linear(medium_, addrs()); }
  void ring() { net::topo::ring(medium_, addrs()); }
  void grid(std::size_t cols) { net::topo::grid(medium_, addrs(), cols); }
  void full_mesh() { net::topo::full_mesh(medium_, addrs()); }

  // -- mobility ----------------------------------------------------------------
  /// Places every node under RandomWaypoint (resp. Gauss–Markov) mobility and
  /// applies range links (spatial-hash grid by default;
  /// TopologyBackend::kReference selects the O(n²) conformance oracle — same
  /// seed digests bit-identically either way). One model per world;
  /// subsequent calls return the first (whatever its type — mixing overloads
  /// after the first call is a caller bug, asserted in the .cpp).
  net::MobilityModel& enable_mobility(
      net::RandomWaypoint::Params params, std::uint64_t seed = 7,
      net::topo::TopologyBackend backend = net::topo::TopologyBackend::kGrid);
  net::MobilityModel& enable_mobility(
      net::GaussMarkov::Params params, std::uint64_t seed = 7,
      net::topo::TopologyBackend backend = net::topo::TopologyBackend::kGrid);
  net::MobilityModel* mobility() { return mobility_.get(); }

  /// Advances mobility by dt (updating links), then runs dt of sim events.
  void step_mobility(Duration dt);

  // -- time --------------------------------------------------------------------
  void run_for(Duration d) { sched_.run_for(d); }
  void run_until(TimePoint t) { sched_.run_until(t); }
  TimePoint now() const { return sched_.now(); }

  // -- MANETKit stacks ------------------------------------------------------------
  /// Lazily creates the node's MANETKit instance (with every built-in
  /// protocol builder registered).
  core::Manetkit& kit(std::size_t i);
  bool has_kit(std::size_t i) const { return kits_.at(i) != nullptr; }

  /// Deploys a protocol on every node.
  void deploy_all(const std::string& proto);

  /// Registers the "gpsr" builder on every kit with an oracle location
  /// service backed by the true simulated positions (the standard GPSR
  /// evaluation assumption; see DESIGN.md substitutions).
  void register_gpsr_oracle();

  // -- baselines -----------------------------------------------------------------
  baseline::MonolithicOlsr& olsrd(std::size_t i);
  baseline::MonolithicDymo& dymoum(std::size_t i);

  // -- convergence helpers -----------------------------------------------------------
  /// True when every node holds a kernel route to every other node.
  bool fully_routed() const;

  /// Runs in `step` increments until fully_routed() or `deadline` sim time;
  /// returns the sim time consumed, or nullopt on timeout.
  std::optional<Duration> run_until_routed(Duration deadline,
                                           Duration step = msec(10));

  /// True when node i holds a valid kernel route to `dest`.
  bool has_route(std::size_t i, net::Addr dest) const;

  // -- fault injection ----------------------------------------------------------
  /// Arms a deterministic fault plan against this world (times relative to
  /// now()): schedules every action, installs the medium's per-delivery
  /// fault filter, and binds crash/restart to the nodes' devices. The
  /// injector draws from its own Rng seeded with `seed`, so (world seed,
  /// plan, fault seed) fully determines the run. Callable repeatedly to
  /// layer plans; all share one injector (and the first call's seed).
  fault::FaultInjector& apply_fault_plan(const fault::FaultPlan& plan,
                                         std::uint64_t seed = 1);
  fault::FaultInjector* injector() { return injector_.get(); }

  /// Crash/restart, exposed for direct scripting in tests (fault-plan
  /// crash/restart actions land here too). Without enable_replication this
  /// is the historical radio-off/on model (protocol state survives in RAM).
  /// With replication enabled the crash is a *real* one: every deployed
  /// protocol on the node (including the replication CF) stops, codec-capable
  /// S elements are wiped, the kernel table is cleared and the device goes
  /// down; restart brings the device up, starts the protocols and solicits
  /// peer replicas (a no-op rehydrate under strategy none, so none/checkpoint
  /// comparisons share one crash model).
  void crash_node(std::size_t i);
  void restart_node(std::size_t i);

  // -- replication (ISSUE 10) -----------------------------------------------------
  /// Deploys the "replication" CF on every MANETKit stack (including kits
  /// created after this call) and switches fault-plan crash/restart to the
  /// cold-start crash model above. Idempotent; params fixed by the first call.
  void enable_replication(repl::ReplicationParams params = {});
  /// The node's replication control surface (null before enablement).
  core::ReplicationControl* replication(std::size_t i) {
    return kits_.at(i) == nullptr ? nullptr : kits_.at(i)->replication();
  }

  // -- supervision ---------------------------------------------------------------
  /// Installs a Supervisor on every MANETKit stack (including kits created
  /// after this call): dispatch-boundary fault isolation, the deterministic
  /// watchdog, circuit-breaker quarantine and the recovery ladder. Also wraps
  /// the scheduler's timer-fire path so plug-in timer exceptions are
  /// journaled (kComponentFault / kTimer) instead of tearing down the run,
  /// and lets fault plans carry `misbehave` actions. Idempotent; options are
  /// fixed by the first call.
  void enable_supervision(supervision::SupervisorOptions opts = {});
  /// The node's supervisor (null before enable_supervision / kit creation).
  supervision::Supervisor* supervisor(std::size_t i) {
    return supervisors_.at(i).get();
  }

  // -- observability ------------------------------------------------------------
  /// Turns on whole-world tracing: one shared journal receives records from
  /// the medium (frame tx/rx/drop, link transitions), the scheduler (timer
  /// fires, attributed to the pseudo-node 0xffffffff) and every MANETKit
  /// stack — including kits created after this call. Idempotent.
  obs::Journal& enable_tracing(std::size_t capacity = obs::Journal::kDefaultCapacity);
  obs::Journal* journal() { return journal_.get(); }

  /// Turns on continuous routing-invariant checking over the trace stream
  /// (requires/implies enable_tracing). The checker walks next-hop chains on
  /// every route install and validates next hops against the medium's true
  /// adjacency. Idempotent.
  obs::InvariantChecker& enable_invariants();
  obs::InvariantChecker* checker() { return checker_.get(); }

 private:
  SimScheduler sched_;
  net::SimMedium medium_;
  std::vector<std::unique_ptr<net::SimNode>> nodes_;
  std::vector<std::unique_ptr<core::Manetkit>> kits_;
  // Declared after kits_ so each Supervisor outlives nothing it references
  // (destroyed first; ~SimWorld also clears explicitly for clarity).
  std::vector<std::unique_ptr<supervision::Supervisor>> supervisors_;
  bool supervise_ = false;
  supervision::SupervisorOptions sup_opts_{};
  bool replicate_ = false;
  repl::ReplicationParams repl_params_{};
  std::vector<std::unique_ptr<baseline::RoutingDaemon>> daemons_;
  /// Node pointers in index order (the mobility ctors' node set).
  std::vector<net::SimNode*> node_ptrs() const;

  std::unique_ptr<net::MobilityModel> mobility_;
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<obs::InvariantChecker> checker_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace mk::testbed
