#include "testbed/world.hpp"

#include "opencom/guard.hpp"
#include "protocols/gpsr/gpsr_cf.hpp"
#include "protocols/install.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::testbed {

SimWorld::SimWorld(std::size_t num_nodes, std::uint64_t seed,
                   SimBackend backend)
    : sched_(backend), medium_(sched_, seed) {
  nodes_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<net::SimNode>(
        static_cast<std::uint32_t>(i), medium_, sched_));
  }
  kits_.resize(num_nodes);
  supervisors_.resize(num_nodes);
  daemons_.resize(num_nodes * 2);  // slot per (node, daemon kind)
}

SimWorld::~SimWorld() {
  // Supervisors uninstall from their kits and cancel recovery timers; kits
  // and daemons hold timers into the scheduler; drop in that order.
  supervisors_.clear();
  daemons_.clear();
  kits_.clear();
}

std::vector<net::Addr> SimWorld::addrs() const {
  std::vector<net::Addr> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->addr());
  return out;
}

std::vector<net::SimNode*> SimWorld::node_ptrs() const {
  std::vector<net::SimNode*> ptrs;
  ptrs.reserve(nodes_.size());
  for (const auto& n : nodes_) ptrs.push_back(n.get());
  return ptrs;
}

net::MobilityModel& SimWorld::enable_mobility(
    net::RandomWaypoint::Params params, std::uint64_t seed,
    net::topo::TopologyBackend backend) {
  if (mobility_ == nullptr) {
    mobility_ = std::make_unique<net::RandomWaypoint>(
        medium_, node_ptrs(), params, seed, backend);
  }
  MK_ASSERT(mobility_->name() == "random_waypoint",
            "world already has a different mobility model");
  return *mobility_;
}

net::MobilityModel& SimWorld::enable_mobility(
    net::GaussMarkov::Params params, std::uint64_t seed,
    net::topo::TopologyBackend backend) {
  if (mobility_ == nullptr) {
    mobility_ = std::make_unique<net::GaussMarkov>(medium_, node_ptrs(),
                                                   params, seed, backend);
  }
  MK_ASSERT(mobility_->name() == "gauss_markov",
            "world already has a different mobility model");
  return *mobility_;
}

void SimWorld::step_mobility(Duration dt) {
  MK_ASSERT(mobility_ != nullptr, "enable_mobility() first");
  mobility_->step(dt);
  run_for(dt);
}

core::Manetkit& SimWorld::kit(std::size_t i) {
  auto& slot = kits_.at(i);
  if (slot == nullptr) {
    slot = std::make_unique<core::Manetkit>(*nodes_.at(i));
    proto::install_all(*slot);
    if (journal_ != nullptr) slot->set_journal(journal_.get());
    if (supervise_) {
      supervisors_.at(i) =
          std::make_unique<supervision::Supervisor>(*slot, sup_opts_);
    }
    if (replicate_) {
      repl::register_replication(*slot, repl_params_);
      slot->deploy("replication");
    }
  }
  return *slot;
}

void SimWorld::deploy_all(const std::string& proto) {
  for (std::size_t i = 0; i < size(); ++i) kit(i).deploy(proto);
}

void SimWorld::register_gpsr_oracle() {
  auto* nodes = &nodes_;
  proto::LocationService oracle =
      [nodes](net::Addr a) -> std::optional<net::Position> {
    std::uint32_t idx = net::index_for_addr(a);
    if (idx >= nodes->size()) return std::nullopt;
    return (*nodes)[idx]->position();
  };
  for (std::size_t i = 0; i < size(); ++i) {
    proto::register_gpsr(kit(i), oracle);
  }
}

baseline::MonolithicOlsr& SimWorld::olsrd(std::size_t i) {
  auto& slot = daemons_.at(i * 2);
  if (slot == nullptr) {
    slot = std::make_unique<baseline::MonolithicOlsr>(*nodes_.at(i));
    slot->start();
  }
  auto* daemon = dynamic_cast<baseline::MonolithicOlsr*>(slot.get());
  MK_ASSERT(daemon != nullptr);
  return *daemon;
}

baseline::MonolithicDymo& SimWorld::dymoum(std::size_t i) {
  auto& slot = daemons_.at(i * 2 + 1);
  if (slot == nullptr) {
    slot = std::make_unique<baseline::MonolithicDymo>(*nodes_.at(i));
    slot->start();
  }
  auto* daemon = dynamic_cast<baseline::MonolithicDymo*>(slot.get());
  MK_ASSERT(daemon != nullptr);
  return *daemon;
}

bool SimWorld::fully_routed() const {
  for (const auto& a : nodes_) {
    for (const auto& b : nodes_) {
      if (a->addr() == b->addr()) continue;
      if (!a->kernel_table().lookup(b->addr()).has_value()) return false;
    }
  }
  return true;
}

std::optional<Duration> SimWorld::run_until_routed(Duration deadline,
                                                   Duration step) {
  TimePoint start = now();
  TimePoint limit = start + deadline;
  while (now() < limit) {
    if (fully_routed()) return now() - start;
    sched_.run_for(step);
  }
  return fully_routed() ? std::optional<Duration>(now() - start)
                        : std::nullopt;
}

bool SimWorld::has_route(std::size_t i, net::Addr dest) const {
  return nodes_.at(i)->kernel_table().lookup(dest).has_value();
}

fault::FaultInjector& SimWorld::apply_fault_plan(const fault::FaultPlan& plan,
                                                 std::uint64_t seed) {
  if (injector_ == nullptr) {
    fault::FaultInjector::NodeControl control;
    control.crash = [this](net::Addr a) {
      crash_node(net::index_for_addr(a));
    };
    control.restart = [this](net::Addr a) {
      restart_node(net::index_for_addr(a));
    };
    control.misbehave = [this](net::Addr a, const std::string& component,
                               fault::Misbehave mode) {
      supervision::Supervisor* sup =
          supervisors_.at(net::index_for_addr(a)).get();
      MK_ENSURE(sup != nullptr,
                "fault plan misbehaves a component on a node without a "
                "supervisor (call enable_supervision() before the action "
                "fires)");
      sup->set_misbehaviour(component, mode);
    };
    injector_ = std::make_unique<fault::FaultInjector>(
        medium_, sched_, std::move(control), seed);
    injector_->set_journal(journal_.get());
  }
  injector_->arm(plan);
  return *injector_;
}

void SimWorld::crash_node(std::size_t i) {
  core::Manetkit* k = kits_.at(i).get();
  if (replicate_ && k != nullptr) {
    // A real crash: the process dies with its S elements. Stop everything
    // (the replication CF too — a crashed node publishes nothing), wipe the
    // codec-capable state and the kernel routes, and forget the replicas
    // this node held for others.
    for (const std::string& name : k->deployed()) {
      core::ManetProtocolCf* p = k->protocol(name);
      if (p != nullptr && p->running()) p->stop();
    }
    for (const std::string& name : k->deployed()) {
      core::ManetProtocolCf* p = k->protocol(name);
      if (p == nullptr) continue;
      if (auto* codec =
              dynamic_cast<core::IStateCodec*>(p->state_component())) {
        codec->reset_state();
      }
    }
    nodes_.at(i)->kernel_table().clear();
    if (core::ManetProtocolCf* rp = k->protocol("replication")) {
      if (repl::ReplicationManager* mgr = repl::replication_state(*rp)) {
        mgr->on_crash_wipe();
      }
    }
  }
  nodes_.at(i)->device().set_up(false);
}

void SimWorld::restart_node(std::size_t i) {
  nodes_.at(i)->device().set_up(true);
  core::Manetkit* k = kits_.at(i).get();
  if (replicate_ && k != nullptr) {
    for (const std::string& name : k->deployed()) {
      core::ManetProtocolCf* p = k->protocol(name);
      if (p != nullptr && !p->running()) p->start();
    }
    // Under strategy none this returns false (the cold-start control arm);
    // otherwise the node broadcasts a solicit and peers unicast offers back.
    if (core::ReplicationControl* rc = k->replication()) {
      rc->request_rehydrate("");
    }
  }
}

void SimWorld::enable_replication(repl::ReplicationParams params) {
  if (replicate_) return;
  replicate_ = true;
  repl_params_ = params;
  for (auto& k : kits_) {
    if (k == nullptr) continue;
    repl::register_replication(*k, repl_params_);
    k->deploy("replication");
  }
}

void SimWorld::enable_supervision(supervision::SupervisorOptions opts) {
  if (supervise_) return;
  supervise_ = true;
  sup_opts_ = opts;
  // Timer-fire isolation: a plug-in exception escaping a timer callback is
  // journaled (pseudo-node 0xffffffff, unit unknown) and swallowed instead
  // of unwinding through the scheduler loop.
  sched_.set_fault_trap([this](std::exception_ptr ep) {
    MK_WARN("sup", "timer callback threw: ", oc::describe_exception(ep));
    if (journal_ != nullptr) {
      journal_->append(
          {obs::RecordKind::kComponentFault, 0xffffffffu, sched_.now().us, 0,
           static_cast<std::uint64_t>(obs::ComponentFaultReason::kTimer), 0});
    }
    return true;
  });
  for (std::size_t i = 0; i < kits_.size(); ++i) {
    if (kits_[i] != nullptr && supervisors_[i] == nullptr) {
      supervisors_[i] =
          std::make_unique<supervision::Supervisor>(*kits_[i], sup_opts_);
    }
  }
}

obs::Journal& SimWorld::enable_tracing(std::size_t capacity) {
  if (journal_ != nullptr) return *journal_;
  journal_ = std::make_unique<obs::Journal>(capacity);
  medium_.set_journal(journal_.get());
  if (injector_ != nullptr) injector_->set_journal(journal_.get());
  sched_.set_fire_hook([this](TimerId id, TimePoint at) {
    journal_->append({obs::RecordKind::kTimerFire, 0xffffffffu, at.us,
                      static_cast<std::uint64_t>(id), 0, 0});
  });
  for (auto& k : kits_) {
    if (k != nullptr) k->set_journal(journal_.get());
  }
  return *journal_;
}

obs::InvariantChecker& SimWorld::enable_invariants() {
  if (checker_ != nullptr) return *checker_;
  obs::Journal& journal = enable_tracing();

  auto table_of = [this](std::uint32_t node) -> const net::KernelRouteTable* {
    std::uint32_t idx = net::index_for_addr(node);
    return idx < nodes_.size() ? &nodes_[idx]->kernel_table() : nullptr;
  };
  obs::InvariantChecker::LookupFn lookup =
      [table_of](std::uint32_t node,
                 std::uint32_t dest) -> std::optional<obs::RouteView> {
    const auto* table = table_of(node);
    if (table == nullptr) return std::nullopt;
    auto e = table->lookup(dest);
    if (!e.has_value()) return std::nullopt;
    return obs::RouteView{e->dest, e->next_hop, e->metric};
  };
  obs::InvariantChecker::RoutesFn routes = [table_of](std::uint32_t node) {
    std::vector<obs::RouteView> out;
    const auto* table = table_of(node);
    if (table == nullptr) return out;
    for (const auto& e : table->entries()) {
      out.push_back(obs::RouteView{e.dest, e.next_hop, e.metric});
    }
    return out;
  };
  obs::InvariantChecker::LinkFn link = [this](std::uint32_t from,
                                              std::uint32_t to) {
    return medium_.has_link(from, to);
  };
  checker_ = std::make_unique<obs::InvariantChecker>(
      addrs(), std::move(lookup), std::move(routes), std::move(link));
  checker_->set_link_grace(kInvariantLinkGrace);
  checker_->attach(journal);
  return *checker_;
}

}  // namespace mk::testbed
