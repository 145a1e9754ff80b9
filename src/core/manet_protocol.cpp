#include "core/manet_protocol.hpp"

#include <algorithm>
#include <utility>

#include "core/framework_manager.hpp"
#include "util/assert.hpp"
#include "util/inline_vector.hpp"
#include "util/log.hpp"

namespace mk::core {

// ------------------------------------------------------------- ManetControlCf

ManetControlCf::ManetControlCf()
    : oc::ComponentFramework("core.ManetControl") {
  // The paper: "ManetControl rejects attempts to add more than one C
  // element". Our C element functionality is folded into this CF itself, so
  // the analogous rule polices duplicate *source/handler names*, which would
  // make the Event Registry ambiguous on replace.
  add_integrity_rule([](const oc::CfView& view, std::string& err) {
    for (std::size_t i = 0; i < view.members().size(); ++i) {
      for (std::size_t j = i + 1; j < view.members().size(); ++j) {
        if (view.members()[i]->name() == view.members()[j]->name()) {
          err = "duplicate plug-in name: " + view.members()[i]->name();
          return false;
        }
      }
    }
    return true;
  });
}

oc::ComponentId ManetControlCf::add_handler(
    std::unique_ptr<EventHandler> handler) {
  auto lock = quiesce();
  EventHandler& raw = *handler;
  oc::ComponentId id = insert(std::move(handler));
  subscribe(id, raw);
  return id;
}

oc::ComponentId ManetControlCf::replace_handler(
    oc::ComponentId old_id, std::unique_ptr<EventHandler> handler) {
  auto lock = quiesce();
  EventHandler& raw = *handler;
  // The old handler leaves the registry while it can still say what it
  // handles, and returns to its place if the swap is refused.
  auto* old = dynamic_cast<EventHandler*>(member(old_id));
  if (old != nullptr) unsubscribe(*old);
  oc::ComponentId id;
  try {
    id = replace(old_id, std::move(handler));
  } catch (...) {
    if (old != nullptr) subscribe(old_id, *old);
    throw;
  }
  subscribe(id, raw);
  return id;
}

void ManetControlCf::remove_handler(oc::ComponentId id) {
  auto lock = quiesce();
  auto* old = dynamic_cast<EventHandler*>(member(id));
  if (old != nullptr) unsubscribe(*old);
  try {
    remove(id);
  } catch (...) {
    if (old != nullptr) subscribe(id, *old);
    throw;
  }
}

void ManetControlCf::subscribe(oc::ComponentId id, EventHandler& handler) {
  for (ev::EventTypeId type : handler.handles()) {
    if (type >= registry_.size()) registry_.resize(type + 1);
    auto& list = registry_[type];
    auto at = std::find_if(list.begin(), list.end(),
                           [id](const Subscription& s) { return s.id > id; });
    list.insert(at, Subscription{id, &handler});
  }
}

void ManetControlCf::unsubscribe(const EventHandler& handler) {
  for (ev::EventTypeId type : handler.handles()) {
    std::erase_if(registry_[type], [&](const Subscription& s) {
      return s.handler == &handler;
    });
  }
}

const std::vector<ManetControlCf::Subscription>& ManetControlCf::handlers_for(
    ev::EventTypeId type) const {
  static const std::vector<Subscription> kEmpty;
  return type < registry_.size() ? registry_[type] : kEmpty;
}

std::vector<EventSource*> ManetControlCf::sources() const {
  std::vector<EventSource*> out;
  for (oc::ComponentId id : members()) {
    if (auto* src = dynamic_cast<EventSource*>(member(id))) out.push_back(src);
  }
  return out;
}

std::vector<EventHandler*> ManetControlCf::handlers() const {
  std::vector<EventHandler*> out;
  for (oc::ComponentId id : members()) {
    if (auto* h = dynamic_cast<EventHandler*>(member(id))) out.push_back(h);
  }
  return out;
}

// ------------------------------------------------------------ ManetProtocolCf

ManetProtocolCf::ManetProtocolCf(std::string proto_name, Scheduler& sched,
                                 net::Addr self, ISysState* sys)
    : oc::ComponentFramework(std::move(proto_name)),
      ctx_(*this, sched, self, sys) {
  // Structural invariants of the CFS pattern: exactly one nested
  // ManetControl CF, and the S and F elements leave only through their
  // slots, so a slot never points at a member the generic remove, extract
  // or replace took away. (At most one S and one F element holds by
  // construction: each has one slot.)
  add_integrity_rule([this](const oc::CfView& view, std::string& err) {
    if (view.count<ManetControlCf>() > 1) {
      err = "a ManetProtocol has exactly one ManetControl CF";
      return false;
    }
    for (const Slot* slot : {&state_, &forward_}) {
      if (slot->comp != nullptr &&
          std::find(view.members().begin(), view.members().end(),
                    slot->comp) == view.members().end()) {
        err = "the S and F elements change only through their slots";
        return false;
      }
    }
    return true;
  });

  auto control = std::make_unique<ManetControlCf>();
  control_ = control.get();
  insert(std::move(control));
}

ManetProtocolCf::~ManetProtocolCf() {
  // Join the dedicated worker while every member it delivers into is alive.
  dedicated_.reset();
  stop();
}

void ManetProtocolCf::deliver(const ev::Event& event) {
  auto lock = quiesce();  // the critical section of §4.4
  ++events_delivered_;
  if (delivered_ctr_ == nullptr) {
    delivered_ctr_ = &metrics_registry().counter("proto.events_delivered");
  }
  delivered_ctr_->inc();
  // Snapshot the handler list: a handler may reconfigure the protocol
  // (replace handlers) while we iterate. Stack-local inline storage — a
  // delivery can reenter through emit(), and the few handlers per type fit
  // without touching the heap.
  InlinedVector<EventHandler*, 8> handlers;
  for (const auto& sub : control_->handlers_for(event.type())) {
    handlers.push_back(sub.handler);
  }
  for (std::size_t i = 0; i < handlers.size(); ++i) {
    handlers[i]->handle(event, ctx_);
  }
}

void ManetProtocolCf::set_tuple(ev::EventTuple tuple) {
  {
    auto lock = quiesce();
    tuple_ = std::move(tuple);
  }
  if (manager_ != nullptr) manager_->rebind();
}

void ManetProtocolCf::declare_events(const std::vector<std::string>& required,
                                     const std::vector<std::string>& provided,
                                     const std::vector<std::string>& exclusive) {
  ev::EventTuple t;
  t.required = ev::EventTuple::ids(required);
  t.provided = ev::EventTuple::ids(provided);
  t.exclusive = ev::EventTuple::ids(exclusive);
  for (ev::EventTypeId e : t.exclusive) {
    MK_ASSERT(t.requires_type(e), "exclusive must be a subset of required");
  }
  set_tuple(std::move(t));
}

oc::ComponentId ManetProtocolCf::add_handler(
    std::unique_ptr<EventHandler> handler) {
  auto lock = quiesce();
  return control_->add_handler(std::move(handler));
}

oc::ComponentId ManetProtocolCf::replace_handler(
    std::string_view name, std::unique_ptr<EventHandler> handler) {
  auto lock = quiesce();
  oc::ComponentId old_id = control_->find_id(name);
  MK_ENSURE(old_id != oc::kNoComponent,
            "no handler named " + std::string{name});
  return control_->replace_handler(old_id, std::move(handler));
}

bool ManetProtocolCf::remove_handler(std::string_view name) {
  auto lock = quiesce();
  oc::ComponentId id = control_->find_id(name);
  if (id == oc::kNoComponent) return false;
  control_->remove_handler(id);
  return true;
}

oc::ComponentId ManetProtocolCf::add_source(std::unique_ptr<EventSource> source) {
  auto lock = quiesce();
  EventSource* raw = source.get();
  oc::ComponentId id = control_->insert(std::move(source));
  if (running_) raw->start(ctx_);
  return id;
}

bool ManetProtocolCf::remove_source(std::string_view name) {
  auto lock = quiesce();
  oc::ComponentId id = control_->find_id(name);
  if (id == oc::kNoComponent) return false;
  if (auto* src = dynamic_cast<EventSource*>(control_->member(id))) {
    src->stop();
  }
  control_->remove(id);
  return true;
}

void ManetProtocolCf::fill(Slot& slot, std::unique_ptr<oc::Component> comp) {
  // Empty the slot first, so the slot rule lets its own member go.
  const Slot old = std::exchange(slot, Slot{});
  oc::Component* raw = comp.get();
  try {
    slot.id = old.id == oc::kNoComponent ? insert(std::move(comp))
                                         : replace(old.id, std::move(comp));
  } catch (...) {
    slot = old;
    throw;
  }
  slot.comp = raw;
}

void ManetProtocolCf::set_state(std::unique_ptr<oc::Component> state) {
  auto lock = quiesce();
  fill(state_, std::move(state));
}

std::unique_ptr<oc::Component> ManetProtocolCf::take_state() {
  auto lock = quiesce();
  MK_ENSURE(state_.comp != nullptr, "protocol has no S element");
  const Slot old = std::exchange(state_, Slot{});
  try {
    return extract(old.id);
  } catch (...) {
    state_ = old;
    throw;
  }
}

void ManetProtocolCf::set_forward(std::unique_ptr<oc::Component> forward) {
  auto lock = quiesce();
  MK_ASSERT(dynamic_cast<IForward*>(forward.get()) != nullptr,
            "F element must provide IForward");
  fill(forward_, std::move(forward));
}

oc::Component* ManetProtocolCf::state_component() const {
  auto lock = quiesce();
  return state_.comp;
}

void ManetProtocolCf::start() {
  auto lock = quiesce();
  if (running_) return;
  running_ = true;
  for (EventSource* src : control_->sources()) src->start(ctx_);
}

void ManetProtocolCf::stop() {
  auto lock = quiesce();
  if (!running_) return;
  running_ = false;
  for (EventSource* src : control_->sources()) src->stop();
}

void ManetProtocolCf::set_metrics(obs::MetricsRegistry* metrics) {
  auto lock = quiesce();
  metrics_ = metrics;
  delivered_ctr_ = nullptr;
}

void ManetProtocolCf::enable_dedicated_thread() {
  if (dedicated_ == nullptr) {
    dedicated_ = std::make_unique<DedicatedQueue>(*this);
  }
}

void ManetProtocolCf::disable_dedicated_thread() { dedicated_.reset(); }

void ManetProtocolCf::emit(ev::Event event) {
  event.raised_at = ctx_.scheduler().now();
  event.local = ctx_.self();
  if (manager_ != nullptr) {
    manager_->route(this, std::move(event));
  } else if (emit_hook_) {
    emit_hook_(event);
  } else {
    MK_TRACE("proto", name(), " dropped event ", event.type_name(),
             " (no manager)");
  }
}

// ------------------------------------------------------------ ProtocolContext

void ProtocolContext::emit(ev::Event event) { proto_.emit(std::move(event)); }

oc::Component* ProtocolContext::state() { return proto_.state_component(); }

void ProtocolContext::missing_state() const {
  detail::assert_fail("state_as", __FILE__, __LINE__,
                      proto_.unit_name() +
                          " has no S element of the type its plug-ins use");
}

void ProtocolContext::set_route(net::Addr dest, net::Addr next_hop,
                                std::uint32_t metric) {
  if (sys_ == nullptr) return;
  net::RouteEntry entry;
  entry.dest = dest;
  entry.next_hop = next_hop;
  entry.metric = metric;
  entry.installed_at = now();
  sys_->kernel_table().set_route(entry);
}

void ProtocolContext::remove_route(net::Addr dest) {
  if (sys_ != nullptr) sys_->kernel_table().remove_route(dest);
}

obs::MetricsRegistry& ProtocolContext::metrics() {
  return proto_.metrics_registry();
}

// --------------------------------------------------------------- EventHandler

EventHandler::EventHandler(std::string name,
                           const std::vector<std::string>& handled)
    : oc::Component(std::move(name)), handles_(ev::EventTuple::ids(handled)) {}

}  // namespace mk::core
