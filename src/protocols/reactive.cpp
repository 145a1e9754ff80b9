#include "protocols/reactive.hpp"

#include "packetbb/packetbb.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

ReactiveState::ReactiveState(std::uint8_t max_tries)
    : oc::Component("State"), pending_(max_tries) {}

void ReactiveState::reset_reactive() {
  own_seq_ = 1;
  pending_.clear();
}

void emit_route_found(core::ProtocolContext& ctx, net::Addr dest) {
  static const ev::EventTypeId kRouteFound = ev::etype(ev::types::ROUTE_FOUND);
  ev::Event e(kRouteFound);
  e.set_attr(ev::IntAttr::dest, dest);
  ctx.emit(std::move(e));
}

void finish_discovery(core::ProtocolContext& ctx, net::Addr dest) {
  ctx.state_as<ReactiveState>().pending().finish(dest);
  if (auto* s = ctx.soft()) s->drop(reactive_sets::kPending, dest);
}

void route_learned(core::ProtocolContext& ctx, net::Addr dest,
                   net::Addr next_hop, std::uint8_t hops, RouteUpdate update) {
  if (update.changed) {
    ctx.set_route(dest, next_hop, hops);
    finish_discovery(ctx, dest);
    emit_route_found(ctx, dest);
  }
  if (auto* soft = ctx.soft()) {
    soft->touch_at(reactive_sets::kRoute, dest, update.expires);
  }
}

Unreachable invalidate_reported(core::ProtocolContext& ctx,
                                const pbb::Message& rerr, net::Addr from) {
  ReactiveState& st = ctx.state_as<ReactiveState>();
  Unreachable out;
  for (const auto& block : rerr.addr_blocks) {
    for (net::Addr dest : block.addrs) {
      auto route = st.find_route(dest);
      if (!route || !route->valid || route->next_hop != from) continue;
      if (auto seq = st.invalidate(dest)) {
        ctx.remove_route(dest);
        out.emplace_back(dest, *seq);
      }
    }
  }
  return out;
}

bool start_discovery(core::ProtocolContext& ctx, const ReactiveProtocol& proto,
                     net::Addr target) {
  PendingDiscoveries& pending = ctx.state_as<ReactiveState>().pending();
  if (pending.has(target)) return false;
  pending.start(target, proto.rreq_wait);
  if (auto* s = ctx.soft()) {
    s->touch_at(reactive_sets::kPending, target, ctx.now() + proto.rreq_wait);
  }
  proto.send_rreq(ctx, target);
  return true;
}

void discover(core::ManetProtocolCf& cf, net::Addr target) {
  auto lock = cf.quiesce();
  auto* h = dynamic_cast<NoRouteHandler*>(cf.control().find("NoRouteHandler"));
  MK_ENSURE(h != nullptr, cf.unit_name() + " is not a reactive protocol");
  start_discovery(cf.context(), h->protocol(), target);
}

core::SoftExpiry::SetId define_route_set(core::SoftExpiry& soft,
                                         const ReactiveProtocol& proto,
                                         core::SoftExpiry::LossFn on_lapse) {
  auto id = soft.define_set(
      proto.name + ".route", proto.route_lifetime, std::move(on_lapse),
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        ctx.state_as<ReactiveState>().for_each_route(
            [&keys](net::Addr d, const RouteView&) { keys.push_back(d); });
        return keys;
      });
  MK_ASSERT(id == reactive_sets::kRoute, "route set must be defined first");
  return id;
}

core::SoftExpiry::SetId define_pending_set(core::SoftExpiry& soft,
                                           const ReactiveProtocol& proto) {
  auto id = soft.define_set(
      proto.name + ".pending", proto.rreq_wait,
      [proto](std::uint64_t key, core::ProtocolContext& ctx) {
        PendingDiscoveries& pending = ctx.state_as<ReactiveState>().pending();
        auto dest = static_cast<net::Addr>(key);
        bool had = pending.has(dest);
        if (auto next = pending.retry(dest, ctx.now())) {
          proto.send_rreq(ctx, dest);
          if (auto* s = ctx.soft()) {
            s->touch_at(reactive_sets::kPending, dest, *next);
          }
        } else if (had) {
          MK_DEBUG(proto.name, "discovery for ", pbb::addr_to_string(dest),
                   " gave up after ", int{pending.max_tries()}, " tries");
        }
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<ReactiveState>().pending().dests());
      });
  MK_ASSERT(id == reactive_sets::kPending,
            "pending set must follow the route set");
  return id;
}

NoRouteHandler::NoRouteHandler(const ReactiveProtocol& proto)
    : core::EventHandler("NoRouteHandler", {ev::types::NO_ROUTE}),
      proto_(proto),
      discoveries_(proto_.name + ".discoveries") {}

void NoRouteHandler::handle(const ev::Event& event,
                            core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.attr(ev::IntAttr::dest));
  if (dest == net::kNoAddr) return;
  auto route = ctx.state_as<ReactiveState>().find_route(dest);
  if (route && route->valid) {
    // Route already known (e.g. learned since the packet was buffered).
    emit_route_found(ctx, dest);
    return;
  }
  if (try_local_knowledge(dest, ctx)) return;
  if (start_discovery(ctx, proto_, dest)) {
    ctx.metrics().counter(discoveries_).inc();
  }
}

RouteUpdateHandler::RouteUpdateHandler(const ReactiveProtocol& proto)
    : core::EventHandler("RouteUpdateHandler", {ev::types::ROUTE_UPDATE}),
      lifetime_(proto.route_lifetime) {}

void RouteUpdateHandler::handle(const ev::Event& event,
                                core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.attr(ev::IntAttr::dest));
  auto deadline =
      ctx.state_as<ReactiveState>().extend_lifetime(dest, ctx.now(), lifetime_);
  auto* soft = ctx.soft();
  if (deadline && soft != nullptr) {
    soft->touch_at(reactive_sets::kRoute, dest, *deadline);
  }
}

LinkBreakHandler::LinkBreakHandler(const ReactiveProtocol& proto,
                                   std::string name)
    : core::EventHandler(std::move(name),
                         {ev::types::SEND_ROUTE_ERR, ev::types::NHOOD_CHANGE}),
      proto_(proto),
      rerr_out_(proto_.name + ".rerr_out") {}

Unreachable LinkBreakHandler::fail_via(net::Addr hop,
                                       core::ProtocolContext& ctx) {
  Unreachable unreachable = ctx.state_as<ReactiveState>().invalidate_via(hop);
  for (const auto& [dest, _] : unreachable) ctx.remove_route(dest);
  return unreachable;
}

void LinkBreakHandler::handle(const ev::Event& event,
                              core::ProtocolContext& ctx) {
  net::Addr hop = net::kNoAddr;
  if (event.type() == send_route_err_) {
    hop = static_cast<net::Addr>(event.attr(ev::IntAttr::next_hop));
  } else {  // NHOOD_CHANGE: only link breaks matter
    if (event.attr(ev::IntAttr::up, 1) != 0) return;
    hop = static_cast<net::Addr>(event.attr(ev::IntAttr::neighbor));
  }
  if (hop == net::kNoAddr) return;
  Unreachable unreachable = fail_via(hop, ctx);
  if (unreachable.empty()) return;
  ev::Event rerr = proto_.build_rerr(ctx, unreachable);
  ctx.metrics().counter(rerr_out_).inc();
  ctx.emit(std::move(rerr));
}

}  // namespace mk::proto
