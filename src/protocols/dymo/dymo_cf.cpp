#include "protocols/dymo/dymo_cf.hpp"

#include "core/attrs.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

using core::attrs::kDest;
using core::attrs::kNeighbor;
using core::attrs::kNextHop;
using core::attrs::kUnicastTo;
using core::attrs::kUp;

}  // namespace

void dymo_emit_route_found(core::ProtocolContext& ctx, net::Addr dest) {
  ev::Event e(ev::types::ROUTE_FOUND);
  e.set_int(core::attrs::kDest, dest);
  ctx.emit(std::move(e));
}

void dymo_send_rreq(core::ProtocolContext& ctx, net::Addr target,
                    const DymoParams& params) {
  DymoState& st = ctx.state_as<DymoState>();
  ev::Event e(ev::etype("RM_OUT"));
  e.set_msg(rm::build_rreq(ctx.self(), st.bump_seq(), target,
                           params.rreq_hop_limit));
  ctx.emit(std::move(e));
}

// ------------------------------------------------------------------ RM codec

namespace rm {

pbb::Message build_rreq(net::Addr self, std::uint16_t own_seq, net::Addr target,
                        std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRm;
  m.originator = self;
  m.seqnum = own_seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  m.tlvs.push_back(
      pbb::Tlv::u8(wire::kTlvRmKind, static_cast<std::uint8_t>(Kind::kRreq)));
  pbb::AddressBlock target_block;
  target_block.addrs.push_back(target);
  m.addr_blocks.push_back(std::move(target_block));
  m.addr_blocks.emplace_back();  // path-accumulation block
  return m;
}

pbb::Message build_rrep(net::Addr self, std::uint16_t own_seq,
                        net::Addr rreq_origin, std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRm;
  m.originator = self;
  m.seqnum = own_seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  m.tlvs.push_back(
      pbb::Tlv::u8(wire::kTlvRmKind, static_cast<std::uint8_t>(Kind::kRrep)));
  pbb::AddressBlock target_block;
  target_block.addrs.push_back(rreq_origin);
  m.addr_blocks.push_back(std::move(target_block));
  m.addr_blocks.emplace_back();
  return m;
}

void append_self(pbb::Message& msg, net::Addr self, std::uint16_t seq) {
  MK_ASSERT(msg.addr_blocks.size() >= 2, "RM lacks accumulation block");
  pbb::AddressBlock& path = msg.addr_blocks[1];
  auto idx = static_cast<std::uint8_t>(path.addrs.size());
  path.addrs.push_back(self);
  path.tlvs.push_back(pbb::AddressTlv{
      wire::kAtlvSeqnum, idx, idx,
      {0, 0,  // u32 encoding of a 16-bit sequence number
       static_cast<std::uint8_t>(seq >> 8), static_cast<std::uint8_t>(seq)}});
  path.tlvs.push_back(
      pbb::AddressTlv{wire::kAtlvHops, idx, idx, {msg.hop_count}});
}

Kind kind(const pbb::Message& msg) {
  const auto* t = msg.find_tlv(wire::kTlvRmKind);
  return (t != nullptr && t->as_u8() == 1) ? Kind::kRrep : Kind::kRreq;
}

net::Addr target(const pbb::Message& msg) {
  if (msg.addr_blocks.empty() || msg.addr_blocks[0].addrs.empty()) {
    return net::kNoAddr;
  }
  return msg.addr_blocks[0].addrs[0];
}

pbb::Message build_rerr(
    net::Addr self, std::uint16_t seq,
    const std::vector<std::pair<net::Addr, std::uint16_t>>& unreachable,
    std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRerr;
  m.originator = self;
  m.seqnum = seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  pbb::AddressBlock block;
  for (const auto& [dest, dseq] : unreachable) {
    block.add_with_u32(dest, wire::kAtlvSeqnum, dseq);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

}  // namespace rm

// ------------------------------------------------------------------ ReHandler

ReHandler::ReHandler(DymoParams params)
    : ReHandler("dymo.ReHandler", params) {}

ReHandler::ReHandler(std::string type_name, DymoParams params)
    : core::EventHandler(std::move(type_name), {"RM_IN"}), params_(params) {
  set_instance_name("ReHandler");
}

void ReHandler::learn(const ev::Event& event, core::ProtocolContext& ctx) {
  const pbb::Message& msg = *event.msg();
  DymoState& st = ctx.state_as<DymoState>();
  TimePoint now = ctx.now();

  auto accept = [&](net::Addr dest, std::uint16_t seq, std::uint8_t hops) {
    if (dest == ctx.self()) return;
    if (st.update_route(dest, seq, event.from, hops, now,
                        params_.route_lifetime)) {
      ctx.set_route(dest, event.from, hops);
      st.pending().finish(dest);
      if (auto* s = ctx.soft()) s->drop(dymo_sets::kPending, dest);
      dymo_emit_route_found(ctx, dest);
    }
    // Track the route's deadline even when the update was a same-info
    // refresh (update_route extends the lifetime without reporting change).
    if (auto r = st.route_to(dest)) {
      if (auto* s = ctx.soft()) {
        s->touch_at(dymo_sets::kRoute, dest, r->expires);
      }
    }
  };

  // Route to the message originator via the previous hop.
  accept(*msg.originator, *msg.seqnum,
         static_cast<std::uint8_t>(msg.hop_count + 1));

  // Routes to every node on the accumulated path.
  if (msg.addr_blocks.size() >= 2) {
    const pbb::AddressBlock& path = msg.addr_blocks[1];
    for (std::size_t i = 0; i < path.addrs.size(); ++i) {
      const auto* seq_tlv = path.tlv_for(i, wire::kAtlvSeqnum);
      const auto* hops_tlv = path.tlv_for(i, wire::kAtlvHops);
      if (seq_tlv == nullptr || hops_tlv == nullptr) continue;
      auto node_hops = hops_tlv->as_u8();
      if (node_hops > msg.hop_count) continue;  // malformed
      auto dist =
          static_cast<std::uint8_t>(msg.hop_count + 1 - node_hops);
      auto seq = static_cast<std::uint16_t>(seq_tlv->as_u32());
      accept(path.addrs[i], seq, dist);
    }
  }
}

void ReHandler::send_rrep(const ev::Event& rreq_event,
                          core::ProtocolContext& ctx, bool bump_seq) {
  const pbb::Message& rreq = *rreq_event.msg();
  DymoState& st = ctx.state_as<DymoState>();
  ev::Event out(ev::etype("RM_OUT"));
  out.set_msg(rm::build_rrep(ctx.self(),
                             bump_seq ? st.bump_seq() : st.own_seq(),
                             *rreq.originator, params_.rreq_hop_limit));
  // Unicast back along the (just learned) reverse route.
  out.set_int(kUnicastTo, rreq_event.from);
  if (rrep_sent_ == nullptr) {
    rrep_sent_ = &ctx.metrics().counter("dymo.rrep_sent");
  }
  rrep_sent_->inc();
  ctx.emit(std::move(out));
}

void ReHandler::on_duplicate_rreq_at_target(const ev::Event&,
                                            core::ProtocolContext&) {}
void ReHandler::on_duplicate_rreq(const ev::Event&, core::ProtocolContext&) {}

bool ReHandler::should_relay_rreq(const ev::Event&, core::ProtocolContext&) {
  return true;
}

void ReHandler::on_rrep_at_origin(const ev::Event& event,
                                  core::ProtocolContext& ctx) {
  net::Addr dest = *event.msg()->originator;
  ctx.state_as<DymoState>().pending().finish(dest);
  if (auto* s = ctx.soft()) s->drop(dymo_sets::kPending, dest);
}

void ReHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  if (rm_in_ == nullptr) rm_in_ = &ctx.metrics().counter("dymo.rm_in");
  rm_in_->inc();
  if (!event.has_msg()) return;
  const pbb::Message& msg = *event.msg();
  if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
  if (*msg.originator == ctx.self()) return;

  learn(event, ctx);

  DymoState& st = ctx.state_as<DymoState>();
  net::Addr target = rm::target(msg);
  if (target == net::kNoAddr) return;

  if (rm::kind(msg) == rm::Kind::kRreq) {
    bool dup = st.check_duplicate(*msg.originator, *msg.seqnum, ctx.now());
    if (auto* s = ctx.soft()) {
      s->touch(dymo_sets::kDuplicate, dymo_dup_key(*msg.originator, *msg.seqnum));
    }
    if (target == ctx.self()) {
      if (dup) {
        on_duplicate_rreq_at_target(event, ctx);
      } else {
        send_rrep(event, ctx);
      }
      return;
    }
    if (dup) {
      on_duplicate_rreq(event, ctx);
      return;
    }
    if (msg.hop_limit <= 1) return;
    if (!should_relay_rreq(event, ctx)) return;
    // Path accumulation + rebroadcast.
    ev::Event out(ev::etype("RM_OUT"));
    pbb::Message& fwd = out.set_msg(msg);
    fwd.hop_limit -= 1;
    fwd.hop_count += 1;
    rm::append_self(fwd, ctx.self(), st.own_seq());
    ctx.emit(std::move(out));
    return;
  }

  // RREP
  if (target == ctx.self()) {
    on_rrep_at_origin(event, ctx);
    return;
  }
  auto route = st.route_to(target);
  if (!route || !route->valid || route->active() == nullptr) {
    MK_TRACE("dymo", "cannot forward RREP toward ",
             pbb::addr_to_string(target));
    return;
  }
  if (msg.hop_limit <= 1) return;
  ev::Event out(ev::etype("RM_OUT"));
  pbb::Message& fwd = out.set_msg(msg);
  fwd.hop_limit -= 1;
  fwd.hop_count += 1;
  rm::append_self(fwd, ctx.self(), st.own_seq());
  out.set_int(kUnicastTo, route->active()->next_hop);
  ctx.emit(std::move(out));
}

// --------------------------------------------------- RouteInvalidationHandler

RouteInvalidationHandler::RouteInvalidationHandler(DymoParams params)
    : RouteInvalidationHandler("dymo.RouteInvalidationHandler", params) {}

RouteInvalidationHandler::RouteInvalidationHandler(std::string type_name,
                                                   DymoParams params)
    : core::EventHandler(std::move(type_name),
                         {ev::types::SEND_ROUTE_ERR, ev::types::NHOOD_CHANGE}),
      params_(params) {
  set_instance_name("RouteErrHandler");
}

std::vector<std::pair<net::Addr, std::uint16_t>>
RouteInvalidationHandler::fail_via(net::Addr hop, core::ProtocolContext& ctx) {
  DymoState& st = ctx.state_as<DymoState>();
  auto unreachable = st.invalidate_via(hop);
  for (const auto& [dest, _] : unreachable) {
    ctx.remove_route(dest);
  }
  return unreachable;
}

void RouteInvalidationHandler::broadcast_rerr(
    const std::vector<std::pair<net::Addr, std::uint16_t>>& unreachable,
    core::ProtocolContext& ctx) {
  if (unreachable.empty()) return;
  ev::Event e(ev::etype("RERR_OUT"));
  e.set_msg(rm::build_rerr(ctx.self(), rerr_seq_++, unreachable,
                           params_.rerr_hop_limit));
  ctx.metrics().counter("dymo.rerr_out").inc();
  ctx.emit(std::move(e));
}

void RouteInvalidationHandler::handle(const ev::Event& event,
                                      core::ProtocolContext& ctx) {
  net::Addr hop = net::kNoAddr;
  if (event.type() == ev::etype(ev::types::SEND_ROUTE_ERR)) {
    hop = static_cast<net::Addr>(event.get_int(kNextHop));
  } else {  // NHOOD_CHANGE
    if (event.get_int(kUp, 1) != 0) return;  // only link breaks matter
    hop = static_cast<net::Addr>(event.get_int(kNeighbor));
  }
  if (hop == net::kNoAddr) return;
  broadcast_rerr(fail_via(hop, ctx), ctx);
}

// ----------------------------------------------------------- other handlers

NoRouteHandler::NoRouteHandler(DymoParams params)
    : NoRouteHandler("dymo.NoRouteHandler", params) {}

NoRouteHandler::NoRouteHandler(std::string type_name, DymoParams params)
    : core::EventHandler(std::move(type_name), {ev::types::NO_ROUTE}),
      params_(params) {
  set_instance_name("NoRouteHandler");
}

bool NoRouteHandler::try_local_knowledge(net::Addr, core::ProtocolContext&) {
  return false;  // plain DYMO has no proactive knowledge
}

void NoRouteHandler::handle(const ev::Event& event,
                            core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.get_int(kDest));
  if (dest == net::kNoAddr) return;
  DymoState& st = ctx.state_as<DymoState>();
  auto route = st.route_to(dest);
  if (route && route->valid) {
    // Route already known (e.g. learned since the packet was buffered).
    dymo_emit_route_found(ctx, dest);
    return;
  }
  if (try_local_knowledge(dest, ctx)) return;
  if (st.pending().has(dest)) return;  // discovery already in flight
  st.pending().start(dest, params_.rreq_wait);
  if (auto* s = ctx.soft()) {
    s->touch_at(dymo_sets::kPending, dest, ctx.now() + params_.rreq_wait);
  }
  ctx.metrics().counter("dymo.discoveries").inc();
  dymo_send_rreq(ctx, dest, params_);
}

RouteUpdateHandler::RouteUpdateHandler(DymoParams params)
    : core::EventHandler("dymo.RouteUpdateHandler", {ev::types::ROUTE_UPDATE}),
      params_(params) {
  set_instance_name("RouteUpdateHandler");
}

void RouteUpdateHandler::handle(const ev::Event& event,
                                core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.get_int(kDest));
  DymoState& st = ctx.state_as<DymoState>();
  st.extend_lifetime(dest, ctx.now(), params_.route_lifetime);
  if (auto r = st.route_to(dest)) {
    if (auto* s = ctx.soft()) s->touch_at(dymo_sets::kRoute, dest, r->expires);
  }
}

RerrHandler::RerrHandler(DymoParams params)
    : core::EventHandler("dymo.RerrHandler", {"RERR_IN"}), params_(params) {
  set_instance_name("RerrHandler");
}

void RerrHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  ctx.metrics().counter("dymo.rerr_in").inc();
  if (!event.has_msg() || !event.msg()->originator || !event.msg()->seqnum) {
    return;
  }
  const pbb::Message& msg = *event.msg();
  DymoState& st = ctx.state_as<DymoState>();
  bool dup = st.check_duplicate(*msg.originator, *msg.seqnum, ctx.now());
  if (auto* s = ctx.soft()) {
    s->touch(dymo_sets::kDuplicate, dymo_dup_key(*msg.originator, *msg.seqnum));
  }
  if (dup) return;

  std::vector<std::pair<net::Addr, std::uint16_t>> still_unreachable;
  for (const auto& block : msg.addr_blocks) {
    for (std::size_t i = 0; i < block.addrs.size(); ++i) {
      net::Addr dest = block.addrs[i];
      auto route = st.route_to(dest);
      if (!route || !route->valid || route->active() == nullptr) continue;
      if (route->active()->next_hop != event.from) continue;
      if (auto seq = st.invalidate(dest)) {
        ctx.remove_route(dest);
        still_unreachable.emplace_back(dest, *seq);
      }
    }
  }
  if (!still_unreachable.empty() && msg.has_hops && msg.hop_limit > 1) {
    ev::Event out(ev::etype("RERR_OUT"));
    out.set_msg(rm::build_rerr(ctx.self(), *msg.seqnum, still_unreachable,
                               static_cast<std::uint8_t>(msg.hop_limit - 1)));
    ctx.emit(std::move(out));
  }
}

// -------------------------------------------------------------------- builder

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit,
                                                     DymoParams params) {
  kit.deploy("neighbor");
  kit.system().ensure_netlink();
  kit.system().register_message(wire::kMsgDymoRm, "RM");
  kit.system().register_message(wire::kMsgDymoRerr, "RERR");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      kit.kernel(), "dymo", kit.scheduler(), kit.self(),
      &kit.system().sys_state());

  cf->set_state(std::make_unique<DymoState>());

  // Routes, pending discoveries (RREQ retry backoff) and the RM duplicate
  // set all live in the shared soft-state layer (set ids fixed by
  // definition order — see dymo_sets): each entry's deadline is armed
  // per-entry, so a route lapses — and its kernel entry goes — at its exact
  // lifetime, and RREQ retries fire at their exact backoff deadline.
  auto soft = std::make_unique<core::SoftExpiry>();
  soft->define_set(
      "dymo.route", params.route_lifetime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        auto dest = static_cast<net::Addr>(key);
        if (ctx.state_as<DymoState>().drop_route(dest)) {
          ctx.remove_route(dest);
        }
      },
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        for (const auto& [dest, _] : ctx.state_as<DymoState>().all_routes()) {
          keys.push_back(dest);
        }
        return keys;
      });
  soft->define_set(
      "dymo.pending", params.rreq_wait,
      [params](std::uint64_t key, core::ProtocolContext& ctx) {
        DymoState& st = ctx.state_as<DymoState>();
        auto dest = static_cast<net::Addr>(key);
        bool had = st.pending().has(dest);
        if (auto next = st.pending().retry(dest, ctx.now())) {
          dymo_send_rreq(ctx, dest, params);
          if (auto* s = ctx.soft()) {
            s->touch_at(dymo_sets::kPending, dest, *next);
          }
        } else if (had) {
          MK_DEBUG("dymo", "discovery for ", pbb::addr_to_string(dest),
                   " gave up after ", int{DymoState::kMaxTries}, " tries");
        }
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<DymoState>().pending().dests());
      });
  soft->define_set(
      "dymo.duplicate", params.duplicate_hold,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        ctx.state_as<DymoState>().drop_duplicate(
            static_cast<net::Addr>(key >> 16),
            static_cast<std::uint16_t>(key & 0xFFFF));
      },
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        for (const auto& [origin, seq] :
             ctx.state_as<DymoState>().duplicate_entries()) {
          keys.push_back(dymo_dup_key(origin, seq));
        }
        return keys;
      });
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<ReHandler>(params));
  cf->add_handler(std::make_unique<NoRouteHandler>(params));
  cf->add_handler(std::make_unique<RouteUpdateHandler>(params));
  cf->add_handler(std::make_unique<RouteInvalidationHandler>(params));
  cf->add_handler(std::make_unique<RerrHandler>(params));

  cf->declare_events(
      /*required=*/{"RM_IN", "RERR_IN", ev::types::NO_ROUTE,
                    ev::types::ROUTE_UPDATE, ev::types::SEND_ROUTE_ERR,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{"RM_OUT", "RERR_OUT", ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_dymo(core::Manetkit& kit, DymoParams params) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol(
      "dymo", /*layer=*/20,
      [params](core::Manetkit& k) { return build_dymo_cf(k, params); },
      /*category=*/"reactive");
}

DymoState* dymo_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<DymoState*>(cf.state_component());
}

void dymo_discover(core::ManetProtocolCf& cf, net::Addr target,
                   DymoParams params) {
  auto lock = cf.quiesce();
  auto& ctx = cf.context();
  DymoState& st = ctx.state_as<DymoState>();
  if (st.pending().has(target)) return;
  st.pending().start(target, params.rreq_wait);
  if (auto* soft = ctx.soft()) {
    soft->touch_at(dymo_sets::kPending, target, ctx.now() + params.rreq_wait);
  }
  dymo_send_rreq(ctx, target, params);
}

}  // namespace mk::proto
