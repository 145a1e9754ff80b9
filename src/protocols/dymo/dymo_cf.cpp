#include "protocols/dymo/dymo_cf.hpp"

#include "protocols/neighbor/neighbor_cf.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {


}  // namespace

ReactiveProtocol dymo_reactive() {
  ReactiveProtocol p;
  p.name = "dymo";
  p.route_lifetime = kDymoRouteTimeout;
  p.rreq_wait = kDymoRreqWaitTime;
  p.send_rreq = [rm_out = ev::etype("RM_OUT")](core::ProtocolContext& ctx,
                                               net::Addr target) {
    DymoState& st = ctx.state_as<DymoState>();
    ev::Event e(rm_out);
    e.set_msg(
        rm::build_rreq(ctx.self(), st.bump_seq(), target, kDymoMsgHopLimit));
    ctx.emit(std::move(e));
  };
  p.build_rerr = [rerr_out = ev::etype("RERR_OUT")](
                     core::ProtocolContext& ctx,
                     const Unreachable& unreachable) {
    ev::Event e(rerr_out);
    e.set_msg(rm::build_rerr(ctx.self(),
                             ctx.state_as<DymoState>().next_rerr_seq(),
                             unreachable, kDymoRerrHopLimit));
    return e;
  };
  return p;
}

// ------------------------------------------------------------------ RM codec

namespace rm {

namespace {

/// RREQ and RREP share one layout: kind TLV, the target block, and the
/// (initially empty) path-accumulation block.
pbb::Message build_rm(Kind kind, net::Addr self, std::uint16_t own_seq,
                      net::Addr target, std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRm;
  m.originator = self;
  m.seqnum = own_seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  m.tlvs.push_back(
      pbb::Tlv::u8(wire::kTlvRmKind, static_cast<std::uint8_t>(kind)));
  pbb::AddressBlock target_block;
  target_block.addrs.push_back(target);
  m.addr_blocks.push_back(std::move(target_block));
  m.addr_blocks.emplace_back();  // path-accumulation block
  return m;
}

}  // namespace

pbb::Message build_rreq(net::Addr self, std::uint16_t own_seq, net::Addr target,
                        std::uint8_t hop_limit) {
  return build_rm(Kind::kRreq, self, own_seq, target, hop_limit);
}

pbb::Message build_rrep(net::Addr self, std::uint16_t own_seq,
                        net::Addr rreq_origin, std::uint8_t hop_limit) {
  return build_rm(Kind::kRrep, self, own_seq, rreq_origin, hop_limit);
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

ReHandler::ReHandler()
    : core::EventHandler("ReHandler", {"RM_IN"}),
      rm_out_(ev::etype("RM_OUT")) {}

void ReHandler::learn(const ev::Event& event, core::ProtocolContext& ctx) {
  const pbb::Message& msg = *event.msg();
  DymoState& st = ctx.state_as<DymoState>();
  TimePoint now = ctx.now();

  auto accept = [&](net::Addr dest, std::uint16_t seq, std::uint8_t hops) {
    if (dest == ctx.self()) return;
    route_learned(ctx, dest, event.from, hops,
                  st.update_route(dest, seq, event.from, hops, now,
                                  kDymoRouteTimeout));
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
  ev::Event out(rm_out_);
  out.set_msg(rm::build_rrep(ctx.self(),
                             bump_seq ? st.bump_seq() : st.own_seq(),
                             *rreq.originator, kDymoMsgHopLimit));
  // Unicast back along the (just learned) reverse route.
  out.set_attr(ev::IntAttr::unicast_to, rreq_event.from);
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
  finish_discovery(ctx, *event.msg()->originator);
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

  net::Addr unicast_to = net::kNoAddr;  // RREQs are rebroadcast
  if (rm::kind(msg) == rm::Kind::kRreq) {
    auto key = dymo_dup_key(DupKind::kRreq, *msg.originator, *msg.seqnum);
    bool dup = st.check_duplicate(key, ctx.now());
    if (auto* s = ctx.soft()) s->touch(dymo_sets::kDuplicate, key);
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
  } else {  // RREP: unicast on toward the RREQ originator
    if (target == ctx.self()) {
      on_rrep_at_origin(event, ctx);
      return;
    }
    auto route = st.find_route(target);
    if (!route || !route->valid) {
      MK_TRACE("dymo", "cannot forward RREP toward ",
               pbb::addr_to_string(target));
      return;
    }
    if (msg.hop_limit <= 1) return;
    unicast_to = route->next_hop;
  }
  // Path accumulation + relay: copy-assign into a pooled message, whose
  // warm vectors absorb the copy without allocating.
  ev::Event out(rm_out_);
  pbb::Message& fwd = out.acquire_msg() = msg;
  fwd.hop_limit -= 1;
  fwd.hop_count += 1;
  rm::append_self(fwd, ctx.self(), st.own_seq());
  if (unicast_to != net::kNoAddr) {
    out.set_attr(ev::IntAttr::unicast_to, unicast_to);
  }
  ctx.emit(std::move(out));
}

// ---------------------------------------------------------------- RerrHandler

RerrHandler::RerrHandler()
    : core::EventHandler("RerrHandler", {"RERR_IN"}),
      rerr_out_(ev::etype("RERR_OUT")) {}

void RerrHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  if (rerr_in_ == nullptr) rerr_in_ = &ctx.metrics().counter("dymo.rerr_in");
  rerr_in_->inc();
  if (!event.has_msg() || !event.msg()->originator || !event.msg()->seqnum) {
    return;
  }
  const pbb::Message& msg = *event.msg();
  DymoState& st = ctx.state_as<DymoState>();
  auto key = dymo_dup_key(DupKind::kRerr, *msg.originator, *msg.seqnum);
  bool dup = st.check_duplicate(key, ctx.now());
  if (auto* s = ctx.soft()) s->touch(dymo_sets::kDuplicate, key);
  if (dup) return;

  Unreachable still_unreachable = invalidate_reported(ctx, msg, event.from);
  if (!still_unreachable.empty() && msg.has_hops && msg.hop_limit > 1) {
    ev::Event out(rerr_out_);
    out.set_msg(rm::build_rerr(ctx.self(), st.next_rerr_seq(),
                               still_unreachable,
                               static_cast<std::uint8_t>(msg.hop_limit - 1)));
    ctx.emit(std::move(out));
  }
}

// -------------------------------------------------------------------- builder

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit) {
  kit.deploy("neighbor");
  kit.system().ensure_netlink();
  kit.system().register_message(wire::kMsgDymoRm, "RM");
  kit.system().register_message(wire::kMsgDymoRerr, "RERR");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "dymo", kit.scheduler(), kit.self(), &kit.system().sys_state());

  cf->set_state(std::make_unique<DymoState>());

  // Routes, pending discoveries (RREQ retry backoff) and the RM duplicate
  // set all live in the shared soft-state layer (set ids fixed by
  // definition order — see reactive_sets, dymo_sets): each entry's deadline
  // is armed per-entry, so a route lapses — and its kernel entry goes — at
  // its exact lifetime, and RREQ retries fire at their exact backoff
  // deadline.
  const ReactiveProtocol reactive = dymo_reactive();
  auto soft = std::make_unique<core::SoftExpiry>();
  define_route_set(*soft, reactive,
                   [](std::uint64_t key, core::ProtocolContext& ctx) {
                     auto dest = static_cast<net::Addr>(key);
                     if (ctx.state_as<DymoState>().drop_route(dest)) {
                       ctx.remove_route(dest);
                     }
                   });
  define_pending_set(*soft, reactive);
  soft->define_set(
      "dymo.duplicate", kDymoDupHoldTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        ctx.state_as<DymoState>().drop_duplicate(key);
      },
      [](core::ProtocolContext& ctx) {
        return ctx.state_as<DymoState>().duplicate_entries();
      });
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<ReHandler>());
  cf->add_handler(std::make_unique<NoRouteHandler>(reactive));
  cf->add_handler(std::make_unique<RouteUpdateHandler>(reactive));
  cf->add_handler(
      std::make_unique<LinkBreakHandler>(reactive, "RouteErrHandler"));
  cf->add_handler(std::make_unique<RerrHandler>());

  cf->declare_events(
      /*required=*/{"RM_IN", "RERR_IN", ev::types::NO_ROUTE,
                    ev::types::ROUTE_UPDATE, ev::types::SEND_ROUTE_ERR,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{"RM_OUT", "RERR_OUT", ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_dymo(core::Manetkit& kit) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol("dymo", /*layer=*/20, build_dymo_cf,
                        /*category=*/"reactive");
}

DymoState* dymo_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<DymoState*>(cf.state_component());
}

}  // namespace mk::proto
