#include "protocols/aodv/aodv_cf.hpp"

#include "core/soft_state.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "protocols/wire.hpp"
#include "util/bytebuffer.hpp"

namespace mk::proto {

namespace {


pbb::Message build_rreq(AodvState& st, net::Addr self, net::Addr target) {
  pbb::Message m;
  m.type = wire::kMsgAodvRreq;
  m.originator = self;
  m.seqnum = st.bump_seq();
  m.has_hops = true;
  m.hop_limit = kAodvNetDiameter;
  m.hop_count = 0;
  m.tlvs.push_back(pbb::Tlv::u32(wire::kTlvRreqId, st.next_rreq_id()));
  pbb::AddressBlock block;
  auto known = st.route_to(target);
  if (known && known->seq_valid) {
    block.add_with_u32(target, wire::kAtlvSeqnum, known->dest_seq);
  } else {
    block.addrs.push_back(target);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

pbb::Message build_rrep(net::Addr dest, std::uint16_t dest_seq,
                        net::Addr rreq_origin, std::uint8_t initial_hops) {
  pbb::Message m;
  m.type = wire::kMsgAodvRrep;
  m.originator = dest;
  m.seqnum = dest_seq;
  m.has_hops = true;
  m.hop_limit = kAodvNetDiameter;
  m.hop_count = initial_hops;
  pbb::AddressBlock block;
  block.addrs.push_back(rreq_origin);
  m.addr_blocks.push_back(std::move(block));
  return m;
}

pbb::Message build_rerr(const Unreachable& unreachable) {
  pbb::Message m;
  m.type = wire::kMsgAodvRerr;
  m.has_hops = true;
  m.hop_limit = 1;  // RFC 3561: RERRs travel hop-by-hop via precursors
  m.hop_count = 0;
  pbb::AddressBlock block;
  for (const auto& [dest, seq] : unreachable) {
    block.add_with_u32(dest, wire::kAtlvSeqnum, seq);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

/// AODV's binding to the reactive core: every message kind leaves through
/// AODV_OUT.
ReactiveProtocol aodv_reactive() {
  ReactiveProtocol p;
  p.name = "aodv";
  p.route_lifetime = kAodvActiveRouteTimeout;
  p.rreq_wait = kAodvRreqWait;
  const ev::EventTypeId aodv_out = ev::etype(ev::types::AODV_OUT);
  p.send_rreq = [aodv_out](core::ProtocolContext& ctx, net::Addr target) {
    ev::Event e(aodv_out);
    e.set_msg(build_rreq(ctx.state_as<AodvState>(), ctx.self(), target));
    ctx.emit(std::move(e));
  };
  p.build_rerr = [aodv_out](core::ProtocolContext&,
                            const Unreachable& unreachable) {
    ev::Event e(aodv_out);
    e.set_msg(build_rerr(unreachable));
    return e;
  };
  return p;
}

/// RREQ / RREP / RERR processing, demultiplexed on the PacketBB type.
class AodvHandler final : public core::EventHandler {
 public:
  AodvHandler() : core::EventHandler("AodvHandler", {ev::types::AODV_IN}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (msgs_in_ == nullptr) {
      msgs_in_ = &ctx.metrics().counter("aodv.msgs_in");
    }
    msgs_in_->inc();
    if (!event.has_msg()) return;
    switch (event.msg()->type) {
      case wire::kMsgAodvRreq:
        on_rreq(event, ctx);
        break;
      case wire::kMsgAodvRrep:
        on_rrep(event, ctx);
        break;
      case wire::kMsgAodvRerr:
        on_rerr(event, ctx);
        break;
      default:
        break;
    }
  }

 private:
  obs::Counter* msgs_in_ = nullptr;  // cached: interned once, then atomic inc
  const ev::EventTypeId aodv_out_ = ev::etype(ev::types::AODV_OUT);

  void learn(core::ProtocolContext& ctx, net::Addr dest, std::uint16_t seq,
             bool seq_valid, net::Addr next_hop, std::uint8_t hops) {
    if (dest == ctx.self()) return;
    route_learned(ctx, dest, next_hop, hops,
                  ctx.state_as<AodvState>().update_route(
                      dest, seq, seq_valid, next_hop, hops, ctx.now(),
                      kAodvActiveRouteTimeout));
  }

  void on_rreq(const ev::Event& event, core::ProtocolContext& ctx) {
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
    if (*msg.originator == ctx.self()) return;
    const auto* id_tlv = msg.find_tlv(wire::kTlvRreqId);
    if (id_tlv == nullptr || msg.addr_blocks.empty() ||
        msg.addr_blocks[0].addrs.empty()) {
      return;
    }
    AodvState& st = ctx.state_as<AodvState>();

    // Reverse route to the originator.
    learn(ctx, *msg.originator, *msg.seqnum, true, event.from,
          static_cast<std::uint8_t>(msg.hop_count + 1));

    // Every sighting refreshes the tuple's holding time.
    bool dup = st.check_rreq_seen(*msg.originator, id_tlv->as_u32(), ctx.now());
    if (auto* s = ctx.soft()) {
      s->touch(aodv_sets::kRreqId,
               aodv_rreq_key(*msg.originator, id_tlv->as_u32()));
    }
    if (dup) return;

    net::Addr target = msg.addr_blocks[0].addrs[0];
    const auto* want_seq = msg.addr_blocks[0].tlv_for(0, wire::kAtlvSeqnum);

    if (target == ctx.self()) {
      // RFC 3561 §6.6.1: our seq must be at least the requested one.
      if (want_seq != nullptr) {
        auto wanted = static_cast<std::uint16_t>(want_seq->as_u32());
        while (static_cast<std::int16_t>(st.own_seq() - wanted) < 0) {
          st.bump_seq();
        }
      }
      st.bump_seq();
      ev::Event out(aodv_out_);
      out.set_msg(build_rrep(ctx.self(), st.own_seq(), *msg.originator, 0));
      out.set_attr(ev::IntAttr::unicast_to, event.from);
      ctx.emit(std::move(out));
      return;
    }

    // Intermediate reply: answer from our own table when fresh enough.
    auto route = st.route_to(target);
    if (route && route->valid && route->seq_valid && want_seq != nullptr &&
        static_cast<std::int16_t>(
            route->dest_seq -
            static_cast<std::uint16_t>(want_seq->as_u32())) >= 0) {
      st.add_precursor(target, event.from);
      ev::Event out(aodv_out_);
      out.set_msg(build_rrep(target, route->dest_seq, *msg.originator,
                             route->hops));
      out.set_attr(ev::IntAttr::unicast_to, event.from);
      ctx.emit(std::move(out));
      return;
    }

    if (msg.hop_limit <= 1) return;
    ev::Event out(aodv_out_);
    pbb::Message& fwd = out.acquire_msg() = msg;  // pooled, no deep copy
    fwd.hop_limit -= 1;
    fwd.hop_count += 1;
    ctx.emit(std::move(out));
  }

  void on_rrep(const ev::Event& event, core::ProtocolContext& ctx) {
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
    if (msg.addr_blocks.empty() || msg.addr_blocks[0].addrs.empty()) return;

    // Forward route to the destination that answered.
    learn(ctx, *msg.originator, *msg.seqnum, true, event.from,
          static_cast<std::uint8_t>(msg.hop_count + 1));

    net::Addr rreq_origin = msg.addr_blocks[0].addrs[0];
    if (rreq_origin == ctx.self()) return;  // discovery complete

    AodvState& st = ctx.state_as<AodvState>();
    auto reverse = st.route_to(rreq_origin);
    if (!reverse || !reverse->valid) return;
    st.add_precursor(*msg.originator, reverse->next_hop);
    st.add_precursor(rreq_origin, event.from);

    if (msg.hop_limit <= 1) return;
    ev::Event out(aodv_out_);
    pbb::Message& fwd = out.acquire_msg() = msg;  // pooled, no deep copy
    fwd.hop_limit -= 1;
    fwd.hop_count += 1;
    out.set_attr(ev::IntAttr::unicast_to, reverse->next_hop);
    ctx.emit(std::move(out));
  }

  void on_rerr(const ev::Event& event, core::ProtocolContext& ctx) {
    Unreachable propagate = invalidate_reported(ctx, *event.msg(), event.from);
    if (!propagate.empty()) {
      ev::Event out(aodv_out_);
      out.set_msg(build_rerr(propagate));
      ctx.emit(std::move(out));
    }
  }
};

/// The §4.3 piggybacking example: advertise a few routing-table entries in
/// each HELLO so neighbours learn routes without discovery. The hooks look
/// up the live AODV CF when they run: they do nothing while AODV is not
/// deployed, and a redeployment replaces them.
void set_route_piggyback(core::Manetkit& kit, NeighborTable& table) {
  static constexpr std::size_t kMaxAdvertised = 5;
  core::Manetkit* k = &kit;
  table.set_piggyback(
      "aodv",
      [k]() -> std::optional<pbb::Tlv> {
        core::ManetProtocolCf* proto = k->protocol("aodv");
        AodvState* st = proto == nullptr ? nullptr : aodv_state(*proto);
        if (st == nullptr || st->route_count() == 0) return std::nullopt;
        ByteWriter w;
        std::size_t n = 0;
        for (const auto& [dest, r] : st->all_routes()) {
          if (n >= kMaxAdvertised) break;
          if (!r.valid) continue;
          w.put_u32(dest);
          w.put_u32(r.next_hop);  // split horizon: receivers skip routes via themselves
          w.put_u16(r.dest_seq);
          w.put_u8(r.hops);
          ++n;
        }
        if (n == 0) return std::nullopt;
        return pbb::Tlv{wire::kTlvPiggyback, w.take()};
      },
      [k](net::Addr from, const pbb::Tlv& tlv) {
        if (tlv.type != wire::kTlvPiggyback) return;
        core::ManetProtocolCf* proto = k->protocol("aodv");
        AodvState* st = proto == nullptr ? nullptr : aodv_state(*proto);
        if (st == nullptr) return;
        auto& ctx = proto->context();
        ByteReader r(tlv.value);
        try {
          while (r.remaining() >= 11) {
            net::Addr dest = r.get_u32();
            net::Addr via = r.get_u32();
            std::uint16_t seq = r.get_u16();
            std::uint8_t hops = r.get_u8();
            if (dest == ctx.self()) continue;
            // Split horizon: the advertised route runs through us — using
            // it back through the advertiser would form a 2-node loop.
            if (via == ctx.self()) continue;
            const auto dist = static_cast<std::uint8_t>(hops + 1);
            const RouteUpdate update = st->update_route(
                dest, seq, true, from, dist, ctx.now(),
                kAodvActiveRouteTimeout);
            if (update.changed) ctx.set_route(dest, from, dist);
            if (auto* soft = ctx.soft()) {
              soft->touch_at(reactive_sets::kRoute, dest, update.expires);
            }
          }
        } catch (const BufferUnderflow&) {
          // malformed advert from a buggy neighbour: ignore
        }
      });
}

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_aodv_cf(core::Manetkit& kit) {
  core::ManetProtocolCf* neighbor = kit.deploy("neighbor");
  kit.system().ensure_netlink();
  kit.system().register_message(wire::kMsgAodvRreq, "AODV");
  kit.system().register_message(wire::kMsgAodvRrep, "AODV");
  kit.system().register_message(wire::kMsgAodvRerr, "AODV");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "aodv", kit.scheduler(), kit.self(), &kit.system().sys_state());

  cf->set_state(std::make_unique<AodvState>());

  // Per-entry soft-state expiry (set ids fixed by definition order — see
  // reactive_sets, aodv_sets). Routes get RFC 3561's two-phase treatment:
  // the route loss fn invalidates a lapsed valid entry and re-arms it for
  // DELETE_PERIOD (seqnum memory), then lets the second lapse delete it.
  const ReactiveProtocol reactive = aodv_reactive();
  auto soft = std::make_unique<core::SoftExpiry>();
  define_route_set(
      *soft, reactive, [](std::uint64_t key, core::ProtocolContext& ctx) {
        AodvState& st = ctx.state_as<AodvState>();
        auto dest = static_cast<net::Addr>(key);
        bool invalidated = false;
        auto next = st.lapse_route(dest, ctx.now(), invalidated);
        if (invalidated) ctx.remove_route(dest);
        if (next) {
          if (auto* s = ctx.soft()) {
            s->touch_at(reactive_sets::kRoute, dest, *next);
          }
        }
      });
  define_pending_set(*soft, reactive);
  soft->define_set(
      "aodv.rreq_id", kAodvPathDiscoveryTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        ctx.state_as<AodvState>().drop_rreq_seen(
            static_cast<net::Addr>(key >> 24),
            static_cast<std::uint32_t>(key & 0xFFFFFF));
      },
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        for (const auto& [origin, id] :
             ctx.state_as<AodvState>().rreq_seen_entries()) {
          keys.push_back(aodv_rreq_key(origin, id));
        }
        return keys;
      });
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<AodvHandler>());
  cf->add_handler(std::make_unique<NoRouteHandler>(reactive));
  cf->add_handler(std::make_unique<RouteUpdateHandler>(reactive));
  cf->add_handler(
      std::make_unique<LinkBreakHandler>(reactive, "InvalidationHandler"));

  // Routes are advertised in HELLOs.
  if (auto* table = dynamic_cast<NeighborTable*>(neighbor->state_component())) {
    set_route_piggyback(kit, *table);
  }

  cf->declare_events(
      /*required=*/{ev::types::AODV_IN, ev::types::NO_ROUTE,
                    ev::types::ROUTE_UPDATE, ev::types::SEND_ROUTE_ERR,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{ev::types::AODV_OUT, ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_aodv(core::Manetkit& kit) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol("aodv", /*layer=*/20, build_aodv_cf,
                        /*category=*/"reactive");
}

AodvState* aodv_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<AodvState*>(cf.state_component());
}

}  // namespace mk::proto
