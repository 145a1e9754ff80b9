#include "protocols/zrp/zrp_cf.hpp"

#include <algorithm>

#include "protocols/neighbor/neighbor_cf.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

/// Zone lookup against the Neighbour Detection CF's S element:
/// distance 1 -> next hop is the destination; distance 2 -> next hop is a
/// symmetric neighbour reporting it. Returns hops (0 = not in zone).
std::uint8_t zone_route(const NeighborTable* ns, net::Addr dest,
                        net::Addr& next_hop) {
  if (ns == nullptr) return 0;
  if (ns->is_sym_neighbor(dest)) {
    next_hop = dest;
    return 1;
  }
  for (net::Addr n : ns->sym_neighbors()) {
    if (std::ranges::binary_search(ns->two_hop_via(n), dest)) {
      next_hop = n;
      return 2;
    }
  }
  return 0;
}

/// IERP handler: DYMO's RE processing plus bordercast termination — a relay
/// whose zone contains the target answers on its behalf instead of
/// re-flooding the query.
class ZoneReHandler final : public ReHandler {
 public:
  explicit ZoneReHandler(core::Manetkit& kit) : neighbors_(kit, "neighbor") {}

 protected:
  bool should_relay_rreq(const ev::Event& event,
                         core::ProtocolContext& ctx) override {
    net::Addr target = rm::target(*event.msg());
    net::Addr hop = net::kNoAddr;
    std::uint8_t dist = zone_route(neighbors_.get(), target, hop);
    if (dist == 0) return true;  // target beyond our zone: keep flooding

    // Proxy reply: we vouch for the in-zone target. Sequence number 0
    // (unknown) keeps any later authoritative RREP fresher.
    pbb::Message rrep = rm::build_rrep(target, /*own_seq=*/0,
                                       *event.msg()->originator,
                                       kDymoMsgHopLimit);
    rrep.hop_count = dist;  // account for the zone leg we vouch for
    ev::Event out(rm_out_);
    out.set_msg(std::move(rrep));
    out.set_attr(ev::IntAttr::unicast_to, event.from);
    if (proxy_replies_ == nullptr) {
      proxy_replies_ = &ctx.metrics().counter("zrp.proxy_replies");
    }
    proxy_replies_->inc();
    ctx.emit(std::move(out));
    MK_DEBUG("zrp", "bordercast termination: answering for ",
             pbb::addr_to_string(target), " at distance ", int{dist});
    return false;
  }

 private:
  core::StateRef<NeighborTable> neighbors_;
  obs::Counter* proxy_replies_ = nullptr;  // cached on first use
};

/// NO_ROUTE short-circuit: in-zone destinations are served proactively.
class ZoneNoRouteHandler final : public NoRouteHandler {
 public:
  explicit ZoneNoRouteHandler(core::Manetkit& kit)
      : NoRouteHandler(dymo_reactive()), neighbors_(kit, "neighbor") {}

 protected:
  bool try_local_knowledge(net::Addr dest,
                           core::ProtocolContext& ctx) override {
    net::Addr hop = net::kNoAddr;
    std::uint8_t dist = zone_route(neighbors_.get(), dest, hop);
    if (dist == 0) return false;
    ctx.set_route(dest, hop, dist);
    emit_route_found(ctx, dest);
    if (zone_hits_ == nullptr) {
      zone_hits_ = &ctx.metrics().counter("zrp.zone_hits");
    }
    zone_hits_->inc();
    return true;
  }

 private:
  core::StateRef<NeighborTable> neighbors_;
  obs::Counter* zone_hits_ = nullptr;  // cached on first use
};

/// IARP: keeps kernel routes for every zone member installed and fresh.
class ZoneMaintenance final : public core::PeriodicSource {
 public:
  explicit ZoneMaintenance(core::Manetkit& kit)
      : core::PeriodicSource("ZoneMaintenance", kZrpZoneRefresh,
                             /*jitter=*/0.1, /*seed_offset=*/8),
        neighbors_(kit, "neighbor") {}

 private:
  void fire(core::ProtocolContext& ctx) override {
    NeighborTable* ns = neighbors_.get();
    if (ns == nullptr || ctx.sys() == nullptr) return;

    std::set<net::Addr> zone;
    for (net::Addr n : ns->sym_neighbors()) {
      zone.insert(n);
      ctx.set_route(n, n, 1);
    }
    for (net::Addr t : ns->strict_two_hop(ctx.self())) {
      net::Addr hop = net::kNoAddr;
      std::uint8_t dist = zone_route(ns, t, hop);
      if (dist == 0) continue;
      zone.insert(t);
      ctx.set_route(t, hop, dist);
    }
    // Proactive routes that left the zone are withdrawn (unless the
    // reactive side still holds a valid route there).
    DymoState& st = ctx.state_as<DymoState>();
    for (net::Addr dest : installed_) {
      if (zone.count(dest) > 0) continue;
      auto reactive = st.route_to(dest);
      if (reactive && reactive->valid) continue;
      ctx.remove_route(dest);
    }
    installed_ = std::move(zone);
  }

  core::StateRef<NeighborTable> neighbors_;
  std::set<net::Addr> installed_;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_zrp_cf(core::Manetkit& kit) {
  // Reuse the full DYMO composition, then substitute the zone plug-ins —
  // hybridisation as reconfiguration, exactly the paper's pitch.
  auto cf = build_dymo_cf(kit);
  cf->set_unit_name("zrp");
  cf->replace_handler("ReHandler", std::make_unique<ZoneReHandler>(kit));
  cf->replace_handler("NoRouteHandler",
                      std::make_unique<ZoneNoRouteHandler>(kit));
  cf->add_source(std::make_unique<ZoneMaintenance>(kit));
  return cf;
}

void register_zrp(core::Manetkit& kit) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol("zrp", /*layer=*/20, build_zrp_cf,
                        /*category=*/"reactive");
}

}  // namespace mk::proto
