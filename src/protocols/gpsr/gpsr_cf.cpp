#include "protocols/gpsr/gpsr_cf.hpp"

#include <cmath>
#include <sstream>

#include "protocols/neighbor/neighbor_cf.hpp"
#include "protocols/wire.hpp"
#include "util/assert.hpp"
#include "util/bytebuffer.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

constexpr std::uint8_t kTlvPosition = 12;  // 2 x u32 fixed-point (cm)


double dist(net::Position a, net::Position b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

pbb::Tlv encode_position(net::Position p) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(p.x * 100.0 + 0.5));
  w.put_u32(static_cast<std::uint32_t>(p.y * 100.0 + 0.5));
  return pbb::Tlv{kTlvPosition, w.take()};
}

std::optional<net::Position> decode_position(const pbb::Tlv& tlv) {
  if (tlv.type != kTlvPosition || tlv.value.size() != 8) return std::nullopt;
  ByteReader r(tlv.value);
  net::Position p;
  p.x = static_cast<double>(r.get_u32()) / 100.0;
  p.y = static_cast<double>(r.get_u32()) / 100.0;
  return p;
}

/// Position beaconing on the Neighbour Detection CF's HELLOs. The hooks
/// look up the live GPSR CF when they run: they do nothing while GPSR is not
/// deployed, and a redeployment replaces them.
void set_position_beacon(core::Manetkit& kit, NeighborTable& table) {
  core::Manetkit* k = &kit;
  table.set_piggyback(
      "gpsr",
      [k]() -> std::optional<pbb::Tlv> {
        if (k->protocol("gpsr") == nullptr) return std::nullopt;
        return encode_position(k->node().position());
      },
      [k](net::Addr from, const pbb::Tlv& tlv) {
        core::ManetProtocolCf* proto = k->protocol("gpsr");
        if (proto == nullptr) return;
        auto pos = decode_position(tlv);
        if (!pos) return;
        auto* st = dynamic_cast<GpsrState*>(proto->state_component());
        if (st == nullptr) return;
        st->note_position(from, *pos);
        if (auto* soft = proto->context().soft()) {
          soft->touch(gpsr_sets::kPosition, from);
        }
      });
}

/// Computes and installs greedy routes on demand.
class GreedyRouteHandler final : public core::EventHandler {
 public:
  GreedyRouteHandler(LocationService locate, core::Manetkit& kit)
      : core::EventHandler("GreedyRouteHandler", {ev::types::NO_ROUTE}),
        locate_(std::move(locate)),
        kit_(kit),
        neighbors_(kit, "neighbor") {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    auto dest = static_cast<net::Addr>(event.attr(ev::IntAttr::dest));
    if (dest == net::kNoAddr) return;
    if (try_install(dest, ctx)) {
      static const auto kRouteFound = ev::etype(ev::types::ROUTE_FOUND);
      ev::Event found(kRouteFound);
      found.set_attr(ev::IntAttr::dest, dest);
      ctx.emit(std::move(found));
    }
    // On a local minimum the packet stays in the NetLink buffer until the
    // topology changes or the buffer times out (greedy-only semantics).
  }

  /// Greedy step; installs the kernel route on success.
  bool try_install(net::Addr dest, core::ProtocolContext& ctx) {
    auto dest_pos = locate_(dest);
    if (!dest_pos) {
      MK_TRACE("gpsr", "no location for ", pbb::addr_to_string(dest));
      return false;
    }
    NeighborTable* ns = neighbors_.get();
    if (ns == nullptr) return false;

    GpsrState& st = ctx.state_as<GpsrState>();
    net::Addr hop = greedy_next_hop(st, kit_.node().position(), *dest_pos,
                                    ns->sym_neighbors());
    if (dest != net::kNoAddr && ns->is_sym_neighbor(dest)) hop = dest;
    if (hop == net::kNoAddr) return false;

    // Geographic routing has no hop-count estimate: metric 1.
    ctx.set_route(dest, hop, 1);
    TimePoint deadline = ctx.now() + kGpsrRouteLifetime;
    st.active_dests()[dest] = deadline;
    if (auto* soft = ctx.soft()) {
      soft->touch_at(gpsr_sets::kActive, dest, deadline);
    }
    if (greedy_installs_ == nullptr) {
      greedy_installs_ = &ctx.metrics().counter("gpsr.greedy_installs");
    }
    greedy_installs_->inc();
    return true;
  }

 private:
  LocationService locate_;
  core::Manetkit& kit_;
  core::StateRef<NeighborTable> neighbors_;
  obs::Counter* greedy_installs_ = nullptr;  // cached on first use
};

/// Re-evaluates greedy choices for active destinations (mobility!). Stale
/// positions and lapsed active routes are handled per-entry by the CF's
/// soft-state layer; this source only tracks the geometry.
class GpsrMaintenance final : public core::PeriodicSource {
 public:
  explicit GpsrMaintenance(GreedyRouteHandler* greedy)
      : core::PeriodicSource("Maintenance", kGpsrSweepInterval,
                             /*jitter=*/0.0, /*seed_offset=*/9),
        greedy_(greedy) {}

 private:
  void fire(core::ProtocolContext& ctx) override {
    GpsrState& st = ctx.state_as<GpsrState>();
    for (auto& [dest, _] : st.active_dests()) {
      greedy_->try_install(dest, ctx);
    }
  }

  GreedyRouteHandler* greedy_;
};

/// ROUTE_UPDATE keeps a destination "active"; NHOOD_CHANGE(down) tears down
/// routes through the lost neighbour immediately.
class GpsrEventHandler final : public core::EventHandler {
 public:
  GpsrEventHandler()
      : core::EventHandler("EventHandler", {ev::types::ROUTE_UPDATE,
                                            ev::types::NHOOD_CHANGE}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    GpsrState& st = ctx.state_as<GpsrState>();
    core::SoftExpiry* soft = ctx.soft();
    if (event.type() == route_update_) {
      auto dest = static_cast<net::Addr>(event.attr(ev::IntAttr::dest));
      auto it = st.active_dests().find(dest);
      if (it != st.active_dests().end()) {
        it->second = ctx.now() + kGpsrRouteLifetime;
        if (soft != nullptr) {
          soft->touch_at(gpsr_sets::kActive, dest, it->second);
        }
      }
      return;
    }
    if (event.attr(ev::IntAttr::up, 1) != 0) return;
    auto lost = static_cast<net::Addr>(event.attr(ev::IntAttr::neighbor));
    if (ctx.sys() == nullptr) return;
    for (net::Addr dest : ctx.sys()->kernel_table().dests_via(lost)) {
      ctx.remove_route(dest);
      st.active_dests().erase(dest);
      if (soft != nullptr) soft->drop(gpsr_sets::kActive, dest);
      if (torn_down_ == nullptr) {
        torn_down_ = &ctx.metrics().counter("gpsr.routes_torn_down");
      }
      torn_down_->inc();
    }
  }

 private:
  const ev::EventTypeId route_update_ = ev::etype(ev::types::ROUTE_UPDATE);
  obs::Counter* torn_down_ = nullptr;  // cached on first use
};

}  // namespace

// ---------------------------------------------------------------- GpsrState

GpsrState::GpsrState() : oc::Component("State") {}

std::vector<net::Addr> GpsrState::position_addrs() const {
  std::vector<net::Addr> out;
  out.reserve(positions_.size());
  for (const auto& [a, _] : positions_) out.push_back(a);
  return out;
}

std::optional<net::Position> GpsrState::position_of(net::Addr a) const {
  auto it = positions_.find(a);
  if (it == positions_.end()) return std::nullopt;
  return it->second;
}

std::string GpsrState::describe() const {
  std::ostringstream os;
  os << "gpsr positions: " << positions_.size()
     << " active dests: " << active_.size();
  return os.str();
}

net::Addr greedy_next_hop(const IGpsrState& st, net::Position self,
                          net::Position dest,
                          const std::vector<net::Addr>& neighbors) {
  double best = dist(self, dest);
  net::Addr best_hop = net::kNoAddr;
  for (net::Addr n : neighbors) {
    auto pos = st.position_of(n);
    if (!pos) continue;
    double d = dist(*pos, dest);
    if (d < best - 1e-9) {
      best = d;
      best_hop = n;
    }
  }
  return best_hop;
}

// ------------------------------------------------------------------- builder

std::unique_ptr<core::ManetProtocolCf> build_gpsr_cf(core::Manetkit& kit,
                                                     LocationService locate) {
  MK_ASSERT(locate != nullptr, "gpsr needs a location service");
  core::ManetProtocolCf* neighbor = kit.deploy("neighbor");
  kit.system().ensure_netlink();

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "gpsr", kit.scheduler(), kit.self(), &kit.system().sys_state());
  cf->set_state(std::make_unique<GpsrState>());

  // Per-entry soft-state expiry for positions and greedily installed routes
  // (set ids fixed by definition order — see gpsr_sets).
  auto soft = std::make_unique<core::SoftExpiry>();
  soft->define_set(
      "gpsr.position", kGpsrPositionHold,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        ctx.state_as<GpsrState>().drop_position(static_cast<net::Addr>(key));
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<GpsrState>().position_addrs());
      });
  soft->define_set(
      "gpsr.active", kGpsrRouteLifetime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        GpsrState& st = ctx.state_as<GpsrState>();
        auto dest = static_cast<net::Addr>(key);
        auto it = st.active_dests().find(dest);
        if (it == st.active_dests().end()) return;
        st.active_dests().erase(it);
        ctx.remove_route(dest);
      },
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        for (const auto& [dest, _] : ctx.state_as<GpsrState>().active_dests()) {
          keys.push_back(dest);
        }
        return keys;
      });
  cf->add_source(std::move(soft));

  auto greedy = std::make_unique<GreedyRouteHandler>(std::move(locate), kit);
  GreedyRouteHandler* greedy_raw = greedy.get();
  cf->add_handler(std::move(greedy));
  cf->add_handler(std::make_unique<GpsrEventHandler>());
  cf->add_source(std::make_unique<GpsrMaintenance>(greedy_raw));

  if (auto* table = dynamic_cast<NeighborTable*>(neighbor->state_component())) {
    set_position_beacon(kit, *table);
  }

  cf->declare_events(
      /*required=*/{ev::types::NO_ROUTE, ev::types::ROUTE_UPDATE,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_gpsr(core::Manetkit& kit, LocationService locate) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol(
      "gpsr", /*layer=*/20,
      [locate](core::Manetkit& k) { return build_gpsr_cf(k, locate); },
      /*category=*/"reactive");  // owns the NO_ROUTE slot
}

GpsrState* gpsr_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<GpsrState*>(cf.state_component());
}

}  // namespace mk::proto
