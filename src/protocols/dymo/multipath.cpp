#include "protocols/dymo/multipath.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

/// RE handler mining duplicates for link-disjoint paths.
class MultipathReHandler final : public ReHandler {
 protected:
  /// Duplicate RREQ at the target: answer it too (bounded by kMaxPaths), so
  /// the originator learns one RREP per disjoint approach direction.
  void on_duplicate_rreq_at_target(const ev::Event& event,
                                   core::ProtocolContext& ctx) override {
    MultipathDymoState& st = ctx.state_as<MultipathDymoState>();
    net::Addr orig = *event.msg()->originator;
    // Record the alternate reverse path first, then reply along it.
    bool added = st.add_alternate_path(
        orig, event.from,
        static_cast<std::uint8_t>(event.msg()->hop_count + 1));
    // Reply with the *same* sequence number as the first RREP so the
    // originator treats this as an equal-freshness alternative path.
    if (added) send_rrep(event, ctx, /*bump_seq=*/false);
  }

  /// Duplicate RREQ at an intermediate node: keep the alternate reverse
  /// path, do not rebroadcast (the first copy already did).
  void on_duplicate_rreq(const ev::Event& event,
                         core::ProtocolContext& ctx) override {
    ctx.state_as<MultipathDymoState>().add_alternate_path(
        *event.msg()->originator, event.from,
        static_cast<std::uint8_t>(event.msg()->hop_count + 1));
  }

  /// RREP at the discovery originator: later copies arriving via a different
  /// first hop contribute alternate forward paths.
  void on_rrep_at_origin(const ev::Event& event,
                         core::ProtocolContext& ctx) override {
    MultipathDymoState& st = ctx.state_as<MultipathDymoState>();
    net::Addr dest = *event.msg()->originator;  // the RREP sender == target
    st.add_alternate_path(
        dest, event.from,
        static_cast<std::uint8_t>(event.msg()->hop_count + 1));
    finish_discovery(ctx, dest);
  }
};

/// Route-error handler that fails over before reporting.
class MultipathInvalidationHandler final : public LinkBreakHandler {
 public:
  MultipathInvalidationHandler()
      : LinkBreakHandler(dymo_reactive(), "RouteErrHandler") {}

 protected:
  Unreachable fail_via(net::Addr hop, core::ProtocolContext& ctx) override {
    MultipathDymoState& st = ctx.state_as<MultipathDymoState>();
    Unreachable unreachable;

    // Collect destinations whose *active* path uses the broken hop, then try
    // alternates before declaring them unreachable.
    std::vector<net::Addr> affected;
    st.for_each_route([&](net::Addr dest, const RouteView& r) {
      if (r.valid && r.next_hop == hop) affected.push_back(dest);
    });
    for (net::Addr dest : affected) {
      if (auto alt = st.fail_over(dest)) {
        ctx.set_route(dest, alt->next_hop, alt->hops);
        // Flush anything NetLink buffered meanwhile.
        emit_route_found(ctx, dest);
        MK_DEBUG("dymo", "failed over ", pbb::addr_to_string(dest), " to ",
                 pbb::addr_to_string(alt->next_hop));
      } else {
        auto route = st.route_to(dest);
        ctx.remove_route(dest);
        unreachable.emplace_back(dest, route ? route->seqnum : 0);
      }
    }
    return unreachable;
  }
};

}  // namespace

void apply_multipath_dymo(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "multipath variant requires deployed dymo");
  if (is_multipath_dymo(kit)) return;

  auto lock = dymo->quiesce();

  // 1. S component: new format, state carried over.
  auto* old_state = dymo_state(*dymo);
  MK_ASSERT(old_state != nullptr);
  auto new_state = std::make_unique<MultipathDymoState>(*old_state);
  dymo->set_state(std::move(new_state));

  // 2 & 3. Handler replacements.
  dymo->replace_handler("ReHandler", std::make_unique<MultipathReHandler>());
  dymo->replace_handler("RouteErrHandler",
                        std::make_unique<MultipathInvalidationHandler>());
}

void remove_multipath_dymo(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "dymo not deployed");
  if (!is_multipath_dymo(kit)) return;

  auto lock = dymo->quiesce();
  auto* old_state = dymo_state(*dymo);
  auto new_state = std::make_unique<DymoState>();
  // Carry routes back, truncating each to its active path.
  if (old_state != nullptr) {
    for (const auto& [dest, route] : old_state->all_routes()) {
      if (route.valid && route.active() != nullptr) {
        new_state->update_route(dest, route.seqnum, route.active()->next_hop,
                                route.active()->hops,
                                dymo->context().now(), kDymoRouteTimeout);
      }
    }
  }
  dymo->set_state(std::move(new_state));
  dymo->replace_handler("ReHandler", std::make_unique<ReHandler>());
  dymo->replace_handler(
      "RouteErrHandler",
      std::make_unique<LinkBreakHandler>(dymo_reactive(), "RouteErrHandler"));
}

bool is_multipath_dymo(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  if (dymo == nullptr) return false;
  return dynamic_cast<MultipathDymoState*>(dymo->state_component()) != nullptr;
}

}  // namespace mk::proto
