#include "protocols/neighbor/neighbor_cf.hpp"

#include <memory>
#include <vector>

#include "core/attrs.hpp"
#include "core/soft_state.hpp"
#include "protocols/hello_codec.hpp"
#include "protocols/wire.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mk::proto {

namespace {

using core::attrs::kNeighbor;
using core::attrs::kUp;

void emit_nhood_change(core::ProtocolContext& ctx, net::Addr neighbor, bool up) {
  ev::Event e(ev::types::NHOOD_CHANGE);
  e.set_int(kNeighbor, neighbor);
  e.set_int(kUp, up ? 1 : 0);
  ctx.emit(std::move(e));
}

/// Periodic HELLO emission. Link expiry is per-entry via the shared
/// soft-state layer (see build_neighbor_cf), not swept here.
class HelloSource final : public core::EventSource {
 public:
  explicit HelloSource(NeighborParams params)
      : core::EventSource("neighbor.HelloSource"), params_(params) {
    set_instance_name("HelloSource");
  }

  void start(core::ProtocolContext& ctx) override {
    ctx_ = &ctx;
    timer_ = std::make_unique<PeriodicTimer>(
        ctx.scheduler(), params_.hello_interval, [this] { fire(); },
        /*jitter=*/0.1, /*seed=*/ctx.self());
    timer_->start();
  }

  void stop() override { timer_.reset(); }

 private:
  void fire() {
    NeighborTable& nt = ctx_->state_as<NeighborTable>();
    links_scratch_.clear();
    nt.for_each_neighbor([this](net::Addr a, bool sym) {
      links_scratch_.push_back(
          hello::Link{a, sym ? wire::LinkCode::kSym : wire::LinkCode::kAsym});
    });
    ev::Event e(ev::types::HELLO_OUT);
    pbb::Message& m = e.acquire_msg();
    hello::build_into(m, ctx_->self(), seq_++, links_scratch_,
                      wire::kWillDefault);
    nt.append_piggyback(m.tlvs);
    ctx_->emit(std::move(e));
  }

  NeighborParams params_;
  core::ProtocolContext* ctx_ = nullptr;
  std::unique_ptr<PeriodicTimer> timer_;
  std::uint16_t seq_ = 1;
  std::vector<hello::Link> links_scratch_;  // reused per emission
};

/// Link sensing from received HELLOs.
class HelloHandler final : public core::EventHandler {
 public:
  explicit HelloHandler(core::SoftExpiry::SetId link_set)
      : core::EventHandler("neighbor.HelloHandler", {ev::types::HELLO_IN}),
        link_set_(link_set) {
    set_instance_name("HelloHandler");
  }

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg()) return;
    const pbb::Message& msg = *event.msg();
    net::Addr from = event.from;
    if (from == ctx.self()) return;

    core::SoftExpiry* soft = ctx.soft();
    NeighborTable& nt = ctx.state_as<NeighborTable>();
    nt.note_heard(from);
    if (soft != nullptr) soft->touch(link_set_, from);

    // Symmetry: the sender lists every neighbour it hears; if we are listed
    // (and not LOST) the link is bidirectional.
    auto our_code = hello::code_for(msg, ctx.self());
    bool sym = our_code.has_value() && *our_code != wire::LinkCode::kLost;
    if (our_code.has_value() && *our_code == wire::LinkCode::kLost) {
      if (soft != nullptr) soft->drop(link_set_, from);
      if (nt.remove(from)) emit_nhood_change(ctx, from, false);
    } else if (nt.set_symmetric(from, sym)) {
      emit_nhood_change(ctx, from, sym);
    }

    // 2-hop information: the sender's symmetric neighbours (SYM only; the
    // MPR CF also counts MPR-coded links).
    hello::two_hop_into(
        two_hop_scratch_, msg, ctx.self(),
        [](wire::LinkCode c) { return c == wire::LinkCode::kSym; });
    nt.set_two_hop(from, two_hop_scratch_);

    hello::for_each_piggyback(
        msg, [&](const pbb::Tlv& t) { nt.dispatch_piggyback(from, t); });
  }

 private:
  core::SoftExpiry::SetId link_set_;
  std::vector<net::Addr> two_hop_scratch_;  // reused per HELLO
};

/// Alternative sensing mechanism: link-layer feedback straight from the
/// driver (the simulated medium's link notifications).
class LinkLayerFeedback final : public oc::Component {
 public:
  LinkLayerFeedback(core::Manetkit& kit, core::ManetProtocolCf& cf)
      : oc::Component("neighbor.LinkLayerFeedback"),
        alive_(std::make_shared<bool>(true)) {
    set_instance_name("LinkLayerFeedback");
    net::Addr self = kit.self();
    auto alive = alive_;
    core::ManetProtocolCf* proto = &cf;
    kit.node().medium().add_link_observer(
        [alive, self, proto](net::Addr a, net::Addr b, bool up) {
          if (!*alive) return;
          if (a != self && b != self) return;
          net::Addr other = (a == self) ? b : a;
          auto& ctx = proto->context();
          auto* nt = dynamic_cast<NeighborTable*>(proto->state_component());
          if (nt == nullptr) return;
          // Set 0 is "neighbor.link" — the CF's only soft-state set.
          auto* soft = ctx.soft();
          bool changed;
          if (up) {
            nt->note_heard(other);
            if (soft != nullptr) soft->touch(0, other);
            changed = nt->set_symmetric(other, true);
          } else {
            if (soft != nullptr) soft->drop(0, other);
            changed = nt->remove(other);
          }
          if (changed) emit_nhood_change(ctx, other, up);
        });
  }

  ~LinkLayerFeedback() override { *alive_ = false; }

 private:
  std::shared_ptr<bool> alive_;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_neighbor_cf(core::Manetkit& kit,
                                                         NeighborParams params) {
  kit.system().register_message(wire::kMsgHello, "HELLO");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      kit.kernel(), "neighbor", kit.scheduler(), kit.self(),
      &kit.system().sys_state());
  cf->set_state(std::make_unique<NeighborTable>());

  // Link tuples live in the shared soft-state layer: every HELLO (or
  // link-layer up notification) re-arms the sender's holding time; lapse
  // removes the entry and, if it was symmetric, emits NHOOD_CHANGE down.
  auto soft = std::make_unique<core::SoftExpiry>();
  auto link_set = soft->define_set(
      "neighbor.link", params.hold_time,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        auto addr = static_cast<net::Addr>(key);
        if (ctx.state_as<NeighborTable>().remove(addr)) {
          emit_nhood_change(ctx, addr, false);
        }
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<NeighborTable>().heard_neighbors());
      });
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<HelloHandler>(link_set));
  cf->add_source(std::make_unique<HelloSource>(params));
  cf->declare_events({ev::types::HELLO_IN},
                     {ev::types::HELLO_OUT, ev::types::NHOOD_CHANGE});
  return cf;
}

void register_neighbor(core::Manetkit& kit, NeighborParams params) {
  kit.register_protocol(
      "neighbor", /*layer=*/10,
      [params](core::Manetkit& k) { return build_neighbor_cf(k, params); });
}

void enable_link_layer_feedback(core::Manetkit& kit,
                                core::ManetProtocolCf& neighbor_cf) {
  auto lock = neighbor_cf.quiesce();
  neighbor_cf.remove_handler("HelloHandler");
  neighbor_cf.insert(std::make_unique<LinkLayerFeedback>(kit, neighbor_cf));
}

INeighborState* neighbor_state(core::ManetProtocolCf& cf) {
  oc::Component* s = cf.state_component();
  return s == nullptr ? nullptr : s->interface_as<INeighborState>("INeighborState");
}

INeighborState* neighbor_state(core::Manetkit& kit, const std::string& unit) {
  core::ManetProtocolCf* cf = kit.protocol(unit);
  return cf == nullptr ? nullptr : neighbor_state(*cf);
}

}  // namespace mk::proto
