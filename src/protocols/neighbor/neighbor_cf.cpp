#include "protocols/neighbor/neighbor_cf.hpp"

#include <memory>
#include <utility>

#include "util/assert.hpp"

namespace mk::proto {

void emit_nhood_change(core::ProtocolContext& ctx, net::Addr neighbor, bool up) {
  static const ev::EventTypeId kNhoodChange =
      ev::etype(ev::types::NHOOD_CHANGE);
  ev::Event e(kNhoodChange);
  e.set_attr(ev::IntAttr::neighbor, neighbor);
  e.set_attr(ev::IntAttr::up, up ? 1 : 0);
  ctx.emit(std::move(e));
}

void drop_link(std::uint64_t neighbor, core::ProtocolContext& ctx) {
  auto addr = static_cast<net::Addr>(neighbor);
  if (ctx.state_as<NeighborTable>().remove(addr)) {
    emit_nhood_change(ctx, addr, false);
  }
}

void define_link_set(core::SoftExpiry& soft, std::string name, Duration hold,
                     core::SoftExpiry::LossFn on_lost) {
  auto id = soft.define_set(
      std::move(name), hold, std::move(on_lost),
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<NeighborTable>().heard_neighbors());
      });
  MK_ASSERT(id == kLinkSet, "the link set must be the first soft set");
}

HelloSource::HelloSource(Duration interval)
    : core::PeriodicSource("HelloSource", interval, /*jitter=*/0.1,
                           /*seed_offset=*/0) {}

void HelloSource::fire(core::ProtocolContext& ctx) {
  NeighborTable& nt = ctx.state_as<NeighborTable>();
  links_scratch_.clear();
  nt.for_each_neighbor([&](net::Addr a, bool sym) {
    links_scratch_.push_back(hello::Link{a, link_code(nt, a, sym)});
  });
  static const ev::EventTypeId kHelloOut = ev::etype(ev::types::HELLO_OUT);
  ev::Event e(kHelloOut);
  // Build straight into a pooled message slot (stale-warm: build_into
  // rewrites every field).
  pbb::Message& m = e.acquire_msg();
  hello::build_into(m, ctx.self(), seq_++, links_scratch_, willingness(nt));
  nt.append_piggyback(m.tlvs);
  finish(m);
  ctx.emit(std::move(e));
}

HelloHandler::HelloHandler()
    : core::EventHandler("HelloHandler", {ev::types::HELLO_IN}) {}

void HelloHandler::on_lost(net::Addr from, core::ProtocolContext& ctx) {
  if (auto* soft = ctx.soft()) soft->drop(kLinkSet, from);
  drop_link(from, ctx);
}

void HelloHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  if (!event.has_msg()) return;
  const pbb::Message& msg = *event.msg();
  net::Addr from = event.from;
  if (from == ctx.self()) return;

  NeighborTable& nt = ctx.state_as<NeighborTable>();
  nt.note_heard(from);
  if (auto* soft = ctx.soft()) soft->touch(kLinkSet, from);
  bool gate_ok = on_heard(msg, from, ctx);

  // Symmetry: the sender lists every neighbour it hears; if we are listed
  // (and not LOST) the link is bidirectional. LOST ends the HELLO's
  // processing, so nothing re-creates the removed entry.
  auto our_code = hello::code_for(msg, ctx.self());
  if (our_code == wire::LinkCode::kLost) {
    on_lost(from, ctx);
    return;
  }
  bool sym = our_code.has_value() && gate_ok;
  if (nt.set_symmetric(from, sym)) emit_nhood_change(ctx, from, sym);
  on_listed(msg, our_code, from, ctx);

  // 2-hop information: the sender's symmetric neighbours.
  hello::two_hop_into(two_hop_scratch_, msg, ctx.self(),
                      [this](wire::LinkCode c) { return two_hop_code(c); });
  nt.set_two_hop(from, two_hop_scratch_);

  hello::for_each_piggyback(
      msg, [&](const pbb::Tlv& t) { nt.dispatch_piggyback(from, t); });
  after_hello(ctx);
}

namespace {

/// Alternative sensing mechanism: link-layer feedback straight from the
/// driver (the simulated medium's link notifications).
class LinkLayerFeedback final : public oc::Component {
 public:
  LinkLayerFeedback(core::Manetkit& kit, core::ManetProtocolCf& cf)
      : oc::Component("LinkLayerFeedback"),
        alive_(std::make_shared<bool>(true)) {
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
          auto* soft = ctx.soft();
          if (!up) {
            if (soft != nullptr) soft->drop(kLinkSet, other);
            drop_link(other, ctx);
            return;
          }
          nt->note_heard(other);
          if (soft != nullptr) soft->touch(kLinkSet, other);
          if (nt->set_symmetric(other, true)) {
            emit_nhood_change(ctx, other, true);
          }
        });
  }

  ~LinkLayerFeedback() override { *alive_ = false; }

 private:
  std::shared_ptr<bool> alive_;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_neighbor_cf(core::Manetkit& kit) {
  kit.system().register_message(wire::kMsgHello, "HELLO");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "neighbor", kit.scheduler(), kit.self(), &kit.system().sys_state());
  cf->set_state(std::make_unique<NeighborTable>());

  // Link tuples live in the shared soft-state layer: every HELLO (or
  // link-layer up notification) re-arms the sender's holding time; lapse
  // removes the entry and, if it was symmetric, emits NHOOD_CHANGE down.
  auto soft = std::make_unique<core::SoftExpiry>();
  define_link_set(*soft, "neighbor.link", kNeighbHoldTime);
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<HelloHandler>());
  cf->add_source(std::make_unique<HelloSource>(kHelloInterval));
  cf->declare_events({ev::types::HELLO_IN},
                     {ev::types::HELLO_OUT, ev::types::NHOOD_CHANGE});
  return cf;
}

void register_neighbor(core::Manetkit& kit) {
  kit.register_protocol("neighbor", /*layer=*/10, build_neighbor_cf);
}

void enable_link_layer_feedback(core::Manetkit& kit,
                                core::ManetProtocolCf& neighbor_cf) {
  auto lock = neighbor_cf.quiesce();
  neighbor_cf.remove_handler("HelloHandler");
  neighbor_cf.insert(std::make_unique<LinkLayerFeedback>(kit, neighbor_cf));
}

NeighborTable* neighbor_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<NeighborTable*>(cf.state_component());
}

}  // namespace mk::proto
