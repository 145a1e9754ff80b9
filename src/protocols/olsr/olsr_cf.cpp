#include "protocols/olsr/olsr_cf.hpp"

#include <algorithm>

#include "core/soft_state.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "protocols/timing.hpp"
#include "protocols/wire.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace tc {

pbb::Message build(net::Addr self, std::uint16_t seq, std::uint16_t ansn,
                   const std::set<net::Addr>& advertised) {
  pbb::Message m;
  m.type = wire::kMsgTc;
  m.originator = self;
  m.seqnum = seq;
  m.has_hops = true;
  m.hop_limit = 255;
  m.hop_count = 0;
  m.tlvs.push_back(pbb::Tlv::u16(wire::kTlvAnsn, ansn));
  pbb::AddressBlock block;
  block.addrs.assign(advertised.begin(), advertised.end());
  m.addr_blocks.push_back(std::move(block));
  return m;
}

}  // namespace tc

namespace {

/// Builds and emits this node's TC (advertising its MPR-selector set),
/// bumping the ANSN when the advertised set changed. Shared by the periodic
/// generator and the triggered path. Returns false when there is nothing to
/// advertise (and nothing was previously advertised), or no MPR CF.
/// `tc_out` is the caller's cache of the "olsr.tc_out" counter.
bool emit_tc(core::ProtocolContext& ctx, core::StateRef<MprState>& mprs,
             obs::Counter*& tc_out) {
  OlsrState& st = ctx.state_as<OlsrState>();
  MprState* mpr = mprs.get();
  if (mpr == nullptr) return false;
  std::set<net::Addr> selectors = mpr->mpr_selectors();
  if (selectors.empty() && st.last_advertised().empty()) return false;

  if (selectors != st.last_advertised()) {
    st.bump_ansn();
    st.set_last_advertised(selectors);
  }
  static const ev::EventTypeId kTcOut = ev::etype(ev::types::TC_OUT);
  ev::Event e(kTcOut);
  e.set_msg(tc::build(ctx.self(), st.next_msg_seq(), st.ansn(), selectors));
  if (tc_out == nullptr) tc_out = &ctx.metrics().counter("olsr.tc_out");
  tc_out->inc();
  ctx.emit(std::move(e));
  return true;
}

void recompute_routes(core::ProtocolContext& ctx) {
  if (auto* calc = ctx.protocol().provider<IRouteCalculator>()) {
    calc->recompute(ctx);
  }
}

/// Periodically diffuses this node's Topology Change message (advertising
/// its MPR-selector set). Topology expiry is per-entry via the shared
/// soft-state layer, not swept here.
class TcGenerator final : public core::PeriodicSource {
 public:
  explicit TcGenerator(core::Manetkit& kit)
      : core::PeriodicSource("TcGenerator", kTcInterval,
                             /*jitter=*/0.1, /*seed_offset=*/2),
        mpr_(kit, "mpr") {}

 private:
  void fire(core::ProtocolContext& ctx) override {
    emit_tc(ctx, mpr_, tc_out_);
  }

  core::StateRef<MprState> mpr_;
  obs::Counter* tc_out_ = nullptr;
};

/// Applies received Topology Change messages to the topology set.
class TcHandler final : public core::EventHandler {
 public:
  TcHandler(core::Manetkit& kit, core::SoftExpiry::SetId topo_set)
      : core::EventHandler("TcHandler", {ev::types::TC_IN}),
        mpr_(kit, "mpr"),
        topo_set_(topo_set) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (tc_in_ == nullptr) tc_in_ = &ctx.metrics().counter("olsr.tc_in");
    tc_in_->inc();
    if (!event.has_msg()) return;
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum) return;
    if (*msg.originator == ctx.self()) return;

    // RFC 3626: process TCs only from symmetric neighbours.
    MprState* mpr = mpr_.get();
    if (mpr != nullptr && !mpr->is_sym_neighbor(event.from)) return;

    const auto* ansn_tlv = msg.find_tlv(wire::kTlvAnsn);
    if (ansn_tlv == nullptr) return;

    advertised_.clear();
    for (const auto& block : msg.addr_blocks) {
      advertised_.insert(advertised_.end(), block.addrs.begin(),
                         block.addrs.end());
    }
    std::sort(advertised_.begin(), advertised_.end());
    advertised_.erase(std::unique(advertised_.begin(), advertised_.end()),
                      advertised_.end());
    OlsrState& st = ctx.state_as<OlsrState>();
    if (st.update_topology(*msg.originator, ansn_tlv->as_u16(), advertised_,
                           ctx.now(), kTopHoldTime)) {
      if (auto* soft = ctx.soft()) soft->touch(topo_set_, *msg.originator);
      recompute_routes(ctx);
    }
  }

 private:
  core::StateRef<MprState> mpr_;
  core::SoftExpiry::SetId topo_set_;
  obs::Counter* tc_in_ = nullptr;  // cached: interned once, then atomic inc
  std::vector<net::Addr> advertised_;  // per-TC scratch; capacity reused
};

/// Neighbourhood / relay-selection changes invalidate routes immediately;
/// an MPR_CHANGE additionally triggers an early TC (RFC 3626 §9.3's
/// triggered message), rate-limited so churn cannot flood the network.
/// Each trigger is followed by one delayed re-emission after the next HELLO
/// round: the first copy updates 1-hop neighbours at once, the second is
/// relayed properly once the HELLO advertising the new relay selection has
/// propagated (a triggered TC otherwise races its own relays).
class TopologyChangeHandler final : public core::EventHandler {
 public:
  static constexpr Duration kMinTriggeredGap = sec(1);
  static constexpr Duration kReemitDelay = sec(3);  // > one HELLO interval

  explicit TopologyChangeHandler(core::Manetkit& kit)
      : core::EventHandler("TopologyChangeHandler",
                           {ev::types::NHOOD_CHANGE, ev::types::MPR_CHANGE}),
        mpr_(kit, "mpr"),
        reemit_(kit.scheduler()) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    recompute_routes(ctx);
    if (event.type() != mpr_change_) return;
    if (ctx.now() - last_triggered_ >= kMinTriggeredGap) {
      if (emit_tc(ctx, mpr_, tc_out_)) {
        last_triggered_ = ctx.now();
        if (triggered_tc_ == nullptr) {
          triggered_tc_ = &ctx.metrics().counter("olsr.triggered_tc");
        }
        triggered_tc_->inc();
      }
    }
    // Coalesced follow-up re-emission (safe: the protocol CF outlives its
    // handlers only across replace, which cancels via OneShotTimer's dtor).
    core::ManetProtocolCf* proto = &ctx.protocol();
    reemit_.schedule(kReemitDelay, [this, proto] {
      auto lock = proto->quiesce();
      emit_tc(proto->context(), mpr_, tc_out_);
    });
  }

 private:
  core::StateRef<MprState> mpr_;
  const ev::EventTypeId mpr_change_ = ev::etype(ev::types::MPR_CHANGE);
  TimePoint last_triggered_{-10'000'000};
  OneShotTimer reemit_;
  obs::Counter* tc_out_ = nullptr;  // cached on first use
  obs::Counter* triggered_tc_ = nullptr;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_olsr_cf(core::Manetkit& kit) {
  kit.deploy("mpr");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "olsr", kit.scheduler(), kit.self(), &kit.system().sys_state());

  cf->add_integrity_rule([](const oc::CfView& view, std::string& err) {
    if (view.count<IRouteCalculator>() > 1) {
      err = "OLSR CF admits a single IRouteCalculator plug-in";
      return false;
    }
    return true;
  });

  cf->set_state(std::make_unique<OlsrState>());
  cf->insert(std::make_unique<RouteCalculator>(kit));

  // Topology tuples live in the shared soft-state layer: each accepted TC
  // (re)arms its origin's holding time, and lapse drops the origin's
  // advertisements and recomputes routes — no sweep, so a partition is
  // noticed one holding time after the last TC, not at sweep granularity.
  auto soft = std::make_unique<core::SoftExpiry>();
  auto topo_set = soft->define_set(
      "olsr.topology", kTopHoldTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        if (ctx.state_as<OlsrState>().drop_topology(
                static_cast<net::Addr>(key))) {
          recompute_routes(ctx);
        }
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<OlsrState>().topology_origins());
      });
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<TcHandler>(kit, topo_set));
  cf->add_handler(std::make_unique<TopologyChangeHandler>(kit));
  cf->add_source(std::make_unique<TcGenerator>(kit));

  cf->declare_events(
      {ev::types::TC_IN, ev::types::NHOOD_CHANGE, ev::types::MPR_CHANGE},
      {ev::types::TC_OUT});
  return cf;
}

void register_olsr(core::Manetkit& kit) {
  if (!kit.has_builder("mpr")) register_mpr(kit);
  kit.register_protocol("olsr", /*layer=*/20, build_olsr_cf,
                        /*category=*/"proactive");
}

OlsrState* olsr_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<OlsrState*>(cf.state_component());
}

void olsr_recompute_routes(core::ManetProtocolCf& cf) {
  auto lock = cf.quiesce();
  recompute_routes(cf.context());
}

}  // namespace mk::proto
