#include "replication/replication.hpp"

#include <sstream>
#include <utility>

#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/reactive.hpp"
#include "protocols/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/serial.hpp"

namespace mk::repl {

namespace {

/// If nothing broadcast within this grace after staging, a dedicated REPL
/// beacon goes out so checkpoints still spread on a quiet node.
constexpr Duration kBeaconGrace = msec(300);

/// Reinstalls the kernel routes a restored S element implies. Dispatches on
/// the concrete S type, not the unit name, so renamed compositions (the
/// zone hybrid, the multipath variant) restore the same way as their base.
void reinstall_routes(core::ManetProtocolCf& proto) {
  oc::Component* sc = proto.state_component();
  if (sc == nullptr) return;
  if (dynamic_cast<proto::OlsrState*>(sc) != nullptr) {
    // Routes are derived from the restored topology set.
    proto::olsr_recompute_routes(proto);
    return;
  }
  if (auto* rs = dynamic_cast<proto::ReactiveState*>(sc)) {
    auto lock = proto.quiesce();
    rs->for_each_route([&proto](net::Addr dest, const proto::RouteView& r) {
      if (r.valid) proto.context().set_route(dest, r.next_hop, r.hops);
    });
  }
}

/// Periodic checkpoint publisher. A self-rechaining one-shot (rather than a
/// PeriodicTimer) so a strategy switch changes the cadence at the very next
/// tick; the first shot is skewed per node so a fleet does not checkpoint in
/// lockstep.
class CheckpointPublisher final : public core::EventSource {
 public:
  explicit CheckpointPublisher(ReplicationManager* mgr)
      : core::EventSource("CheckpointPublisher"), mgr_(mgr) {}

  void start(core::ProtocolContext& ctx) override {
    ctx_ = &ctx;
    timer_ = std::make_unique<OneShotTimer>(ctx.scheduler());
    timer_->schedule(mgr_->publish_interval() + msec(ctx.self() % 97),
                     [this] { fire(); });
  }

  void stop() override { timer_.reset(); }

 private:
  void fire() {
    mgr_->publish_checkpoints(*ctx_);
    timer_->schedule(mgr_->publish_interval(), [this] { fire(); });
  }

  ReplicationManager* mgr_;
  core::ProtocolContext* ctx_ = nullptr;
  std::unique_ptr<OneShotTimer> timer_;
};

/// Feeds REPL messages (beacons, solicits, offers) into the manager.
class ReplHandler final : public core::EventHandler {
 public:
  explicit ReplHandler(ReplicationManager* mgr)
      : core::EventHandler("ReplHandler", {"REPL_IN"}), mgr_(mgr) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    mgr_->handle_repl_message(event, ctx);
  }

 private:
  ReplicationManager* mgr_;
};

}  // namespace

ReplicationManager::ReplicationManager(core::Manetkit& kit,
                                       ReplicationParams params)
    : oc::Component("State"),
      kit_(kit),
      params_(params),
      strategy_(params.initial) {
  MK_ASSERT(params_.full_every >= 1);
}

ReplicationManager::~ReplicationManager() {
  kit_.system().set_packet_tlv_provider(nullptr);
  kit_.system().set_packet_tlv_observer(nullptr);
  if (kit_.replication() == this) kit_.set_replication(nullptr);
}

void ReplicationManager::attach(core::ManetProtocolCf* cf) {
  cf_ = cf;
  beacon_timer_ = std::make_unique<OneShotTimer>(kit_.scheduler());
  kit_.system().set_packet_tlv_provider(
      [this](std::vector<pbb::Tlv>& out) { provide_packet_tlvs(out); });
  kit_.system().set_packet_tlv_observer(
      [this](const pbb::Tlv& tlv, net::Addr from) {
        // Piggybacked TLVs carry only the *sender's own* checkpoints;
        // solicits and offers travel inside REPL messages.
        if (tlv.type != pbb::kTlvCheckpoint) return;
        auto cp = decode_checkpoint(tlv);
        if (!cp || cp->origin == kit_.self()) return;
        accept_checkpoint(*cp, from);
      });
  kit_.set_replication(this);
}

void ReplicationManager::set_strategy(core::ReplicationStrategy s) {
  if (strategy_ == s) return;
  strategy_ = s;
  kit_.metrics().counter("repl.strategy_switches").inc();
  MK_DEBUG("repl", "strategy -> ", core::to_string(s), " at ",
           pbb::addr_to_string(kit_.self()));
}

Duration ReplicationManager::publish_interval() const {
  return strategy_ == core::ReplicationStrategy::kHotStandby
             ? params_.standby_interval
             : params_.checkpoint_interval;
}

std::int64_t ReplicationManager::own_replica_age_us() const {
  if (last_spread_us_ < 0) return -1;
  return kit_.scheduler().now().us - last_spread_us_;
}

std::vector<std::pair<std::string, core::IStateCodec*>>
ReplicationManager::codec_units() const {
  std::vector<std::pair<std::string, core::IStateCodec*>> out;
  for (const std::string& name : kit_.deployed()) {  // sorted (std::map)
    if (name == "replication") continue;
    core::ManetProtocolCf* proto = kit_.protocol(name);
    if (proto == nullptr) continue;
    if (auto* codec =
            dynamic_cast<core::IStateCodec*>(proto->state_component())) {
      out.emplace_back(name, codec);
    }
  }
  return out;
}

core::IStateCodec* ReplicationManager::codec_of(const std::string& unit) const {
  core::ManetProtocolCf* proto = kit_.protocol(unit);
  if (proto == nullptr) return nullptr;
  return dynamic_cast<core::IStateCodec*>(proto->state_component());
}

void ReplicationManager::journal(obs::RecordKind kind, std::uint64_t unit_hash,
                                 std::uint64_t phase, std::uint16_t epoch,
                                 std::uint64_t c) {
  obs::Journal* j = kit_.journal();
  if (j == nullptr) return;
  j->append({kind, kit_.self(), kit_.scheduler().now().us, unit_hash,
             (phase << 32) | epoch, c});
}

void ReplicationManager::publish_checkpoints(core::ProtocolContext& ctx) {
  if (strategy_ == core::ReplicationStrategy::kNone) return;
  const bool hot = strategy_ == core::ReplicationStrategy::kHotStandby;
  const std::int64_t now_us = ctx.now().us;

  for (const auto& [name, codec] : codec_units()) {
    std::vector<std::uint8_t> blob;
    codec->encode_state(blob);
    const std::uint64_t hash = obs::fnv1a_str(name);
    PublishState& ps = publish_[name];

    // Publishing our own state means this unit is live again: stop
    // accepting rehydration offers for it.
    rehydrating_.erase(name);
    rehydrate_virgin_.erase(name);

    const bool changed = blob != ps.last_pub;
    const bool anchor = ps.publishes % params_.full_every == 0;
    ++ps.publishes;

    pbb::Checkpoint cp;
    cp.origin = ctx.self();
    cp.unit_hash = hash;
    cp.at_us = now_us;

    if (hot && !anchor && !ps.last_pub.empty()) {
      if (!changed) continue;  // peers already hold this epoch
      const std::uint16_t base = ps.epoch;
      ++ps.epoch;
      cp.epoch = ps.epoch;
      cp.delta = true;
      cp.base_epoch = base;
      cp.blob = pbb::make_delta(ps.last_pub, blob);
      stage(pbb::encode_checkpoint(cp), hash);
      journal(obs::RecordKind::kCheckpoint, hash,
              static_cast<std::uint64_t>(obs::CheckpointPhase::kDelta),
              cp.epoch, cp.blob.size());
      kit_.metrics().counter("repl.deltas_published").inc();
    } else {
      if (changed) ++ps.epoch;
      cp.epoch = ps.epoch;
      cp.blob = blob;
      stage(pbb::encode_checkpoint(cp), hash);
      journal(obs::RecordKind::kCheckpoint, hash,
              static_cast<std::uint64_t>(obs::CheckpointPhase::kPublish),
              cp.epoch, cp.blob.size());
      kit_.metrics().counter("repl.checkpoints_published").inc();
    }
    ps.last_pub = std::move(blob);
  }
}

void ReplicationManager::stage(pbb::Tlv tlv, std::uint64_t unit_hash) {
  staged_[unit_hash] = std::move(tlv);
  if (beacon_timer_ != nullptr && !beacon_timer_->pending()) {
    beacon_timer_->schedule(kBeaconGrace, [this] { beacon_fire(); });
  }
}

void ReplicationManager::provide_packet_tlvs(std::vector<pbb::Tlv>& out) {
  if (staged_.empty()) return;
  for (auto& [_, tlv] : staged_) out.push_back(std::move(tlv));
  kit_.metrics().counter("repl.piggybacked").inc(staged_.size());
  staged_.clear();
  last_spread_us_ = kit_.scheduler().now().us;
}

void ReplicationManager::beacon_fire() {
  if (staged_.empty() || cf_ == nullptr || !cf_->running()) return;
  auto lock = cf_->quiesce();
  pbb::Message m;
  m.type = proto::wire::kMsgRepl;
  m.originator = kit_.self();
  for (auto& [_, tlv] : staged_) m.tlvs.push_back(std::move(tlv));
  kit_.metrics().counter("repl.beacons").inc();
  staged_.clear();
  last_spread_us_ = kit_.scheduler().now().us;
  ev::Event e(std::string_view{"REPL_OUT"});
  e.set_msg(std::move(m));
  cf_->context().emit(std::move(e));
}

void ReplicationManager::accept_checkpoint(const pbb::Checkpoint& cp,
                                           net::Addr from) {
  const auto key = std::make_pair(cp.origin, cp.unit_hash);
  const std::int64_t now_us = kit_.scheduler().now().us;
  auto it = replicas_.find(key);

  if (cp.delta) {
    // A delta only patches the exact base it was computed against; a peer
    // that missed an update waits for the next full anchor.
    if (it == replicas_.end() || it->second.epoch != cp.base_epoch) {
      journal(obs::RecordKind::kCheckpoint, cp.unit_hash,
              static_cast<std::uint64_t>(obs::CheckpointPhase::kReject),
              cp.epoch, from);
      kit_.metrics().counter("repl.rejects").inc();
      return;
    }
    auto patched = pbb::apply_delta(it->second.blob, cp.blob);
    if (!patched) {
      journal(obs::RecordKind::kCheckpoint, cp.unit_hash,
              static_cast<std::uint64_t>(obs::CheckpointPhase::kReject),
              cp.epoch, from);
      kit_.metrics().counter("repl.rejects").inc();
      return;
    }
    it->second.epoch = cp.epoch;
    it->second.at_us = cp.at_us;
    it->second.blob = std::move(*patched);
    journal(obs::RecordKind::kCheckpoint, cp.unit_hash,
            static_cast<std::uint64_t>(obs::CheckpointPhase::kDeltaApply),
            cp.epoch, it->second.blob.size());
    kit_.metrics().counter("repl.deltas_applied").inc();
    return;
  }

  if (it != replicas_.end()) {
    if (cp.epoch == it->second.epoch) {
      it->second.at_us = cp.at_us;  // refresh only; not worth a record
      return;
    }
    const bool stale_holder = now_us - it->second.at_us >
                              params_.staleness_bound.count();
    if (!serial_newer(cp.epoch, it->second.epoch) && !stale_holder) {
      // Older epoch from a live origin: reject. (After the origin
      // cold-starts, its epochs restart — then stale_holder admits them.)
      journal(obs::RecordKind::kCheckpoint, cp.unit_hash,
              static_cast<std::uint64_t>(obs::CheckpointPhase::kReject),
              cp.epoch, from);
      kit_.metrics().counter("repl.rejects").inc();
      return;
    }
  }
  Replica& r = replicas_[key];
  r.epoch = cp.epoch;
  r.at_us = cp.at_us;
  r.blob = cp.blob;
  journal(obs::RecordKind::kCheckpoint, cp.unit_hash,
          static_cast<std::uint64_t>(obs::CheckpointPhase::kStore), cp.epoch,
          from);
  kit_.metrics().counter("repl.checkpoints_stored").inc();
}

bool ReplicationManager::request_rehydrate(const std::string& unit) {
  if (cf_ == nullptr || strategy_ == core::ReplicationStrategy::kNone) {
    return false;
  }
  auto lock = cf_->quiesce();
  if (!cf_->running()) return false;

  std::uint64_t unit_hash = 0;
  if (unit.empty()) {
    for (const auto& [name, _] : codec_units()) {
      rehydrating_[name] = 0;
      rehydrate_virgin_.insert(name);
    }
    if (rehydrating_.empty()) return false;
  } else {
    if (codec_of(unit) == nullptr) return false;
    unit_hash = obs::fnv1a_str(unit);
    rehydrating_[unit] = 0;
    rehydrate_virgin_.insert(unit);
  }

  pbb::Message m;
  m.type = proto::wire::kMsgRepl;
  m.originator = kit_.self();
  m.tlvs.push_back(pbb::encode_solicit({kit_.self(), unit_hash}));
  ev::Event e(std::string_view{"REPL_OUT"});
  e.set_msg(std::move(m));
  cf_->context().emit(std::move(e));

  journal(obs::RecordKind::kRehydrate, unit_hash,
          static_cast<std::uint64_t>(obs::RehydratePhase::kSolicit), 0, 0);
  kit_.metrics().counter("repl.solicits").inc();
  return true;
}

void ReplicationManager::handle_repl_message(const ev::Event& event,
                                             core::ProtocolContext& ctx) {
  if (!event.has_msg()) return;
  for (const pbb::Tlv& tlv : event.msg()->tlvs) {
    if (tlv.type == pbb::kTlvCheckpoint) {
      auto cp = decode_checkpoint(tlv);
      if (!cp) continue;
      if (cp->origin == ctx.self()) {
        apply_offer(*cp, event.from);
      } else {
        accept_checkpoint(*cp, event.from);
      }
    } else if (tlv.type == pbb::kTlvSolicit) {
      auto s = decode_solicit(tlv);
      if (s && s->origin != ctx.self()) handle_solicit(*s, event.from, ctx);
    }
  }
}

void ReplicationManager::handle_solicit(const pbb::Solicit& s, net::Addr from,
                                        core::ProtocolContext& ctx) {
  const std::int64_t now_us = ctx.now().us;
  pbb::Message m;
  m.type = proto::wire::kMsgRepl;
  m.originator = ctx.self();
  for (const auto& [key, r] : replicas_) {
    if (key.first != s.origin) continue;
    if (s.unit_hash != 0 && key.second != s.unit_hash) continue;
    // Never offer past the staleness bound: a bound-breaking replica is
    // worse than a cold start (it resurrects expired soft state).
    if (now_us - r.at_us > params_.staleness_bound.count()) continue;
    pbb::Checkpoint cp;
    cp.origin = s.origin;
    cp.unit_hash = key.second;
    cp.epoch = r.epoch;
    cp.at_us = r.at_us;
    cp.blob = r.blob;
    m.tlvs.push_back(pbb::encode_checkpoint(cp));
    journal(obs::RecordKind::kRehydrate, key.second,
            static_cast<std::uint64_t>(obs::RehydratePhase::kOffer), r.epoch,
            from);
    kit_.metrics().counter("repl.offers").inc();
  }
  if (m.tlvs.empty()) return;
  ev::Event e(std::string_view{"REPL_OUT"});
  e.set_msg(std::move(m));
  e.set_attr(ev::IntAttr::unicast_to, from);
  ctx.emit(std::move(e));
}

void ReplicationManager::apply_offer(const pbb::Checkpoint& cp,
                                     net::Addr from) {
  if (cp.delta) return;  // offers are always full snapshots

  // Map the hash back to a deployed unit we actually solicited for.
  std::string unit;
  for (const auto& [name, epoch] : rehydrating_) {
    if (obs::fnv1a_str(name) == cp.unit_hash) {
      unit = name;
      break;
    }
  }
  if (unit.empty()) return;  // unsolicited or already republishing

  const bool virgin = rehydrate_virgin_.count(unit) > 0;
  if (!virgin && !serial_newer(cp.epoch, rehydrating_[unit])) {
    journal(obs::RecordKind::kRehydrate, cp.unit_hash,
            static_cast<std::uint64_t>(obs::RehydratePhase::kStaleReject),
            cp.epoch, from);
    kit_.metrics().counter("repl.offer_rejects").inc();
    return;
  }

  core::ManetProtocolCf* proto = kit_.protocol(unit);
  core::IStateCodec* codec = codec_of(unit);
  if (proto == nullptr || codec == nullptr) return;

  // stop -> decode -> start: restarting the unit re-seeds the soft-state
  // expiry sets from the *restored* tables, so peer-held deadlines are
  // re-armed instead of resurrecting state that should lapse.
  proto->stop();
  const bool ok = codec->decode_state(cp.blob);
  proto->start();
  if (!ok) {
    journal(obs::RecordKind::kRehydrate, cp.unit_hash,
            static_cast<std::uint64_t>(obs::RehydratePhase::kStaleReject),
            cp.epoch, from);
    kit_.metrics().counter("repl.offer_rejects").inc();
    return;
  }
  reinstall_routes(*proto);

  rehydrating_[unit] = cp.epoch;
  rehydrate_virgin_.erase(unit);
  // Resume publishing from the restored epoch so peers' replicas stay in
  // serial order (the next changed snapshot becomes epoch + 1).
  PublishState& ps = publish_[unit];
  ps.epoch = cp.epoch;
  ps.last_pub = cp.blob;

  journal(obs::RecordKind::kRehydrate, cp.unit_hash,
          static_cast<std::uint64_t>(obs::RehydratePhase::kApply), cp.epoch,
          from);
  kit_.metrics().counter("repl.rehydrates").inc();
  kit_.metrics().counter("repl.rehydrate_bytes").inc(cp.blob.size());
}

void ReplicationManager::on_crash_wipe() {
  staged_.clear();
  if (beacon_timer_ != nullptr) beacon_timer_->cancel();
  publish_.clear();
  replicas_.clear();
  rehydrating_.clear();
  rehydrate_virgin_.clear();
  last_spread_us_ = -1;
  journal(obs::RecordKind::kRehydrate, /*unit_hash=*/0,
          static_cast<std::uint64_t>(obs::RehydratePhase::kColdStart), 0, 0);
  kit_.metrics().counter("repl.crash_wipes").inc();
}

std::string ReplicationManager::describe() const {
  std::ostringstream os;
  os << "strategy: " << core::to_string(strategy_)
     << " replicas: " << replicas_.size() << " staged: " << staged_.size();
  return os.str();
}

void register_replication(core::Manetkit& kit, ReplicationParams params) {
  kit.register_protocol(
      "replication", /*layer=*/5, [params](core::Manetkit& k) {
        k.system().register_message(proto::wire::kMsgRepl, "REPL");
        auto cf = std::make_unique<core::ManetProtocolCf>(
            "replication", k.scheduler(), k.self(), &k.system().sys_state());
        auto mgr = std::make_unique<ReplicationManager>(k, params);
        ReplicationManager* raw = mgr.get();
        cf->set_state(std::move(mgr));
        raw->attach(cf.get());
        cf->add_handler(std::make_unique<ReplHandler>(raw));
        cf->add_source(std::make_unique<CheckpointPublisher>(raw));
        cf->declare_events({"REPL_IN"}, {"REPL_OUT"});
        return cf;
      });
}

ReplicationManager* replication_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<ReplicationManager*>(cf.state_component());
}

}  // namespace mk::repl
