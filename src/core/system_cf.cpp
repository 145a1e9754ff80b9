#include "core/system_cf.hpp"

#include <algorithm>
#include <chrono>

#include "core/framework_manager.hpp"
#include "net/payload_pool.hpp"
#include "packetbb/message_pool.hpp"
#include "packetbb/packetbb.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::core {

namespace {

/// The System CF's S element: kernel-route manipulation + device listing.
class SysStateComponent : public oc::Component, public ISysState {
 public:
  explicit SysStateComponent(net::SimNode& node)
      : oc::Component("State"), node_(node) {}

  net::KernelRouteTable& kernel_table() override { return node_.kernel_table(); }

  std::vector<std::string> list_devices() const override {
    return {node_.device().name()};
  }

  net::Addr local_addr() const override { return node_.addr(); }

  std::string describe() const override {
    return "kernel routes: " + std::to_string(node_.kernel_table().size());
  }

 private:
  net::SimNode& node_;
};

/// The F element: send primitive, exposed as IForward for direct calls.
class SysForwardComponent : public oc::Component, public IForward {
 public:
  explicit SysForwardComponent(SystemCf& system)
      : oc::Component("Forward"), system_(system) {}

  void forward(const ev::Event& event) override { system_.deliver(event); }

 private:
  SystemCf& system_;
};

/// The C element: lifecycle of the routing environment.
class SysControlComponent : public oc::Component, public IControl, public IContext {
 public:
  explicit SysControlComponent(SystemCf& system, net::SimNode& node)
      : oc::Component("SysControl"), system_(system), node_(node) {}

  void init() override { system_.init_routing_env(); }
  void start() override { running_ = true; }
  void stop() override { running_ = false; }
  bool running() const override { return running_; }

  double battery_level() const override { return node_.battery(); }
  std::size_t neighbor_count() const override {
    return node_.medium().neighbors_of(node_.addr()).size();
  }

 private:
  SystemCf& system_;
  net::SimNode& node_;
  bool running_ = false;
};

}  // namespace

// ------------------------------------------------------------- NetLink plug-in

NetLinkComponent::NetLinkComponent(SystemCf& system, net::SimNode& node)
    : oc::Component("Netlink"),
      system_(system),
      node_(node),
      sweep_timer_(node.scheduler(), sec(1), [this] { sweep_buffer(); }) {
  net::ForwardingEngine::Hooks hooks;
  hooks.on_no_route = [this](const net::DataHeader& hdr) {
    return on_no_route(hdr);
  };
  hooks.on_route_used = [this](net::Addr dest) { on_route_used(dest); };
  hooks.on_send_failure = [this](const net::DataHeader& hdr, net::Addr hop) {
    on_send_failure(hdr, hop);
  };
  node_.forwarding().set_hooks(std::move(hooks));
  sweep_timer_.start();
}

NetLinkComponent::~NetLinkComponent() {
  node_.forwarding().clear_hooks();
  sweep_timer_.stop();
}

bool NetLinkComponent::on_no_route(const net::DataHeader& hdr) {
  auto& q = buffer_[hdr.dst];
  if (q.size() >= kMaxBufferedPerDest) {
    ++buffer_drops_;
    q.erase(q.begin());  // drop oldest, keep freshest
  }
  q.push_back(Buffered{hdr, node_.scheduler().now()});

  ev::Event e(no_route_);
  e.set_attr(ev::IntAttr::dest, hdr.dst);
  e.set_attr(ev::IntAttr::src, hdr.src);
  system_.emit(std::move(e));
  return true;  // consumed (buffered)
}

void NetLinkComponent::on_route_used(net::Addr dest) {
  ev::Event e(route_update_);
  e.set_attr(ev::IntAttr::dest, dest);
  system_.emit(std::move(e));
}

void NetLinkComponent::on_send_failure(const net::DataHeader& hdr,
                                       net::Addr broken_hop) {
  ev::Event e(send_route_err_);
  e.set_attr(ev::IntAttr::dest, hdr.dst);
  e.set_attr(ev::IntAttr::src, hdr.src);
  e.set_attr(ev::IntAttr::next_hop, broken_hop);
  system_.emit(std::move(e));
}

void NetLinkComponent::on_route_found(net::Addr dest) {
  auto it = buffer_.find(dest);
  if (it == buffer_.end()) return;
  auto packets = std::move(it->second);
  buffer_.erase(it);
  for (auto& b : packets) {
    node_.forwarding().reinject(b.hdr);
  }
}

std::size_t NetLinkComponent::buffered_count() const {
  std::size_t n = 0;
  for (const auto& [_, q] : buffer_) n += q.size();
  return n;
}

void NetLinkComponent::sweep_buffer() {
  TimePoint now = node_.scheduler().now();
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    auto& q = it->second;
    std::erase_if(q, [&](const Buffered& b) {
      bool expired = now - b.at > kBufferTimeout;
      if (expired) ++buffer_drops_;
      return expired;
    });
    it = q.empty() ? buffer_.erase(it) : std::next(it);
  }
}

// ------------------------------------------------------------------- SystemCf

SystemCf::SystemCf(net::SimNode& node)
    : oc::ComponentFramework("System"), node_(node) {
  // The S element is fixed for the CF's lifetime, so one pointer to it is
  // its slot.
  auto state = std::make_unique<SysStateComponent>(node_);
  state_ = state.get();
  insert(std::move(state));
  insert(std::make_unique<SysForwardComponent>(*this));
  insert(std::make_unique<SysControlComponent>(*this, node_));

  node_.set_control_handler(
      [this](const net::Frame& frame) { on_control_frame(frame); });
}

SystemCf::~SystemCf() { node_.set_control_handler(nullptr); }

void SystemCf::init_routing_env() {
  // Real implementation: enable IP forwarding, disable ICMP redirects, etc.
  // The simulated kernel forwards unconditionally, so nothing to do.
}

void SystemCf::register_message(std::uint8_t msg_type,
                                const std::string& base_name) {
  auto lock = quiesce();
  if (msg_type >= msg_registry_.size()) msg_registry_.resize(msg_type + 1u);
  MsgBinding& binding = msg_registry_[msg_type];
  if (binding.in != ev::kInvalidEventType) {
    MK_ENSURE(binding.base == base_name,
              "message type " + std::to_string(msg_type) +
                  " already registered as " + binding.base);
    return;
  }
  binding.base = base_name;
  binding.in = ev::etype(base_name + "_IN");
  binding.out = ev::etype(base_name + "_OUT");
  refresh_tuple();
}

void SystemCf::ensure_power_status(Duration interval) {
  auto lock = quiesce();
  if (power_timer_ != nullptr) return;
  power_timer_ = std::make_unique<PeriodicTimer>(
      scheduler(), interval,
      [this] {
        static const auto kPowerStatus = ev::etype(ev::types::POWER_STATUS);
        ev::Event e(kPowerStatus);
        e.set_attr(ev::RealAttr::battery, node_.battery());
        emit(std::move(e));
      },
      /*jitter=*/0.1, /*seed=*/node_.addr());
  power_timer_->start();
  refresh_tuple();
}

void SystemCf::ensure_link_quality(Duration period) {
  constexpr double kAlpha = 0.4;  // EWMA weight of the newest period
  auto lock = quiesce();
  if (linkq_timer_ != nullptr) return;
  linkq_timer_ = std::make_unique<PeriodicTimer>(
      scheduler(), period,
      [this] {
        auto lk = quiesce();
        auto counts = std::move(frames_from_);
        frames_from_.clear();

        // Current neighbours that went silent this period count as misses.
        for (net::Addr n : node_.medium().neighbors_of(self())) {
          counts.try_emplace(n, 0);
        }
        for (const auto& [neighbor, frames] : counts) {
          double sample = frames > 0 ? 1.0 : 0.0;
          double& q = link_quality_.try_emplace(neighbor, sample).first->second;
          q = (1.0 - kAlpha) * q + kAlpha * sample;

          static const auto kLinkQuality = ev::etype(ev::types::LINK_QUALITY);
          ev::Event e(kLinkQuality);
          e.set_attr(ev::IntAttr::neighbor, neighbor);
          e.set_attr(ev::RealAttr::quality, q);
          emit(std::move(e));
        }
        // Forget estimates for neighbours gone for good.
        for (auto it = link_quality_.begin(); it != link_quality_.end();) {
          it = (counts.count(it->first) == 0) ? link_quality_.erase(it)
                                              : std::next(it);
        }
      },
      /*jitter=*/0.1, /*seed=*/node_.addr() + 23);
  linkq_timer_->start();
  refresh_tuple();
}

double SystemCf::link_quality(net::Addr neighbor) const {
  auto lock = quiesce();
  auto it = link_quality_.find(neighbor);
  return it == link_quality_.end() ? 1.0 : it->second;
}

void SystemCf::ensure_netlink() {
  auto lock = quiesce();
  if (netlink_ != nullptr) return;
  auto netlink = std::make_unique<NetLinkComponent>(*this, node_);
  netlink_ = netlink.get();
  insert(std::move(netlink));
  refresh_tuple();
}

NetLinkComponent* SystemCf::netlink() { return netlink_; }

ISysState& SystemCf::sys_state() { return *state_; }

void SystemCf::refresh_tuple() {
  ev::EventTuple t;
  for (const MsgBinding& binding : msg_registry_) {
    if (binding.in == ev::kInvalidEventType) continue;
    ev::EventTuple::add(t.provided, binding.in);
    ev::EventTuple::add(t.required, binding.out);
  }
  if (netlink_ != nullptr) {
    ev::EventTuple::add(t.provided, ev::etype(ev::types::NO_ROUTE));
    ev::EventTuple::add(t.provided, ev::etype(ev::types::ROUTE_UPDATE));
    ev::EventTuple::add(t.provided, ev::etype(ev::types::SEND_ROUTE_ERR));
    ev::EventTuple::add(t.required, route_found_);
  }
  if (power_timer_ != nullptr) {
    ev::EventTuple::add(t.provided, ev::etype(ev::types::POWER_STATUS));
  }
  if (linkq_timer_ != nullptr) {
    ev::EventTuple::add(t.provided, ev::etype(ev::types::LINK_QUALITY));
  }
  tuple_ = std::move(t);
  if (manager_ != nullptr) manager_->rebind();
}

void SystemCf::deliver(const ev::Event& event) {
  auto lock = quiesce();
  if (netlink_ != nullptr && event.type() == route_found_) {
    netlink_->on_route_found(
        static_cast<net::Addr>(event.attr(ev::IntAttr::dest)));
    return;
  }
  if (tuple_.requires_type(event.type())) {  // a registered *_OUT
    transmit(event);
    return;
  }
  MK_TRACE("system", "unhandled event ", event.type_name());
}

void SystemCf::transmit(const ev::Event& event) {
  MK_ASSERT(event.has_msg(), "outgoing event carries no message");
  auto dest = static_cast<net::Addr>(
      event.attr(ev::IntAttr::unicast_to, net::kBroadcast));

  if (aggregation_window_.count() <= 0) {
    // Reference the event's shared message directly — no deep copy of the
    // nested TLV/address-block structure on the per-transmission path.
    const pbb::Message* one[1] = {event.msg()};
    send_messages(one, dest);
    return;
  }
  pending_out_[dest].push_back(event.shared_msg());
  if (flush_timer_ == nullptr) {
    flush_timer_ = std::make_unique<OneShotTimer>(scheduler());
  }
  if (!flush_timer_->pending()) {
    flush_timer_->schedule(aggregation_window_,
                           [this] { flush_aggregation(); });
  }
}

void SystemCf::send_messages(std::span<const pbb::Message* const> msgs,
                             net::Addr dest) {
  messages_sent_->inc(msgs.size());
  packets_sent_->inc();
  // Serialize straight into a recycled shared buffer that the medium then
  // fans out to every neighbour without copying.
  auto buf = net::acquire_payload();
  if (tlv_provider_ != nullptr && dest == net::kBroadcast) {
    pkt_tlv_scratch_.clear();
    tlv_provider_(pkt_tlv_scratch_);
    pbb::serialize_msgs_into(msgs, pkt_tlv_scratch_, *buf);
  } else {
    pbb::serialize_msgs_into(msgs, *buf);
  }
  node_.send_control(net::PayloadPtr(std::move(buf)), dest);
}

void SystemCf::set_packet_tlv_provider(PacketTlvProvider provider) {
  auto lock = quiesce();
  tlv_provider_ = std::move(provider);
}

void SystemCf::set_packet_tlv_observer(PacketTlvObserver observer) {
  auto lock = quiesce();
  tlv_observer_ = std::move(observer);
}

void SystemCf::flush_aggregation() {
  auto lock = quiesce();
  auto pending = std::move(pending_out_);
  pending_out_.clear();
  for (auto& [dest, msgs] : pending) {
    // PacketBB caps messages per packet at 255; chunk defensively.
    for (std::size_t i = 0; i < msgs.size(); i += 255) {
      std::size_t end = std::min(msgs.size(), i + 255);
      msg_ptr_scratch_.clear();
      for (std::size_t j = i; j < end; ++j) {
        msg_ptr_scratch_.push_back(msgs[j].get());
      }
      send_messages(msg_ptr_scratch_, dest);
    }
  }
}

void SystemCf::set_aggregation_window(Duration window) {
  auto lock = quiesce();
  aggregation_window_ = window;
  if (window.count() <= 0) flush_aggregation();
}

void SystemCf::set_metrics(obs::MetricsRegistry* metrics) {
  auto lock = quiesce();
  obs::MetricsRegistry& reg = metrics != nullptr ? *metrics : own_metrics_;
  packets_sent_ = &reg.counter("sys.packets_sent");
  messages_sent_ = &reg.counter("sys.messages_sent");
  frames_received_ = &reg.counter("sys.frames_received");
  parse_errors_ = &reg.counter("sys.parse_errors");
}

void SystemCf::emit(ev::Event event) {
  event.raised_at = scheduler().now();
  event.local = self();
  if (manager_ != nullptr) {
    manager_->route(this, std::move(event));
  }
}

void SystemCf::on_control_frame(const net::Frame& frame) {
  frames_received_->inc();
  if (linkq_timer_ != nullptr) ++frames_from_[frame.tx];
  // One decode per payload: the first receiver of a broadcast parses it
  // into pooled messages, and every later receiver of the same payload gets
  // those same immutable handles.
  pbb::DecodeMemo& memo = node_.medium().decode_memo();
  const Result<bool>& parsed = memo.decode(frame.payload);
  if (!parsed) {
    parse_errors_->inc();
    MK_WARN("system", "dropping malformed packet from ",
            pbb::addr_to_string(frame.tx), ": ", parsed.error());
    return;
  }
  const pbb::SharedPacket& packet = memo.packet();
  if (tlv_observer_ != nullptr) {
    for (const pbb::Tlv& t : packet.tlvs) tlv_observer_(t, frame.tx);
  }
  for (const ev::MsgPtr& msg : packet.messages) {
    const std::uint8_t type = msg->type;
    if (type >= msg_registry_.size() ||
        msg_registry_[type].in == ev::kInvalidEventType) {
      continue;  // no protocol interested
    }
    // Every receiver, and every protocol the Framework Manager fans this
    // event out to, sees the same immutable pbb::Message.
    ev::Event e(msg_registry_[type].in);
    e.from = frame.tx;
    e.set_msg(msg);

    if (profiling_) {
      auto t0 = std::chrono::steady_clock::now();
      emit(std::move(e));
      if (manager_ != nullptr) manager_->drain();
      auto t1 = std::chrono::steady_clock::now();
      // Indexed afresh: a handler may have grown the registry.
      processing_times_[msg_registry_[type].base].add(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    } else {
      emit(std::move(e));
    }
  }
}

}  // namespace mk::core
