// The System CF (§4.3, Fig. 4): the base-layer CFS unit every ManetProtocol
// instance is stacked on. It abstracts the "OS":
//
//   * C element (SysControl)  — routing-environment initialisation, message
//     registry (which PacketBB message types map to which *_IN/*_OUT
//     events), context-sensor management.
//   * S element (SysState)    — kernel routing-table manipulation and
//     network-device listing (ISysState).
//   * F element (SysForward)  — send/receive primitives: outgoing *_OUT
//     events are framed (PacketBB) and transmitted; incoming frames are
//     parsed by the Demux and raised as *_IN events. A broadcast's payload
//     is decoded once, by its first receiver, through the medium's
//     pbb::DecodeMemo; every receiver raises its *_IN events over the same
//     immutable message handles (Event::mutable_msg copies on write).
//     Reception counts, parse-error counts and warnings, the packet-TLV
//     observer and the message-type demux stay per receiver.
//   * NetLink plug-in          — Netfilter-style packet filtering: buffers
//     route-less data packets and raises NO_ROUTE / ROUTE_UPDATE /
//     SEND_ROUTE_ERR; re-injects on ROUTE_FOUND (§5.2).
//   * PowerStatus plug-in      — periodic POWER_STATUS context events.
//
// In a real deployment the raising/capturing of events is grounded in
// sockets, libpcap and Netfilter; here it is grounded in the simulated
// node's device and forwarding hooks (see DESIGN.md substitutions).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cfs.hpp"
#include "core/ifaces.hpp"
#include "events/event.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "opencom/cf.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace mk::core {

class FrameworkManager;
class SystemCf;

/// NetLink plug-in: the kernel packet-filter surrogate.
class NetLinkComponent : public oc::Component {
 public:
  NetLinkComponent(SystemCf& system, net::SimNode& node);
  ~NetLinkComponent() override;

  /// Max packets buffered per destination awaiting a route (DYMOUM uses a
  /// similar small per-destination queue).
  static constexpr std::size_t kMaxBufferedPerDest = 5;
  /// Buffered packets are dropped if no route appears within this window.
  static constexpr Duration kBufferTimeout = sec(10);

  void on_route_found(net::Addr dest);

  std::size_t buffered_count() const;
  std::uint64_t buffer_drops() const { return buffer_drops_; }

 private:
  bool on_no_route(const net::DataHeader& hdr);
  void on_route_used(net::Addr dest);
  void on_send_failure(const net::DataHeader& hdr, net::Addr broken_hop);
  void sweep_buffer();

  SystemCf& system_;
  net::SimNode& node_;
  struct Buffered {
    net::DataHeader hdr;
    TimePoint at{};
  };
  std::map<net::Addr, std::vector<Buffered>> buffer_;
  std::uint64_t buffer_drops_ = 0;
  PeriodicTimer sweep_timer_;
  // Resolved once: these events are raised per data packet.
  const ev::EventTypeId no_route_ = ev::etype(ev::types::NO_ROUTE);
  const ev::EventTypeId route_update_ = ev::etype(ev::types::ROUTE_UPDATE);
  const ev::EventTypeId send_route_err_ = ev::etype(ev::types::SEND_ROUTE_ERR);
};

class SystemCf : public oc::ComponentFramework, public CfsUnit {
 public:
  explicit SystemCf(net::SimNode& node);
  ~SystemCf() override;

  // -- CfsUnit -------------------------------------------------------------------
  const std::string& unit_name() const override { return name(); }
  const ev::EventTuple& tuple() const override { return tuple_; }
  void deliver(const ev::Event& event) override;

  // -- C element: routing environment & message registry ---------------------------
  /// Initialises the host routing environment (IP forwarding, ICMP redirects
  /// — no-ops against the simulated kernel, kept for API fidelity).
  void init_routing_env();

  /// Registers a PacketBB message type under an event base name: incoming
  /// messages of that type raise `<base>_IN`; `<base>_OUT` events are
  /// accepted for transmission. (This is the paper's "NetworkDriver"
  /// loading step.) Re-registering the same pair is a no-op.
  void register_message(std::uint8_t msg_type, const std::string& base_name);

  /// Loads the PowerStatus context sensor (idempotent).
  void ensure_power_status(Duration interval = sec(2));

  /// Loads the link-quality context sensor (idempotent): per neighbour, an
  /// EWMA (weight 0.4 on the newest period) of control-frame reception
  /// against the sensing period, emitted as LINK_QUALITY events
  /// (ev::IntAttr::neighbor + ev::RealAttr::quality in [0,1]).
  /// This grounds the §4.5 context list's "link quality" in the same
  /// mechanism a real driver would use (frame arrival statistics).
  void ensure_link_quality(Duration period = sec(2));

  /// Last emitted link-quality estimate for a neighbour (1.0 if unknown).
  double link_quality(net::Addr neighbor) const;

  /// Enables PacketBB message aggregation: outgoing messages to the same
  /// link-level destination are held for up to `window` and sent as one
  /// packet (olsrd-style piggybacking of co-scheduled messages). A zero
  /// window (default) transmits immediately.
  void set_aggregation_window(Duration window);

  std::uint64_t packets_sent() const { return packets_sent_->value(); }
  std::uint64_t messages_sent() const { return messages_sent_->value(); }

  // -- packet-level TLV piggybacking (replication checkpoints) -------------------
  /// Polled once per outbound *broadcast* control packet; whatever it appends
  /// rides as packet-level TLVs at zero extra frames. Unicast packets are
  /// never decorated (a checkpoint aimed at one peer would miss the rest).
  using PacketTlvProvider = std::function<void(std::vector<pbb::Tlv>& out)>;
  /// Sees every packet-level TLV parsed off an incoming control frame,
  /// together with the transmitting neighbour.
  using PacketTlvObserver =
      std::function<void(const pbb::Tlv& tlv, net::Addr from)>;
  void set_packet_tlv_provider(PacketTlvProvider provider);
  void set_packet_tlv_observer(PacketTlvObserver observer);

  /// Loads the NetLink packet-filter plug-in (idempotent).
  void ensure_netlink();
  NetLinkComponent* netlink();

  // -- S element --------------------------------------------------------------------
  ISysState& sys_state();

  net::SimNode& node() { return node_; }
  Scheduler& scheduler() { return node_.scheduler(); }
  net::Addr self() const { return node_.addr(); }

  // -- manager wiring ------------------------------------------------------------------
  void set_manager(FrameworkManager* manager) { manager_ = manager; }
  FrameworkManager* manager() const { return manager_; }

  /// Emits an event upward (from below) through the manager.
  void emit(ev::Event event);

  // -- measurement (Table 1: Time to Process Message) -----------------------------------
  /// When enabled, the wall-clock time from control-frame receipt to
  /// completion of all synchronous processing is recorded per *_IN event.
  void enable_profiling(bool on) { profiling_ = on; }
  const std::map<std::string, Samples>& processing_times() const {
    return processing_times_;
  }

  std::uint64_t frames_received() const { return frames_received_->value(); }
  std::uint64_t parse_errors() const { return parse_errors_->value(); }

  // -- observability ------------------------------------------------------------
  /// Re-homes the System CF's counters ("sys.packets_sent", ...) onto a
  /// shared per-node registry (Manetkit wires this at deployment). Null
  /// reverts to the private fallback registry. Call before traffic flows —
  /// counts do not migrate between registries.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  void on_control_frame(const net::Frame& frame);
  void transmit(const ev::Event& event);
  /// Frames `msgs` (referenced, not copied) into one packet and transmits.
  void send_messages(std::span<const pbb::Message* const> msgs, net::Addr dest);
  void flush_aggregation();
  void refresh_tuple();

  net::SimNode& node_;
  ISysState* state_ = nullptr;  // the S element, owned as a CF member
  FrameworkManager* manager_ = nullptr;
  ev::EventTuple tuple_;

  // Message registry, indexed by PacketBB message type and sized to the
  // largest registered one; an unregistered type's `in` is invalid. The
  // registered *_OUT ids are tuple_.required's (ROUTE_FOUND aside).
  struct MsgBinding {
    std::string base;
    ev::EventTypeId in = ev::kInvalidEventType;
    ev::EventTypeId out = ev::kInvalidEventType;
  };
  std::vector<MsgBinding> msg_registry_;

  NetLinkComponent* netlink_ = nullptr;
  const ev::EventTypeId route_found_ = ev::etype(ev::types::ROUTE_FOUND);
  std::unique_ptr<PeriodicTimer> power_timer_;

  std::unique_ptr<PeriodicTimer> linkq_timer_;
  std::map<net::Addr, std::uint32_t> frames_from_;  // within current period
  std::map<net::Addr, double> link_quality_;

  Duration aggregation_window_{0};
  // Shared handles, not copies: an aggregated message stays owned by its
  // (pooled) allocation until the flush serializes it.
  std::map<net::Addr, std::vector<ev::MsgPtr>> pending_out_;
  std::unique_ptr<OneShotTimer> flush_timer_;

  PacketTlvProvider tlv_provider_;
  PacketTlvObserver tlv_observer_;

  // TX scratch, reused across packets (allocation-free steady state).
  std::vector<const pbb::Message*> msg_ptr_scratch_;
  std::vector<pbb::Tlv> pkt_tlv_scratch_;

  bool profiling_ = false;
  std::map<std::string, Samples> processing_times_;

  // Counters live in a registry so deployments aggregate them by name; the
  // owned registry is the fallback when no shared one is wired in.
  obs::MetricsRegistry own_metrics_;
  obs::Counter* packets_sent_ = &own_metrics_.counter("sys.packets_sent");
  obs::Counter* messages_sent_ = &own_metrics_.counter("sys.messages_sent");
  obs::Counter* frames_received_ = &own_metrics_.counter("sys.frames_received");
  obs::Counter* parse_errors_ = &own_metrics_.counter("sys.parse_errors");
};

}  // namespace mk::core
