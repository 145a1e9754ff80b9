// Data-plane forwarding engine — the "kernel IP forwarding path" of a node.
//
// Looks up the kernel routing table and relays data frames hop by hop.
// Exposes Netfilter-style hooks that MANETKit's NetLink component (and the
// monolithic DYMO baseline) attach to:
//   * on_no_route     — packet with no route (origination or relay); a hook
//                       may consume (buffer) it, otherwise it is dropped.
//   * on_route_used   — a route was used by the data plane (lifetimes).
//   * on_send_failure — next-hop transmission failed (link break detected by
//                       link-layer feedback).
#pragma once

#include <cstdint>
#include <functional>

#include "net/device.hpp"
#include "net/frame.hpp"
#include "net/kernel_table.hpp"
#include "util/scheduler.hpp"

namespace mk::net {

struct ForwardingStats {
  std::uint64_t originated = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t buffered = 0;
  std::uint64_t send_failures = 0;
};

class ForwardingEngine {
 public:
  ForwardingEngine(NetworkDevice& device, KernelRouteTable& table,
                   Scheduler& sched);

  struct Hooks {
    std::function<bool(const DataHeader&)> on_no_route;
    std::function<void(Addr dst)> on_route_used;
    std::function<void(const DataHeader&, Addr broken_next_hop)> on_send_failure;
  };
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }
  void clear_hooks() { hooks_ = Hooks{}; }

  /// Local delivery sink (packets addressed to this node).
  using DeliverFn = std::function<void(const DataHeader&)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Originates a data packet to `dst`. Returns true if transmitted or
  /// buffered by a hook; false if dropped (a down device counts a send
  /// failure and originates nothing).
  bool send(Addr dst, std::uint16_t payload_size, std::uint8_t ttl = 64);

  /// Re-injects a previously buffered packet (NetLink's ROUTE_FOUND path).
  bool reinject(DataHeader hdr);

  /// Handles an incoming data frame (deliver locally or relay).
  void handle_frame(const Frame& frame);

  const ForwardingStats& stats() const { return stats_; }
  Addr self() const { return device_.addr(); }

 private:
  /// Routes and transmits; shared by origination, relay and re-injection.
  bool route_and_send(DataHeader hdr, bool originating);

  NetworkDevice& device_;
  KernelRouteTable& table_;
  Scheduler& sched_;
  Hooks hooks_;
  DeliverFn deliver_;
  std::uint32_t next_seq_ = 1;
  ForwardingStats stats_;
};

}  // namespace mk::net
