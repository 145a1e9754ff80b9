// Monolithic DYMO daemon (DYMOUM-0.3 stand-in).
//
// Single class, own wire format, hooks straight into the node's forwarding
// engine (DYMOUM ships its own kernel module for packet filtering): RREQ
// flooding with path accumulation, unicast RREP, route lifetimes, RERR, and
// per-destination packet buffering with RREQ retries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "baselines/daemon.hpp"
#include "net/node.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace mk::baseline {

class MonolithicDymo final : public RoutingDaemon {
 public:
  /// Runs with MKit-DYMO's timing (protocols/timing.hpp).
  explicit MonolithicDymo(net::SimNode& node);
  ~MonolithicDymo() override;

  void start() override;
  void stop() override;
  const std::string& name() const override { return name_; }

  void enable_profiling(bool on) override { profiling_ = on; }
  const std::map<std::string, Samples>& processing_times() const override {
    return times_;
  }

  // introspection
  std::size_t route_count() const { return routes_.size(); }
  bool has_route(net::Addr dest) const;
  std::size_t buffered_count() const;

  /// Proactively starts a discovery (test harness convenience).
  void discover(net::Addr target);

  /// Packets buffered per destination awaiting a route; the oldest is
  /// dropped on overflow. Equal to MANETKit NetLink's bound.
  static constexpr std::size_t kBufferPerDest = 5;
  /// Period of the route, retry and duplicate sweep.
  static constexpr Duration kSweepInterval = msec(500);

 private:
  static constexpr std::uint8_t kRreq = 1;
  static constexpr std::uint8_t kRrep = 2;
  static constexpr std::uint8_t kRerr = 3;

  struct Route {
    net::Addr next_hop = net::kNoAddr;
    std::uint16_t seq = 0;
    std::uint8_t hops = 0;
    bool valid = true;
    TimePoint expires{};
  };
  struct PathNode {
    net::Addr addr;
    std::uint16_t seq;
    std::uint8_t hops;
  };

  void on_packet(const net::Frame& frame);
  void handle_rm(ByteReader& r, net::Addr from, bool is_rreq);
  void handle_rerr(ByteReader& r, net::Addr from);

  bool on_no_route(const net::DataHeader& hdr);
  void on_route_used(net::Addr dest);
  void on_send_failure(const net::DataHeader& hdr, net::Addr hop);

  void send_rreq(net::Addr target);
  void send_rerr(const std::vector<std::pair<net::Addr, std::uint16_t>>& u,
                 std::uint8_t hop_limit);
  void sweep();

  bool learn(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
             std::uint8_t hops);
  void route_found(net::Addr dest);
  void drop_route(net::Addr dest);

  std::vector<std::uint8_t> encode_rm(bool is_rreq, net::Addr orig,
                                      std::uint16_t orig_seq, net::Addr target,
                                      std::uint8_t hop_limit,
                                      std::uint8_t hop_count,
                                      const std::vector<PathNode>& path);

  std::string name_ = "dymoum-0.3";
  net::SimNode& node_;

  std::map<net::Addr, Route> routes_;
  std::map<std::pair<net::Addr, std::uint16_t>, TimePoint> duplicates_;
  struct Pending {
    std::uint8_t tries = 1;
    TimePoint next_retry{};
    Duration backoff{};
  };
  std::map<net::Addr, Pending> pending_;
  std::map<net::Addr, std::vector<net::DataHeader>> buffer_;
  std::uint16_t own_seq_ = 1;
  std::uint16_t rerr_seq_ = 1;

  std::unique_ptr<PeriodicTimer> sweep_timer_;
  bool running_ = false;

  bool profiling_ = false;
  std::map<std::string, Samples> times_;
};

}  // namespace mk::baseline
