// Monolithic OLSR daemon (Unik-olsrd stand-in).
//
// One class, direct calls, its own olsrd-style wire format (length-prefixed
// packet header, fixed message header with vtime/TTL fields) — structurally
// the opposite of the MANETKit decomposition while implementing the same
// RFC 3626 core: HELLO link sensing, MPR selection, TC diffusion with MPR
// flooding, Dijkstra route calculation into the kernel table.
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
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mk::baseline {

class MonolithicOlsr final : public RoutingDaemon {
 public:
  /// Runs with MKit-OLSR's RFC 3626 timing (protocols/timing.hpp).
  explicit MonolithicOlsr(net::SimNode& node);
  ~MonolithicOlsr() override;

  void start() override;
  void stop() override;
  const std::string& name() const override { return name_; }

  void enable_profiling(bool on) override { profiling_ = on; }
  const std::map<std::string, Samples>& processing_times() const override {
    return times_;
  }

  // introspection for tests / parity checks
  std::set<net::Addr> sym_neighbors() const;
  const std::set<net::Addr>& mprs() const { return mprs_; }
  std::set<net::Addr> mpr_selectors() const;
  std::size_t topology_size() const { return topology_.size(); }
  /// Route-table recomputations so far; like olsrd's changes_* flags, only
  /// a change to the neighbourhood or topology triggers one.
  std::uint64_t route_recomputes() const { return route_recomputes_; }

 private:
  // wire format
  static constexpr std::uint8_t kHello = 1;
  static constexpr std::uint8_t kTc = 2;

  struct MsgHeader {
    std::uint8_t type = 0;
    std::uint32_t orig = 0;
    std::uint8_t ttl = 0;
    std::uint8_t hops = 0;
    std::uint16_t seq = 0;
  };

  void on_packet(const net::Frame& frame);
  void handle_hello(const MsgHeader& h, ByteReader& r, net::Addr from);
  void handle_tc(const MsgHeader& h, ByteReader& r, net::Addr from,
                 std::vector<std::uint8_t> raw_msg);

  void send_hello();
  void send_tc();
  void forward_tc(const MsgHeader& h, const std::vector<std::uint8_t>& raw,
                  net::Addr from);
  void maintenance();

  void recompute_mprs();
  void recompute_routes();

  // state (all inline — the monolithic style)
  struct Neighbor {
    TimePoint last_heard{};
    bool symmetric = false;
    bool selected_us = false;
    std::uint8_t willingness = 3;
    std::set<net::Addr> two_hop;
  };
  struct TopoEntry {
    std::uint16_t ansn = 0;
    std::set<net::Addr> advertised;
    TimePoint expires{};
  };

  std::string name_ = "unik-olsrd";
  net::SimNode& node_;
  std::map<net::Addr, Neighbor> neighbors_;
  std::set<net::Addr> mprs_;
  std::map<net::Addr, TopoEntry> topology_;
  std::map<std::pair<net::Addr, std::uint16_t>, TimePoint> duplicates_;
  std::set<net::Addr> installed_;
  std::uint16_t msg_seq_ = 1;
  std::uint16_t pkt_seq_ = 1;
  std::uint16_t ansn_ = 1;
  std::set<net::Addr> last_advertised_;
  std::uint64_t route_recomputes_ = 0;

  std::unique_ptr<PeriodicTimer> hello_timer_;
  std::unique_ptr<PeriodicTimer> tc_timer_;
  std::unique_ptr<PeriodicTimer> maint_timer_;
  bool running_ = false;

  bool profiling_ = false;
  std::map<std::string, Samples> times_;
};

}  // namespace mk::baseline
