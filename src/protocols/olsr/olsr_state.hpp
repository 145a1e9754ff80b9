// S element of the OLSR CF: the topology set learned from TC flooding, the
// ANSN counter, route bookkeeping, and (for the power-aware variant) the
// per-node residual-energy map.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/ifaces.hpp"
#include "core/state_codec.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "util/time.hpp"

namespace mk::proto {

class OlsrState : public oc::Component,
                  public core::IState,
                  public core::IStateCodec {
 public:
  OlsrState();

  // -- topology set -----------------------------------------------------------
  /// Applies a TC: rejected (returns false) if `ansn` is older than the
  /// newest seen from `origin`. On acceptance records the ANSN, refreshes
  /// the validity and replaces origin's advertised set (sorted ascending,
  /// no duplicates) — in place, and only when it differs, so a periodic
  /// same-set refresh copies nothing.
  bool update_topology(net::Addr origin, std::uint16_t ansn,
                       const std::vector<net::Addr>& advertised, TimePoint now,
                       Duration hold);

  /// Removes one origin's advertisements (soft-state expiry); returns true
  /// if the origin was present.
  bool drop_topology(net::Addr origin) {
    if (topology_.erase(origin) == 0) return false;
    version_ = core::next_version();
    return true;
  }

  /// Origins with live advertisements (expiry re-seeding after restart).
  std::vector<net::Addr> topology_origins() const;

  /// Directed topology edges (origin -> advertised neighbour).
  std::vector<std::pair<net::Addr, net::Addr>> topology_edges() const;
  /// Visits (origin, advertised set) in origin order, copying nothing: the
  /// route search reads each origin's set in place.
  template <class Fn>
  void for_each_origin(Fn&& fn) const {
    for (const auto& [origin, e] : topology_) fn(origin, e.advertised);
  }
  std::size_t topology_size() const { return topology_.size(); }

  // -- sequence numbers ---------------------------------------------------------
  std::uint16_t next_msg_seq() { return msg_seq_++; }
  std::uint16_t ansn() const { return ansn_; }
  void bump_ansn() { ++ansn_; }

  /// Last advertised selector set (to detect when ANSN must change).
  const std::set<net::Addr>& last_advertised() const { return last_advertised_; }
  void set_last_advertised(std::set<net::Addr> s) {
    last_advertised_ = std::move(s);
  }

  // -- installed kernel routes owned by OLSR ---------------------------------------
  /// Sorted ascending, rewritten by each full route recompute (a vector: the
  /// recompute merges it against its new routes in order, allocation-free).
  std::vector<net::Addr>& installed_dests() { return installed_; }

  // -- residual energy (power-aware variant) -----------------------------------------
  void set_energy(net::Addr node, double level) {
    if (energy_of(node) == level) return;
    energy_[node] = level;
    version_ = core::next_version();
  }
  double energy_of(net::Addr node) const;
  void set_own_battery(double level) { own_battery_ = level; }
  double own_battery() const { return own_battery_; }

  /// Version stamp (core::next_version()) of what a route recompute reads:
  /// new on reset/decode_state, a new origin or changed advertised set,
  /// drop_topology and a changed energy level, not on a same-set refresh.
  std::uint64_t version() const { return version_; }

  std::string describe() const override;

  // -- IStateCodec (S-element replication, ISSUE 10) ----------------------------
  /// Topology set, sequence counters and the last advertised selector set.
  /// Installed kernel routes and the energy map are derived/contextual and
  /// recomputed after a restore (olsr_recompute_routes / fresh HELLOs).
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  struct TopologyEntry {
    std::uint16_t ansn = 0;
    std::vector<net::Addr> advertised;  // sorted ascending, no duplicates
    TimePoint expires{};
  };
  std::map<net::Addr, TopologyEntry> topology_;
  std::uint16_t msg_seq_ = 1;
  std::uint16_t ansn_ = 1;
  std::set<net::Addr> last_advertised_;
  std::vector<net::Addr> installed_;
  std::map<net::Addr, double> energy_;
  double own_battery_ = 1.0;
  std::uint64_t version_ = core::next_version();
};

}  // namespace mk::proto
