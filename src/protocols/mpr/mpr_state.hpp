// S element of the MPR CF: everything the Multipoint Relaying protocol needs
// beyond plain neighbour detection — per-neighbour willingness, the MPR set,
// the MPR-selector set, and the duplicate set used by the flooding service.
//
// (The paper notes this component is by far the largest state component —
// "several different types of table involved for the various types of data
// stored"; the same holds here.)
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "protocols/wire.hpp"
#include "util/u64_table.hpp"

namespace mk::proto {

/// Packs a flooding duplicate-set tuple into one key, ordered as the
/// (origin, seq) pair: the duplicate set's and its soft-state set's key.
inline std::uint64_t mpr_dup_key(net::Addr origin, std::uint16_t seq) {
  return (static_cast<std::uint64_t>(origin) << 16) | seq;
}

class MprState : public NeighborTable {
 public:
  // -- willingness ---------------------------------------------------------------
  void set_willingness_of(net::Addr a, std::uint8_t w);
  std::uint8_t willingness_of(net::Addr a) const;
  void set_own_willingness(std::uint8_t w) { own_willingness_ = w; }
  std::uint8_t own_willingness() const { return own_willingness_; }

  // -- MPR set -------------------------------------------------------------------
  /// Returns true if the set changed.
  bool set_mprs(std::set<net::Addr> mprs);
  const std::set<net::Addr>& mprs() const { return mprs_; }
  bool is_mpr(net::Addr a) const { return mprs_.count(a) > 0; }

  // -- MPR selector set -------------------------------------------------------------
  void note_selector(net::Addr a) { selectors_.insert(a); }
  void drop_selector(net::Addr a) { selectors_.erase(a); }
  std::set<net::Addr> mpr_selectors() const { return selectors_; }
  bool is_mpr_selector(net::Addr a) const;

  // -- duplicate set (flooding) --------------------------------------------------------
  /// Returns true if (origin, seq) was already seen; notes it otherwise.
  bool check_duplicate(net::Addr origin, std::uint16_t seq);
  /// Removes one tuple (soft-state expiry); returns true if it was present.
  bool drop_duplicate(net::Addr origin, std::uint16_t seq);
  /// All live tuples, (origin, seq) ascending (expiry re-seeding after
  /// restart re-arms them in this order).
  std::vector<std::pair<net::Addr, std::uint16_t>> duplicate_entries() const;
  std::size_t duplicate_count() const { return duplicates_.size(); }

  std::string describe() const override;

 private:
  std::map<net::Addr, std::uint8_t> willingness_;
  std::uint8_t own_willingness_ = wire::kWillDefault;
  std::set<net::Addr> mprs_;
  std::set<net::Addr> selectors_;
  U64Table<char> duplicates_;  // keyed by mpr_dup_key
};

/// Optional link-hysteresis plug-in (RFC 3626 §14): a link must prove itself
/// before being treated as established, damping flapping links.
struct IHysteresis : oc::Interface {
  /// Updates the link quality estimate on a HELLO arrival.
  virtual void on_hello(net::Addr from) = 0;
  /// Per-interval tick: decays the quality only if no HELLO arrived since
  /// the previous tick (a missed HELLO).
  virtual void on_interval(net::Addr from) = 0;
  /// True while the link quality is below the establishment threshold.
  virtual bool pending(net::Addr from) const = 0;
};

class Hysteresis : public oc::Component, public IHysteresis {
 public:
  Hysteresis(double scaling = 0.5, double thresh_high = 0.8,
             double thresh_low = 0.3);

  void on_hello(net::Addr from) override;
  void on_interval(net::Addr from) override;
  bool pending(net::Addr from) const override;

  double quality(net::Addr from) const;

 private:
  struct Link {
    double quality = 0.0;
    bool pending = true;
    bool heard = false;  // a HELLO arrived since the last tick
  };
  double scaling_;
  double high_;
  double low_;
  std::map<net::Addr, Link> links_;
};

}  // namespace mk::proto
