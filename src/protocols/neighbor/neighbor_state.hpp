// S element of the Neighbour Detection CF: 1-hop and 2-hop neighbour
// information gathered from HELLO exchange, plus the piggyback registry
// (§4.3 — "a useful means of disseminating information periodically to
// neighbours via piggybacking").
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/ifaces.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "packetbb/packetbb.hpp"
#include "util/time.hpp"

namespace mk::proto {

class NeighborTable : public oc::Component, public core::IState {
 public:
  NeighborTable();

  // -- updates (from the HELLO handler) -----------------------------------------
  void note_heard(net::Addr a);
  /// Returns true if the symmetric status changed.
  bool set_symmetric(net::Addr a, bool sym);
  /// Replaces `a`'s advertised neighbours; `sorted` must be ascending and
  /// duplicate-free. The stored set is diffed against it, so an unchanged
  /// advertisement (the steady state between topology changes) allocates
  /// nothing.
  void set_two_hop(net::Addr a, std::span<const net::Addr> sorted);

  /// Forced removal (LOST link code); returns true if it was symmetric.
  bool remove(net::Addr a);

  // -- queries ---------------------------------------------------------------------
  bool is_sym_neighbor(net::Addr a) const;
  /// Symmetric neighbours, sorted ascending. The reference stays valid until
  /// the next table mutation — route/MPR recomputes read it in place instead
  /// of copying (allocation-free steady state).
  const std::vector<net::Addr>& sym_neighbors() const;
  std::vector<net::Addr> heard_neighbors() const;
  /// Symmetric neighbours of neighbour `n` (as reported in its HELLOs),
  /// sorted ascending. Same lifetime contract as sym_neighbors().
  std::span<const net::Addr> two_hop_via(net::Addr n) const;
  /// Nodes exactly two hops away (reachable via some sym neighbour, not
  /// neighbours themselves, not us).
  std::set<net::Addr> strict_two_hop(net::Addr self) const;
  /// Version stamp (core::next_version()), taken anew on every change to the
  /// symmetric set, a 2-hop set or (MprState) a willingness.
  std::uint64_t version() const { return version_; }
  std::string describe() const override;

  /// Visits (addr, is_symmetric) for every tracked neighbour in address
  /// order — the HELLO emitter's allocation-free alternative to copying
  /// heard_neighbors() out.
  template <class Fn>
  void for_each_neighbor(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.addr, e.symmetric);
  }

  // -- piggybacking ---------------------------------------------------------------
  /// Provider called at each HELLO emission; a returned TLV rides along.
  using PiggybackProvider = std::function<std::optional<pbb::Tlv>()>;
  /// Observer of piggyback TLVs found in received HELLOs.
  using PiggybackObserver = std::function<void(net::Addr from, const pbb::Tlv&)>;
  /// Sets the hooks of unit `owner` (either may be null), replacing the
  /// entry it set before: the table holds at most one entry per owner.
  /// Entries run in the order they were last set, which fixes TLV order.
  void set_piggyback(const std::string& owner, PiggybackProvider provide,
                     PiggybackObserver observe = nullptr);
  /// Forgets `owner`'s entry, if any.
  void drop_piggyback(const std::string& owner);
  /// Owners holding an entry, in run order.
  std::vector<std::string> piggyback_owners() const;
  /// Appends the providers' TLVs to `out` (no intermediate vector).
  void append_piggyback(std::vector<pbb::Tlv>& out) const;
  void dispatch_piggyback(net::Addr from, const pbb::Tlv& tlv) const;

 protected:
  void restamp() { version_ = core::next_version(); }

 private:
  struct Entry {
    net::Addr addr;
    bool symmetric = false;
    std::vector<net::Addr> two_hop;  // sorted ascending
  };
  const Entry* find(net::Addr a) const;  // null if absent
  /// `a`'s entry, inserted in address order if absent.
  Entry& entry(net::Addr a);

  std::vector<Entry> entries_;  // sorted by addr
  // Sorted mirror of the symmetric subset of entries_, maintained on every
  // symmetric-status transition so sym_neighbors() is a reference return.
  std::vector<net::Addr> sym_cache_;
  struct Piggyback {
    std::string owner;
    PiggybackProvider provide;
    PiggybackObserver observe;
  };
  std::vector<Piggyback> piggyback_;
  std::uint64_t version_ = core::next_version();
};

}  // namespace mk::proto
