#include "protocols/neighbor/neighbor_state.hpp"

#include <algorithm>
#include <sstream>

namespace mk::proto {

namespace {

void sorted_insert(std::vector<net::Addr>& v, net::Addr a) {
  auto it = std::lower_bound(v.begin(), v.end(), a);
  if (it == v.end() || *it != a) v.insert(it, a);
}

void sorted_erase(std::vector<net::Addr>& v, net::Addr a) {
  auto it = std::lower_bound(v.begin(), v.end(), a);
  if (it != v.end() && *it == a) v.erase(it);
}

template <class Entries>
auto entry_lower_bound(Entries& entries, net::Addr a) {
  return std::lower_bound(
      entries.begin(), entries.end(), a,
      [](const auto& e, net::Addr key) { return e.addr < key; });
}

}  // namespace

NeighborTable::NeighborTable() : oc::Component("State") {}

const NeighborTable::Entry* NeighborTable::find(net::Addr a) const {
  auto it = entry_lower_bound(entries_, a);
  return it != entries_.end() && it->addr == a ? &*it : nullptr;
}

NeighborTable::Entry& NeighborTable::entry(net::Addr a) {
  auto it = entry_lower_bound(entries_, a);
  if (it == entries_.end() || it->addr != a) {
    it = entries_.insert(it, Entry{a, false, {}});
  }
  return *it;
}

void NeighborTable::note_heard(net::Addr a) { entry(a); }

bool NeighborTable::set_symmetric(net::Addr a, bool sym) {
  Entry& e = entry(a);
  if (e.symmetric == sym) return false;
  e.symmetric = sym;
  restamp();
  if (sym) {
    sorted_insert(sym_cache_, a);
  } else {
    sorted_erase(sym_cache_, a);
  }
  return true;
}

void NeighborTable::set_two_hop(net::Addr a,
                                std::span<const net::Addr> sorted) {
  std::vector<net::Addr>& cur = entry(a).two_hop;
  auto it = cur.begin();
  auto sit = sorted.begin();
  while (it != cur.end() && sit != sorted.end()) {
    if (*it < *sit) {
      it = cur.erase(it);
      restamp();
    } else if (*sit < *it) {
      it = cur.insert(it, *sit) + 1;
      ++sit;
      restamp();
    } else {
      ++it;
      ++sit;
    }
  }
  if (it != cur.end() || sit != sorted.end()) restamp();
  cur.erase(it, cur.end());
  cur.insert(cur.end(), sit, sorted.end());
}

bool NeighborTable::remove(net::Addr a) {
  auto it = entry_lower_bound(entries_, a);
  if (it == entries_.end() || it->addr != a) return false;
  bool was_sym = it->symmetric;
  if (was_sym) sorted_erase(sym_cache_, a);
  entries_.erase(it);
  restamp();
  return was_sym;
}

bool NeighborTable::is_sym_neighbor(net::Addr a) const {
  const Entry* e = find(a);
  return e != nullptr && e->symmetric;
}

const std::vector<net::Addr>& NeighborTable::sym_neighbors() const {
  return sym_cache_;
}

std::vector<net::Addr> NeighborTable::heard_neighbors() const {
  std::vector<net::Addr> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.addr);
  return out;
}

std::span<const net::Addr> NeighborTable::two_hop_via(net::Addr n) const {
  const Entry* e = find(n);
  return e == nullptr ? std::span<const net::Addr>{} : e->two_hop;
}

std::set<net::Addr> NeighborTable::strict_two_hop(net::Addr self) const {
  std::set<net::Addr> out;
  for (const Entry& e : entries_) {
    if (!e.symmetric) continue;
    for (net::Addr t : e.two_hop) {
      if (t == self) continue;
      if (is_sym_neighbor(t)) continue;
      out.insert(t);
    }
  }
  return out;
}

std::string NeighborTable::describe() const {
  std::ostringstream os;
  os << "neighbors: " << entries_.size()
     << " (sym: " << sym_neighbors().size() << ")";
  return os.str();
}

void NeighborTable::set_piggyback(const std::string& owner,
                                  PiggybackProvider provide,
                                  PiggybackObserver observe) {
  drop_piggyback(owner);
  piggyback_.push_back({owner, std::move(provide), std::move(observe)});
}

void NeighborTable::drop_piggyback(const std::string& owner) {
  std::erase_if(piggyback_,
                [&](const Piggyback& p) { return p.owner == owner; });
}

std::vector<std::string> NeighborTable::piggyback_owners() const {
  std::vector<std::string> out;
  for (const auto& p : piggyback_) out.push_back(p.owner);
  return out;
}

void NeighborTable::append_piggyback(std::vector<pbb::Tlv>& out) const {
  for (const auto& p : piggyback_) {
    if (!p.provide) continue;
    if (auto tlv = p.provide()) out.push_back(std::move(*tlv));
  }
}

void NeighborTable::dispatch_piggyback(net::Addr from,
                                       const pbb::Tlv& tlv) const {
  for (const auto& p : piggyback_) {
    if (p.observe) p.observe(from, tlv);
  }
}

}  // namespace mk::proto
