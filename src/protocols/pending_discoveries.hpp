// Pending route discoveries of a reactive protocol (DYMO, AODV): one entry
// per destination with an RREQ in flight, retried with binary exponential
// backoff up to the protocol's try limit. The retry deadlines themselves are
// soft-state entries (each protocol's *.pending set); this table only counts
// tries and doubles the wait.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "util/time.hpp"

namespace mk::proto {

class PendingDiscoveries {
 public:
  explicit PendingDiscoveries(std::uint8_t max_tries) : max_tries_(max_tries) {}

  bool has(net::Addr dest) const { return entries_.count(dest) > 0; }

  /// Records the first try; its retry is due `wait` from now.
  void start(net::Addr dest, Duration wait) { entries_[dest] = {1, wait}; }

  /// Advances one discovery whose retry deadline lapsed: bumps the try
  /// counter, doubles the backoff and returns the new retry deadline.
  /// Returns nullopt if the discovery is absent or just gave up (dropped).
  std::optional<TimePoint> retry(net::Addr dest, TimePoint now) {
    auto it = entries_.find(dest);
    if (it == entries_.end()) return std::nullopt;
    Entry& e = it->second;
    if (e.tries >= max_tries_) {
      entries_.erase(it);
      return std::nullopt;
    }
    ++e.tries;
    e.backoff = e.backoff * 2;
    return now + e.backoff;
  }

  void finish(net::Addr dest) { entries_.erase(dest); }
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  /// Destinations with discoveries in flight (expiry re-seeding).
  std::vector<net::Addr> dests() const {
    std::vector<net::Addr> out;
    out.reserve(entries_.size());
    for (const auto& [dest, _] : entries_) out.push_back(dest);
    return out;
  }

 private:
  struct Entry {
    std::uint8_t tries;
    Duration backoff;
  };
  std::uint8_t max_tries_;
  std::map<net::Addr, Entry> entries_;
};

}  // namespace mk::proto
