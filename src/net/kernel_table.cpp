#include "net/kernel_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mk::net {

namespace {

/// First entry whose destination is not below `dest`.
template <class Routes>
auto route_lower_bound(Routes& routes, Addr dest) {
  return std::lower_bound(
      routes.begin(), routes.end(), dest,
      [](const RouteEntry& e, Addr key) { return e.dest < key; });
}

}  // namespace

void KernelRouteTable::set_route(const RouteEntry& entry) {
  MK_ASSERT(entry.dest != kNoAddr && entry.next_hop != kNoAddr);
  auto it = route_lower_bound(routes_, entry.dest);
  if (it == routes_.end() || it->dest != entry.dest) {
    routes_.insert(it, entry);
  } else {
    if (it->next_hop == entry.next_hop && it->metric == entry.metric) {
      return;  // identical reinstall: nothing to write, count or journal
    }
    *it = entry;
  }
  ++generation_;
  if (journal_ != nullptr) {
    journal_->append({obs::RecordKind::kRouteAdd, self_,
                      clock_ != nullptr ? clock_->now().us : 0, entry.dest,
                      entry.next_hop, entry.metric});
  }
}

bool KernelRouteTable::remove_route(Addr dest) {
  auto it = route_lower_bound(routes_, dest);
  if (it == routes_.end() || it->dest != dest) return false;
  routes_.erase(it);
  ++generation_;
  if (journal_ != nullptr) {
    journal_->append({obs::RecordKind::kRouteDel, self_,
                      clock_ != nullptr ? clock_->now().us : 0, dest, 0, 0});
  }
  return true;
}

std::vector<Addr> KernelRouteTable::dests_via(Addr next_hop) const {
  std::vector<Addr> out;
  for (const RouteEntry& e : routes_) {
    if (e.next_hop == next_hop) out.push_back(e.dest);
  }
  return out;
}

std::optional<RouteEntry> KernelRouteTable::lookup(Addr dest) const {
  auto it = route_lower_bound(routes_, dest);
  if (it == routes_.end() || it->dest != dest) return std::nullopt;
  return *it;
}

std::vector<RouteEntry> KernelRouteTable::entries() const { return routes_; }

void KernelRouteTable::clear() {
  if (!routes_.empty()) ++generation_;
  if (journal_ != nullptr) {
    for (const RouteEntry& e : routes_) {
      journal_->append({obs::RecordKind::kRouteDel, self_,
                        clock_ != nullptr ? clock_->now().us : 0, e.dest, 0, 0});
    }
  }
  routes_.clear();
}

void KernelRouteTable::set_journal(obs::Journal* journal, Addr self,
                                   Scheduler* clock) {
  journal_ = journal;
  self_ = self;
  clock_ = clock;
}

}  // namespace mk::net
