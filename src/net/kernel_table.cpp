#include "net/kernel_table.hpp"

#include "util/assert.hpp"

namespace mk::net {

void KernelRouteTable::set_route(const RouteEntry& entry) {
  MK_ASSERT(entry.dest != kNoAddr && entry.next_hop != kNoAddr);
  auto [it, inserted] = routes_.try_emplace(entry.dest, entry);
  if (!inserted) {
    RouteEntry& cur = it->second;
    if (cur.next_hop == entry.next_hop && cur.metric == entry.metric) {
      return;  // identical reinstall: nothing to write, count or journal
    }
    cur = entry;
  }
  ++generation_;
  if (journal_ != nullptr) {
    journal_->append({obs::RecordKind::kRouteAdd, self_,
                      clock_ != nullptr ? clock_->now().us : 0, entry.dest,
                      entry.next_hop, entry.metric});
  }
}

bool KernelRouteTable::remove_route(Addr dest) {
  bool erased = routes_.erase(dest) > 0;
  if (erased) {
    ++generation_;
    if (journal_ != nullptr) {
      journal_->append({obs::RecordKind::kRouteDel, self_,
                        clock_ != nullptr ? clock_->now().us : 0, dest, 0, 0});
    }
  }
  return erased;
}

std::vector<Addr> KernelRouteTable::dests_via(Addr next_hop) const {
  std::vector<Addr> out;
  for (const auto& [dest, e] : routes_) {
    if (e.next_hop == next_hop) out.push_back(dest);
  }
  return out;
}

std::optional<RouteEntry> KernelRouteTable::lookup(Addr dest) const {
  auto it = routes_.find(dest);
  if (it == routes_.end()) return std::nullopt;
  return it->second;
}

std::vector<RouteEntry> KernelRouteTable::entries() const {
  std::vector<RouteEntry> out;
  out.reserve(routes_.size());
  for (const auto& [_, e] : routes_) out.push_back(e);
  return out;
}

void KernelRouteTable::clear() {
  if (!routes_.empty()) ++generation_;
  if (journal_ != nullptr) {
    for (const auto& [dest, _] : routes_) {
      journal_->append({obs::RecordKind::kRouteDel, self_,
                        clock_ != nullptr ? clock_->now().us : 0, dest, 0, 0});
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
