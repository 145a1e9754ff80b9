#include "protocols/mpr/mpr_state.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mk::proto {

void MprState::set_willingness_of(net::Addr a, std::uint8_t w) {
  auto [it, added] = willingness_.try_emplace(a, w);
  if (added || std::exchange(it->second, w) != w) restamp();
}

std::uint8_t MprState::willingness_of(net::Addr a) const {
  auto it = willingness_.find(a);
  return it == willingness_.end() ? wire::kWillDefault : it->second;
}

bool MprState::set_mprs(std::set<net::Addr> mprs) {
  if (mprs == mprs_) return false;
  mprs_ = std::move(mprs);
  return true;
}

bool MprState::is_mpr_selector(net::Addr a) const {
  return selectors_.count(a) > 0;
}

bool MprState::check_duplicate(net::Addr origin, std::uint16_t seq) {
  return !duplicates_.emplace(mpr_dup_key(origin, seq)).second;
}

bool MprState::drop_duplicate(net::Addr origin, std::uint16_t seq) {
  return duplicates_.erase(mpr_dup_key(origin, seq));
}

std::vector<std::pair<net::Addr, std::uint16_t>> MprState::duplicate_entries()
    const {
  std::vector<std::pair<net::Addr, std::uint16_t>> out;
  duplicates_.for_each([&](std::uint64_t key, char) {
    out.emplace_back(key >> 16, static_cast<std::uint16_t>(key));
  });
  std::sort(out.begin(), out.end());  // from the table's hash order
  return out;
}

std::string MprState::describe() const {
  std::ostringstream os;
  os << NeighborTable::describe() << " mprs: " << mprs_.size()
     << " selectors: " << selectors_.size();
  return os.str();
}

Hysteresis::Hysteresis(double scaling, double thresh_high, double thresh_low)
    : oc::Component("Hysteresis"),
      scaling_(scaling),
      high_(thresh_high),
      low_(thresh_low) {}

void Hysteresis::on_hello(net::Addr from) {
  Link& l = links_[from];
  l.quality = (1.0 - scaling_) * l.quality + scaling_;
  l.heard = true;
  if (l.quality > high_) l.pending = false;
}

void Hysteresis::on_interval(net::Addr from) {
  auto it = links_.find(from);
  if (it == links_.end()) return;
  if (std::exchange(it->second.heard, false)) return;
  it->second.quality *= (1.0 - scaling_);
  if (it->second.quality < low_) it->second.pending = true;
}

bool Hysteresis::pending(net::Addr from) const {
  auto it = links_.find(from);
  return it == links_.end() ? true : it->second.pending;
}

double Hysteresis::quality(net::Addr from) const {
  auto it = links_.find(from);
  return it == links_.end() ? 0.0 : it->second.quality;
}

}  // namespace mk::proto
