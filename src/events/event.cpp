#include "events/event.hpp"

#include <algorithm>
#include <mutex>

#include "obs/journal.hpp"
#include "packetbb/message_pool.hpp"
#include "util/assert.hpp"

namespace mk::ev {

namespace {

/// Sorted-vector lookup shared by the registry's name index.
template <typename Vec>
auto name_lower_bound(Vec& v, std::string_view name) {
  return std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
}

}  // namespace

EventTypeRegistry& EventTypeRegistry::instance() {
  static EventTypeRegistry registry;
  return registry;
}

EventTypeId EventTypeRegistry::intern(std::string_view name) {
  MK_ASSERT(!name.empty());
  {
    // Fast path: already interned — shared lock only.
    std::shared_lock lock(mutex_);
    auto it = name_lower_bound(by_name_, name);
    if (it != by_name_.end() && it->first == name) return it->second;
  }
  std::unique_lock lock(mutex_);
  // Re-check: another thread may have interned between the two locks.
  auto it = name_lower_bound(by_name_, name);
  if (it != by_name_.end() && it->first == name) return it->second;
  auto id = static_cast<EventTypeId>(by_id_.size());
  by_id_.emplace_back(name);
  by_id_hash_.push_back(obs::fnv1a_str(name));
  by_name_.emplace(it, std::string{name}, id);
  return id;
}

EventTypeId EventTypeRegistry::lookup(std::string_view name) const {
  std::shared_lock lock(mutex_);
  auto it = name_lower_bound(by_name_, name);
  return (it != by_name_.end() && it->first == name) ? it->second
                                                     : kInvalidEventType;
}

std::string EventTypeRegistry::name(EventTypeId id) const {
  std::shared_lock lock(mutex_);
  if (id >= by_id_.size()) return "?";
  return by_id_[id];
}

std::uint64_t EventTypeRegistry::stable_hash(EventTypeId id) const {
  std::shared_lock lock(mutex_);
  return id < by_id_hash_.size() ? by_id_hash_[id] : 0;
}

std::size_t EventTypeRegistry::size() const {
  std::shared_lock lock(mutex_);
  return by_id_.size() - 1;
}

EventTypeId etype(std::string_view name) {
  return EventTypeRegistry::instance().intern(name);
}

std::string Event::type_name() const {
  return EventTypeRegistry::instance().name(type_);
}

pbb::Message& Event::set_msg(pbb::Message m) {
  // Pool-backed: the shell and control block are recycled; the moved-in
  // message donates its nested buffers to the slot.
  auto owned = pbb::acquire_message();
  *owned = std::move(m);
  pbb::Message& ref = *owned;
  msg_ = std::move(owned);
  return ref;
}

pbb::Message& Event::acquire_msg() {
  auto owned = pbb::acquire_message();
  pbb::Message& ref = *owned;
  msg_ = std::move(owned);
  return ref;
}

pbb::Message& Event::mutable_msg() {
  if (msg_ == nullptr) {
    // Contract: absent message -> an *empty* one, so clear the recycled
    // slot's stale-warm vectors (shell fields are reset by the pool).
    auto fresh = pbb::acquire_message();
    fresh->tlvs.clear();
    fresh->addr_blocks.clear();
    msg_ = std::move(fresh);
  } else if (msg_.use_count() > 1) {
    // COW clone via copy-assign into a recycled slot: when the slot's nested
    // vectors are warm from a previous tenant, the clone allocates nothing.
    auto clone = pbb::acquire_message();
    *clone = *msg_;
    msg_ = std::move(clone);
  }
  // Safe: every message reachable here was allocated non-const via
  // acquire_message above or in set_msg, and is uniquely owned.
  return const_cast<pbb::Message&>(*msg_);
}

std::vector<EventTypeId> EventTuple::ids(
    const std::vector<std::string>& names) {
  std::vector<EventTypeId> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(etype(n));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void EventTuple::add(std::vector<EventTypeId>& ids, EventTypeId t) {
  auto it = std::lower_bound(ids.begin(), ids.end(), t);
  if (it == ids.end() || *it != t) ids.insert(it, t);
}

}  // namespace mk::ev
