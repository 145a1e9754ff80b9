#include "core/soft_state.hpp"

#include <utility>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "obs/journal.hpp"
#include "util/assert.hpp"

namespace mk::core {

namespace {

// Fire callbacks capture (this, set|key) packed into 16 bytes so the
// std::function stays within the small-object buffer: per-entry arming must
// not allocate on the steady-state path.
constexpr int kKeyBits = 56;
constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;

}  // namespace

SoftExpiry::SoftExpiry() : EventSource("SoftExpiry") {}

void SoftExpiry::start(ProtocolContext& ctx) {
  ctx_ = &ctx;
  ctx.soft_ = this;
  // Re-arm deadlines for state carried across a supervised restart: the
  // rebuilt source starts empty while the S element may not, and entries
  // nobody re-arms would regress to the never-expires bug.
  for (std::size_t i = 0; i < sets_.size(); ++i) {
    if (!sets_[i].seed) continue;
    const auto id = static_cast<SetId>(i);
    for (std::uint64_t key : sets_[i].seed(ctx)) touch(id, key);
  }
}

void SoftExpiry::stop() {
  if (ctx_ != nullptr) {
    for (Set& set : sets_) {
      set.entries.for_each([this](std::uint64_t, Entry& entry) {
        ctx_->scheduler().cancel(entry.timer);
      });
      set.entries.clear();
    }
    if (ctx_->soft_ == this) ctx_->soft_ = nullptr;
  }
  ctx_ = nullptr;
}

SoftExpiry::SetId SoftExpiry::define_set(std::string name, Duration hold,
                                         LossFn on_expire, SeedFn seed) {
  MK_ASSERT(hold.count() > 0);
  MK_ASSERT(on_expire != nullptr);
  MK_ASSERT(sets_.size() < 255, "too many soft-state sets");
  Set set;
  set.name = std::move(name);
  set.name_hash = obs::fnv1a_str(set.name);
  set.hold = hold;
  set.on_expire = std::move(on_expire);
  set.seed = std::move(seed);
  sets_.push_back(std::move(set));
  return static_cast<SetId>(sets_.size() - 1);
}

void SoftExpiry::arm(SetId set, std::uint64_t key, Entry& entry,
                     TimePoint at) {
  MK_ASSERT((key & ~kKeyMask) == 0, "soft-state key exceeds 56 bits");
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(set) << kKeyBits) | key;
  entry.armed_at = at;
  entry.timer = ctx_->scheduler().schedule_at(at, [this, packed] {
    fire(static_cast<SetId>(packed >> kKeyBits), packed & kKeyMask);
  });
}

void SoftExpiry::touch(SetId set, std::uint64_t key) {
  touch_at(set, key, ctx_->now() + sets_[set].hold);
}

void SoftExpiry::touch_at(SetId set, std::uint64_t key, TimePoint deadline) {
  MK_ASSERT(ctx_ != nullptr, "touch before the SoftExpiry source started");
  Entry& entry = *sets_[set].entries.emplace(key).first;
  entry.deadline = deadline;
  if (entry.timer == kInvalidTimer) {
    arm(set, key, entry, deadline);
  } else if (deadline < entry.armed_at) {
    // Deadline moved earlier (rare): the pending timer is too late.
    ctx_->scheduler().cancel(entry.timer);
    arm(set, key, entry, deadline);
  }
  // Deadline at or beyond the pending fire: keep the timer, the fire
  // re-arms itself against the recorded deadline (lazy refresh).
}

bool SoftExpiry::drop(SetId set, std::uint64_t key) {
  auto entry = sets_[set].entries.take(key);
  if (!entry) return false;
  if (ctx_ != nullptr) ctx_->scheduler().cancel(entry->timer);
  return true;
}

bool SoftExpiry::contains(SetId set, std::uint64_t key) const {
  return sets_[set].entries.contains(key);
}

std::optional<TimePoint> SoftExpiry::deadline(SetId set,
                                              std::uint64_t key) const {
  const Entry* entry = sets_[set].entries.find(key);
  if (entry == nullptr) return std::nullopt;
  return entry->deadline;
}

std::size_t SoftExpiry::size(SetId set) const {
  return sets_[set].entries.size();
}

std::size_t SoftExpiry::armed() const {
  std::size_t n = 0;
  for (const Set& set : sets_) n += set.entries.size();
  return n;
}

void SoftExpiry::fire(SetId set_id, std::uint64_t key) {
  if (ctx_ == nullptr) return;  // stopped with a timer already in flight
  Set& set = sets_[set_id];
  Entry* entry = set.entries.find(key);
  if (entry == nullptr) return;
  const TimePoint now = ctx_->now();
  if (entry->deadline > now) {
    // Refreshed since this timer was armed: chase the recorded deadline.
    arm(set_id, key, *entry, entry->deadline);
    return;
  }
  set.entries.erase(key);
  FrameworkManager* manager = ctx_->protocol().manager();
  if (manager != nullptr && manager->journal() != nullptr) {
    manager->journal()->append({obs::RecordKind::kSoftExpire,
                                manager->journal_node(), now.us, set.name_hash,
                                key, set.entries.size()});
  }
  set.on_expire(key, *ctx_);
}

}  // namespace mk::core
