// Coordinated distributed reconfiguration (the paper's closing future-work
// item: "coordinated distributed dynamic reconfiguration as well as merely
// per-node reconfiguration").
//
// A small ManetProtocol CF ("reconfig") floods RECONFIG commands network-
// wide (duplicate-suppressed, hop-limited). Each node registers named
// actions ("switch-to-dymo", "apply-power-aware", ...); when a command
// arrives — locally initiated or relayed — the matching action runs against
// the local MANETKit instance. Commands carry an epoch so late/duplicate
// floods of older campaigns are ignored.
//
//   auto* coord = policy::deploy_coordinator(kit);
//   policy::register_action(*coord, "go-reactive", [](core::Manetkit& k) {
//     if (k.is_deployed("olsr")) k.switch_protocol("olsr", "dymo", false);
//   });
//   policy::initiate(*coord, "go-reactive");   // this node + whole network
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "util/serial.hpp"

namespace mk::policy {

using CoordinatedAction = std::function<void(core::Manetkit&)>;

/// Duplicate/stale-campaign filter: tracks the newest epoch per origin
/// under RFC 1982 comparison, bounded in size. Without a bound, a network
/// that churns addresses (or an attacker forging originators) grows the map
/// forever on every node. When full, the origin *least recently heard from*
/// is evicted — long-silent origins are exactly the ones whose epoch memory
/// has the least value, and re-admitting one merely re-executes at most one
/// action, which registered actions must tolerate anyway (floods re-deliver).
class OriginEpochMap {
 public:
  static constexpr std::size_t kDefaultMaxOrigins = 1024;

  explicit OriginEpochMap(std::size_t max_origins = kDefaultMaxOrigins)
      : max_origins_(max_origins) {}

  /// True if (origin, ep) is a duplicate or stale campaign. Every sighting
  /// — fresh or duplicate — refreshes the origin's last-seen stamp.
  bool seen(net::Addr origin, std::uint16_t ep) {
    auto it = latest_.find(origin);
    if (it != latest_.end()) {
      it->second.last_seen = ++clock_;
      if (!serial_newer(ep, it->second.epoch)) return true;
      it->second.epoch = ep;
      return false;
    }
    if (latest_.size() >= max_origins_) evict_least_recent();
    latest_.emplace(origin, Slot{ep, ++clock_});
    return false;
  }

  std::size_t size() const { return latest_.size(); }
  bool tracks(net::Addr origin) const {
    return latest_.find(origin) != latest_.end();
  }

 private:
  struct Slot {
    std::uint16_t epoch;
    std::uint64_t last_seen;
  };

  void evict_least_recent() {
    auto victim = latest_.begin();
    for (auto it = latest_.begin(); it != latest_.end(); ++it) {
      if (it->second.last_seen < victim->second.last_seen) victim = it;
    }
    if (victim != latest_.end()) latest_.erase(victim);
  }

  std::size_t max_origins_;
  std::uint64_t clock_ = 0;
  std::map<net::Addr, Slot> latest_;
};

/// Deploys (idempotently) the "reconfig" coordination CF on a kit.
core::ManetProtocolCf* deploy_coordinator(core::Manetkit& kit);

/// Registers/overwrites a named action on a deployed coordinator.
void register_action(core::ManetProtocolCf& coordinator, std::string name,
                     CoordinatedAction action);

/// Runs the action locally and floods the command to the network. Returns
/// the campaign epoch used.
std::uint16_t initiate(core::ManetProtocolCf& coordinator,
                       const std::string& action_name);

/// Number of commands executed on this node (local + remote initiations).
std::uint64_t commands_executed(core::ManetProtocolCf& coordinator);

}  // namespace mk::policy
