// Public handler classes and helpers of the MPR CF that variant code
// subclasses or replaces (the power-aware OLSR variant replaces the Hello
// Handler and the MPR Calculator, §5.1).
#pragma once

#include <string>
#include <vector>

#include "core/manet_protocol.hpp"
#include "core/soft_state.hpp"
#include "protocols/mpr/mpr_state.hpp"

namespace mk::proto {

/// Soft-state set ids of the MPR CF, fixed by definition order in
/// build_mpr_cf.
namespace mpr_sets {
inline constexpr core::SoftExpiry::SetId kLink = 0;
inline constexpr core::SoftExpiry::SetId kSelector = 1;
inline constexpr core::SoftExpiry::SetId kDuplicate = 2;
}  // namespace mpr_sets

/// Packs a flooding duplicate-set tuple into a soft-state key.
inline std::uint64_t mpr_dup_key(net::Addr origin, std::uint16_t seq) {
  return (static_cast<std::uint64_t>(origin) << 16) | seq;
}

void emit_nhood_change(core::ProtocolContext& ctx, net::Addr neighbor, bool up);

/// Recomputes MPRs via the protocol's IMprCalculator plug-in; emits
/// MPR_CHANGE on change.
void recompute_mprs(core::ProtocolContext& ctx);

std::uint8_t willingness_from_battery(double level);

/// Link sensing + willingness tracking + MPR-selector detection.
class MprHelloHandler : public core::EventHandler {
 public:
  MprHelloHandler();

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  explicit MprHelloHandler(std::string type_name);

  /// Willingness attributed to the sender. The power-aware variant derives
  /// it from the advertised residual battery (transmission-power cost).
  virtual std::uint8_t effective_willingness(const pbb::Message& msg,
                                             core::ProtocolContext& ctx);

 private:
  // Advertised 2-hop addresses of the HELLO being handled, reused across
  // deliveries so link-list extraction is allocation-free.
  std::vector<net::Addr> two_hop_scratch_;
};

}  // namespace mk::proto
