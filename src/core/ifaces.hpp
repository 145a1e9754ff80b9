// The OpenCom interface vocabulary of MANETKit's CFs (the dots and cups of
// the paper's Figs. 3–4): IControl, IForward, IState/ISysState and IContext.
// The paper's push/pop event interfaces have no class here: events move
// between units along the Framework Manager's routes.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "events/event.hpp"
#include "net/address.hpp"
#include "net/kernel_table.hpp"
#include "opencom/interface.hpp"

namespace mk::core {

/// Lifecycle control of a CFS unit (ManetControl's generic operations).
struct IControl : oc::Interface {
  virtual void init() = 0;
  virtual void start() = 0;
  virtual void stop() = 0;
  virtual bool running() const = 0;
};

/// Forwarding strategy of a CFS unit (the F element).
struct IForward : oc::Interface {
  /// Forwards the message carried by `event` according to this unit's
  /// strategy (e.g. System CF: transmit on the network; MPR CF: flood via
  /// multipoint relays).
  virtual void forward(const ev::Event& event) = 0;
};

/// A fresh S-element version stamp: unique in the process, so a memo keyed
/// on a stamp also misses once its S element is replaced or restarted.
inline std::uint64_t next_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Generic state access (the S element). Every S element implements this;
/// protocol-specific state is read through the concrete class (OlsrState,
/// NeighborTable, ...).
struct IState : oc::Interface {
  virtual std::string describe() const = 0;
};

/// The System CF's S element: kernel routing table manipulation and network
/// device listing (PICA/ASL-style services).
struct ISysState : IState {
  virtual net::KernelRouteTable& kernel_table() = 0;
  virtual std::vector<std::string> list_devices() const = 0;
  virtual net::Addr local_addr() const = 0;
};

/// Polled access to node context (battery etc.). Context is also *pushed* as
/// events (POWER_STATUS, LINK_QUALITY); this interface backs the Framework
/// Manager's concentrator for values obtained by polling.
struct IContext : oc::Interface {
  virtual double battery_level() const = 0;
  virtual std::size_t neighbor_count() const = 0;
};

}  // namespace mk::core
