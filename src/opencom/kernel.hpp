// OpenCom runtime kernel: component factories (dynamic "loading"),
// instantiation, and the binding primitive that connects a receptacle of one
// component to an interface of another.
//
// The kernel is deliberately small — per the paper, all richer behaviour
// (integrity rules, nesting, reconfiguration) lives in ComponentFrameworks,
// which use these primitives.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "opencom/component.hpp"

namespace mk::oc {

class Kernel {
 public:
  using Factory = std::function<std::unique_ptr<Component>()>;

  /// Registers (loads) a component type. Overwrites any previous factory of
  /// the same name — analogous to loading a newer version of a component.
  void register_factory(std::string type_name, Factory factory);

  bool has_factory(std::string_view type_name) const;

  /// Instantiates a registered component type. Throws std::logic_error for
  /// unknown types.
  std::unique_ptr<Component> instantiate(std::string_view type_name);

  /// Connects `user`'s receptacle to `provider`'s interface. The interface
  /// type declared by the receptacle must equal the interface name.
  /// Throws std::logic_error on missing receptacle/interface or type clash.
  void bind(Component& user, std::string_view receptacle, Component& provider,
            std::string_view iface_name);

  /// Disconnects a receptacle (no-op if it was not connected).
  void unbind(Component& user, std::string_view receptacle);

  std::uint64_t components_created() const { return created_; }

 private:
  std::map<std::string, Factory, std::less<>> factories_;
  std::uint64_t created_ = 0;
};

}  // namespace mk::oc
