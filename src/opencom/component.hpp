// OpenCom-style component base class.
//
// Subclasses call provide() in their constructor to expose interfaces. The
// reflective *interface meta-model* of the paper is the introspection API
// here: interfaces() and interface(name). The paper's receptacle→interface
// bindings are the Framework Manager's event routes (core/framework_manager),
// so a component declares no receptacles.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "opencom/interface.hpp"

namespace mk::oc {

class Component {
 public:
  explicit Component(std::string type_name);
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// The component *type*, e.g. "olsr.TcHandler".
  const std::string& type_name() const { return type_name_; }

  /// Optional per-instance name (defaults to the type name).
  const std::string& instance_name() const { return instance_name_; }
  void set_instance_name(std::string name) { instance_name_ = std::move(name); }

  // -- interface meta-model --------------------------------------------------

  /// Names of all provided interfaces.
  std::vector<std::string> interfaces() const;

  /// Looks up a provided interface; nullptr if not provided.
  Interface* interface(std::string_view name) const;

  /// Typed lookup; nullptr if absent or of the wrong dynamic type.
  template <typename T>
  T* interface_as(std::string_view name) const {
    return dynamic_cast<T*>(interface(name));
  }

 protected:
  /// Exposes an interface under `name`. The pointer must stay valid for the
  /// component's lifetime (usually `this` or an owned member).
  void provide(std::string name, Interface* iface);

 private:
  std::string type_name_;
  std::string instance_name_;
  std::map<std::string, Interface*, std::less<>> provided_;
};

}  // namespace mk::oc
