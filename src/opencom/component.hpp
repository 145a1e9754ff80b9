// OpenCom-style component base class.
//
// A component has one name, given to its constructor: the name its
// framework's architecture meta-model finds it by (ComponentFramework::find).
// The paper's reflective *interface meta-model* asks one question, "does
// this component provide interface T?", and the C++ type system answers it:
// dynamic_cast<T*>(component). A component type's interfaces are its base
// classes, held once per type rather than copied into every instance. The
// paper's receptacle→interface bindings are the Framework Manager's event
// routes (core/framework_manager), so a component declares no receptacles.
#pragma once

#include <string>

#include "opencom/interface.hpp"

namespace mk::oc {

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// The name this component is found by in its framework, e.g.
  /// "TcHandler".
  const std::string& name() const { return name_; }

 protected:
  /// Renames the component (a protocol composition reused as the basis of
  /// another, e.g. the zone-hybrid built from DYMO).
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
};

}  // namespace mk::oc
