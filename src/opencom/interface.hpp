// OpenCom-style interfaces.
//
// An interface is a point at which a component can be invoked: a plain
// abstract class rooted at oc::Interface. A component provides an interface
// by deriving from it, and a caller asks for one with dynamic_cast (the
// paper's interface meta-model). Who calls whom is not wired by hand: the
// Framework Manager derives every unit's bindings from its <required,
// provided> event tuple.
#pragma once

namespace mk::oc {

class Interface {
 public:
  virtual ~Interface() = default;
};

}  // namespace mk::oc
