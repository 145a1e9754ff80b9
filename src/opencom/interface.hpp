// OpenCom-style interfaces.
//
// A component exposes named interfaces (points at which it can be invoked).
// Interfaces are plain abstract classes rooted at oc::Interface; the name
// string is the interface *type* a caller looks up (the paper's interface
// meta-model). Who calls whom is not wired by hand: the Framework Manager
// derives every unit's bindings from its <required, provided> event tuple.
#pragma once

namespace mk::oc {

class Interface {
 public:
  virtual ~Interface() = default;
};

}  // namespace mk::oc
