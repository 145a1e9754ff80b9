#include "opencom/kernel.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace mk::oc {

void Kernel::register_factory(std::string type_name, Factory factory) {
  MK_ASSERT(factory != nullptr);
  factories_[std::move(type_name)] = std::move(factory);
}

bool Kernel::has_factory(std::string_view type_name) const {
  return factories_.find(type_name) != factories_.end();
}

std::unique_ptr<Component> Kernel::instantiate(std::string_view type_name) {
  auto it = factories_.find(type_name);
  if (it == factories_.end()) {
    throw std::logic_error("unknown component type: " + std::string{type_name});
  }
  ++created_;
  auto comp = it->second();
  MK_ASSERT(comp != nullptr, "factory returned null");
  return comp;
}

void Kernel::bind(Component& user, std::string_view receptacle,
                  Component& provider, std::string_view iface_name) {
  auto rit = user.receptacles_.find(receptacle);
  if (rit == user.receptacles_.end()) {
    throw std::logic_error(user.instance_name() + " has no receptacle " +
                           std::string{receptacle});
  }
  Interface* iface = provider.interface(iface_name);
  if (iface == nullptr) {
    throw std::logic_error(provider.instance_name() +
                           " does not provide interface " +
                           std::string{iface_name});
  }
  if (rit->second.iface_type != iface_name) {
    throw std::logic_error("receptacle " + std::string{receptacle} +
                           " requires " + rit->second.iface_type + ", not " +
                           std::string{iface_name});
  }
  rit->second.target = iface;
  rit->second.provider = &provider;
}

void Kernel::unbind(Component& user, std::string_view receptacle) {
  auto rit = user.receptacles_.find(receptacle);
  if (rit == user.receptacles_.end()) {
    throw std::logic_error(user.instance_name() + " has no receptacle " +
                           std::string{receptacle});
  }
  rit->second.target = nullptr;
  rit->second.provider = nullptr;
}

}  // namespace mk::oc
