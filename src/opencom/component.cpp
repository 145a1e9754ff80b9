#include "opencom/component.hpp"

#include "util/assert.hpp"

namespace mk::oc {

Component::Component(std::string type_name)
    : type_name_(std::move(type_name)), instance_name_(type_name_) {}

std::vector<std::string> Component::interfaces() const {
  std::vector<std::string> names;
  names.reserve(provided_.size());
  for (const auto& [name, _] : provided_) names.push_back(name);
  return names;
}

Interface* Component::interface(std::string_view name) const {
  auto it = provided_.find(name);
  return it == provided_.end() ? nullptr : it->second;
}

void Component::provide(std::string name, Interface* iface) {
  MK_ASSERT(iface != nullptr, "null interface: " + name);
  auto [_, inserted] = provided_.emplace(std::move(name), iface);
  MK_ASSERT(inserted, "duplicate interface");
}

}  // namespace mk::oc
