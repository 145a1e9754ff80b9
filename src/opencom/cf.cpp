#include "opencom/cf.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace mk::oc {

ComponentFramework::ComponentFramework(std::string name)
    : Component(std::move(name)) {}

ComponentFramework::~ComponentFramework() = default;

void ComponentFramework::add_integrity_rule(IntegrityRule rule) {
  MK_ASSERT(rule != nullptr);
  std::scoped_lock lock(lock_);
  rules_.push_back(std::move(rule));
}

std::vector<const Component*> ComponentFramework::current_members() const {
  std::vector<const Component*> out;
  out.reserve(members_.size());
  for (const auto& [_, comp] : members_) out.push_back(comp.get());
  return out;
}

void ComponentFramework::check_integrity(
    const std::vector<const Component*>& members) const {
  CfView view{members};
  for (const auto& rule : rules_) {
    std::string err;
    if (!rule(view, err)) {
      throw std::logic_error("integrity rule violated in " + name() +
                             ": " + (err.empty() ? "(no detail)" : err));
    }
  }
}

ComponentId ComponentFramework::insert(std::unique_ptr<Component> comp) {
  MK_ASSERT(comp != nullptr);
  std::scoped_lock lock(lock_);
  auto hypothetical = current_members();
  hypothetical.push_back(comp.get());
  check_integrity(hypothetical);
  ComponentId id = next_id_++;
  members_.emplace(id, std::move(comp));
  providers_.clear();
  ++composition_;
  return id;
}

void ComponentFramework::remove(ComponentId id) { extract(id); }

std::unique_ptr<Component> ComponentFramework::extract(ComponentId id) {
  std::scoped_lock lock(lock_);
  auto it = members_.find(id);
  if (it == members_.end()) {
    throw std::logic_error("no such member component");
  }
  auto hypothetical = current_members();
  hypothetical.erase(std::remove(hypothetical.begin(), hypothetical.end(),
                                 it->second.get()),
                     hypothetical.end());
  check_integrity(hypothetical);
  auto comp = std::move(it->second);
  members_.erase(it);
  providers_.clear();
  ++composition_;
  return comp;
}

ComponentId ComponentFramework::replace(ComponentId old_id,
                                        std::unique_ptr<Component> replacement) {
  MK_ASSERT(replacement != nullptr);
  std::scoped_lock lock(lock_);
  auto it = members_.find(old_id);
  if (it == members_.end()) {
    throw std::logic_error("no such member component");
  }

  // Validate the hypothetical composition with the replacement swapped in.
  auto hypothetical = current_members();
  std::replace(hypothetical.begin(), hypothetical.end(),
               static_cast<const Component*>(it->second.get()),
               static_cast<const Component*>(replacement.get()));
  check_integrity(hypothetical);

  members_.erase(it);
  ComponentId new_id = next_id_++;
  members_.emplace(new_id, std::move(replacement));
  providers_.clear();
  ++composition_;
  return new_id;
}

std::vector<ComponentId> ComponentFramework::members() const {
  std::scoped_lock lock(lock_);
  std::vector<ComponentId> out;
  out.reserve(members_.size());
  for (const auto& [id, _] : members_) out.push_back(id);
  return out;
}

Component* ComponentFramework::member(ComponentId id) const {
  std::scoped_lock lock(lock_);
  auto it = members_.find(id);
  return it == members_.end() ? nullptr : it->second.get();
}

Component* ComponentFramework::find(std::string_view name) const {
  std::scoped_lock lock(lock_);
  for (const auto& [_, comp] : members_) {
    if (comp->name() == name) return comp.get();
  }
  return nullptr;
}

ComponentId ComponentFramework::find_id(std::string_view name) const {
  std::scoped_lock lock(lock_);
  for (const auto& [id, comp] : members_) {
    if (comp->name() == name) return id;
  }
  return kNoComponent;
}

}  // namespace mk::oc
