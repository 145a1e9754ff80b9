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

template <class Edit>
void ComponentFramework::check_integrity(Edit&& edit) {
  if (rules_.empty()) return;
  hypothetical_.clear();
  for (const auto& [_, comp] : members_) hypothetical_.push_back(comp.get());
  edit(hypothetical_);
  CfView view{hypothetical_};
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
  check_integrity([&](std::vector<const Component*>& hypothetical) {
    hypothetical.push_back(comp.get());
  });
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
  check_integrity([&](std::vector<const Component*>& hypothetical) {
    std::erase(hypothetical, it->second.get());
  });
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
  check_integrity([&](std::vector<const Component*>& hypothetical) {
    std::replace(hypothetical.begin(), hypothetical.end(),
                 static_cast<const Component*>(it->second.get()),
                 static_cast<const Component*>(replacement.get()));
  });

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
