// Component Frameworks (CFs): composite components that own plug-in
// components, police integrity rules over their composition, and expose the
// paper's *architecture meta-model* — a generic API through which the
// composed set can be inspected and reconfigured. Members are not wired to
// each other by hand: events reach them through the Framework Manager's
// routes, derived from each unit's <required, provided> tuple.
//
// CFs are themselves Components, so they nest (MANETKit CF ⊃ ManetProtocol
// CFs ⊃ ManetControl CF, ...). Reconfiguration safety is provided by the CF
// lock: event-processing threads and reconfiguration threads both take it, so
// a reconfigurer sees the CF quiescent (the paper's critical-section
// mechanism, with OpenCom quiescence folded into the same lock).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "opencom/component.hpp"

namespace mk::oc {

using ComponentId = std::uint64_t;
inline constexpr ComponentId kNoComponent = 0;

/// Read-only view of a (possibly hypothetical) composition, handed to
/// integrity rules for validation *before* a mutation is committed.
class CfView {
 public:
  explicit CfView(std::span<const Component* const> members)
      : members_(members) {}

  std::span<const Component* const> members() const { return members_; }

  /// Members that are, or provide, T: a component class or an interface.
  template <class T>
  std::size_t count() const {
    std::size_t n = 0;
    for (const Component* c : members_) {
      if (dynamic_cast<const T*>(c) != nullptr) ++n;
    }
    return n;
  }

 private:
  std::span<const Component* const> members_;
};

/// Returns true if the composition is legal; on failure fill `err`.
using IntegrityRule =
    std::function<bool(const CfView&, std::string& err)>;

class ComponentFramework : public Component {
 public:
  explicit ComponentFramework(std::string name);
  ~ComponentFramework() override;

  // -- integrity ------------------------------------------------------------

  /// Registers a rule checked on every insert/remove/replace.
  void add_integrity_rule(IntegrityRule rule);

  // -- composition (architecture meta-model: mutation) -----------------------

  /// Inserts a plug-in, taking ownership. Throws std::logic_error if an
  /// integrity rule rejects the resulting composition.
  ComponentId insert(std::unique_ptr<Component> comp);

  /// Removes and destroys a plug-in. Throws if integrity rules reject the
  /// removal.
  void remove(ComponentId id);

  /// Removes a plug-in but returns it instead of destroying it (used for
  /// state transfer — carrying an S component to a new protocol instance).
  std::unique_ptr<Component> extract(ComponentId id);

  /// Replaces `old_id` with `replacement` under a fresh id, which it
  /// returns. Throws std::logic_error, leaving `old_id` in place, if an
  /// integrity rule rejects the resulting composition.
  ComponentId replace(ComponentId old_id, std::unique_ptr<Component> replacement);

  // -- architecture meta-model: introspection --------------------------------

  std::vector<ComponentId> members() const;
  Component* member(ComponentId id) const;

  /// Finds the first member with the given name (nullptr if none).
  Component* find(std::string_view name) const;
  ComponentId find_id(std::string_view name) const;

  /// The first member (in id order) that is or provides T, null if none;
  /// the answer is kept until the composition changes, so a hot path pays
  /// a lock and a pointer compare, not a by-name scan and a cast.
  template <class T>
  T* provider() const {
    std::scoped_lock lock(lock_);
    for (const auto& [type, p] : providers_) {
      if (type == &typeid(T)) return static_cast<T*>(p);
    }
    T* found = nullptr;
    for (auto it = members_.begin(); !found && it != members_.end(); ++it) {
      found = dynamic_cast<T*>(it->second.get());
    }
    providers_.emplace_back(&typeid(T), found);
    return found;
  }

  std::size_t member_count() const { return members_.size(); }

  /// Moves on every insert, extract and replace (kept member pointers).
  std::uint64_t composition() const { return composition_.load(); }

  // -- quiescence -------------------------------------------------------------

  /// Acquires the CF lock. Event dispatch into this CF and reconfiguration
  /// both hold it, so holding the guard means the CF is quiescent.
  std::unique_lock<std::recursive_mutex> quiesce() const {
    return std::unique_lock{lock_};
  }

 private:
  /// Checks the rules against the current members as edited by `edit`
  /// (which receives them in id order). The hypothetical list is built in a
  /// reused buffer, and not at all when there are no rules.
  template <class Edit>
  void check_integrity(Edit&& edit);

  ComponentId next_id_ = 1;
  std::map<ComponentId, std::unique_ptr<Component>> members_;
  // provider<T>()'s answers for the current composition.
  mutable std::vector<std::pair<const std::type_info*, void*>> providers_;
  std::atomic<std::uint64_t> composition_{0};
  std::vector<IntegrityRule> rules_;
  std::vector<const Component*> hypothetical_;  // check_integrity's buffer
  mutable std::recursive_mutex lock_;
};

/// Paper-fidelity alias: each CF *exports* an architecture meta-model; in this
/// implementation the CF's own API *is* that meta-model.
using ArchitectureMetaModel = ComponentFramework;

}  // namespace mk::oc
