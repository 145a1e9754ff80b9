#include "core/manetkit.hpp"

#include <stdexcept>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::core {

Manetkit::Manetkit(net::SimNode& node) : node_(node) {
  manager_ = std::make_unique<FrameworkManager>();
  system_ = std::make_unique<SystemCf>(node_);
  system_->set_manager(manager_.get());
  system_->set_metrics(&metrics_);
  manager_->set_metrics(&metrics_);

  // The paper's example deployment-level integrity rule: only one instance
  // of a reactive routing protocol may exist in a given deployment.
  manager_->add_unit_rule(
      [](const std::vector<CfsUnit*>& units, std::string& err) {
        std::size_t reactive = 0;
        for (const CfsUnit* u : units) {
          if (u->category() == "reactive") ++reactive;
        }
        if (reactive > 1) {
          err = "at most one reactive routing protocol may be deployed";
          return false;
        }
        return true;
      });

  manager_->register_unit(system_.get(), /*layer=*/0);
}

Manetkit::~Manetkit() {
  // Stop protocols before tearing down the manager/system they reference.
  for (auto& [_, d] : deployed_) d.instance->stop();
  for (auto& [_, d] : deployed_) {
    manager_->deregister_unit(d.instance.get());
  }
  manager_->deregister_unit(system_.get());
  deployed_.clear();
}

void Manetkit::register_protocol(const std::string& name, int layer,
                                 Builder builder, std::string category) {
  MK_ASSERT(builder != nullptr);
  specs_[name] = ProtoSpec{layer, std::move(builder), std::move(category)};
}

bool Manetkit::has_builder(const std::string& name) const {
  return specs_.find(name) != specs_.end();
}

ManetProtocolCf* Manetkit::deploy(const std::string& name) {
  if (auto* existing = protocol(name)) return existing;
  std::unique_ptr<oc::Component> no_state;
  return instantiate(name, no_state);
}

ManetProtocolCf* Manetkit::instantiate(
    const std::string& name, std::unique_ptr<oc::Component>& carried) {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::logic_error("no protocol builder registered for: " + name);
  }
  const ProtoSpec& spec = it->second;

  auto instance = spec.builder(*this);
  MK_ASSERT(instance != nullptr, "builder returned null for " + name);
  if (!spec.category.empty()) instance->set_category(spec.category);

  ManetProtocolCf* raw = instance.get();
  raw->set_metrics(&metrics_);
  manager_->register_unit(raw, spec.layer);  // may throw (deployment rules)
  deployed_.emplace(name, DeployedProto{std::move(instance), spec.layer});
  deployment_ = next_version();

  // The carried S element goes in before the first start, so the instance's
  // timers are armed once, against the state it will actually run on.
  bool installed = false;
  try {
    if (carried != nullptr) {
      raw->set_state(std::move(carried));
      installed = true;
    }
    raw->start();
  } catch (...) {
    if (installed) carried = raw->take_state();
    undeploy(name);
    throw;
  }
  MK_DEBUG("manetkit", "deployed ", name, " at ", pbb::addr_to_string(self()));
  return raw;
}

bool Manetkit::is_deployed(const std::string& name) const {
  return deployed_.find(name) != deployed_.end();
}

ManetProtocolCf* Manetkit::protocol(const std::string& name) const {
  auto it = deployed_.find(name);
  return it == deployed_.end() ? nullptr : it->second.instance.get();
}

std::vector<std::string> Manetkit::deployed() const {
  std::vector<std::string> out;
  out.reserve(deployed_.size());
  for (const auto& [name, _] : deployed_) out.push_back(name);
  return out;
}

void Manetkit::undeploy(const std::string& name) {
  auto it = deployed_.find(name);
  MK_ENSURE(it != deployed_.end(), "protocol not deployed: " + name);
  it->second.instance->stop();
  manager_->deregister_unit(it->second.instance.get());
  deployed_.erase(it);
  deployment_ = next_version();
  MK_DEBUG("manetkit", "undeployed ", name);
}

ManetProtocolCf* Manetkit::switch_protocol(const std::string& from,
                                           const std::string& to,
                                           bool carry_state) {
  ReplaceReport report = replace_protocol(from, to, carry_state);
  if (!report.committed) {
    // The prior protocol has been rolled back; surface the failure loudly
    // (pre-hardening switch_protocol semantics: a failed switch throws).
    throw std::logic_error("switch_protocol " + from + " -> " + to +
                           " failed: " + report.error);
  }
  return report.instance;
}

void Manetkit::journal_reconfig(obs::ReconfigPhase phase,
                                const std::string& from,
                                const std::string& to) {
  if (journal_ == nullptr) return;
  journal_->append({obs::RecordKind::kReconfig, self(), scheduler().now().us,
                    static_cast<std::uint64_t>(phase), obs::fnv1a_str(from),
                    obs::fnv1a_str(to)});
}

Manetkit::ReplaceReport Manetkit::replace_protocol(const std::string& from,
                                                   const std::string& to,
                                                   bool carry_state) {
  auto it = deployed_.find(from);
  MK_ENSURE(it != deployed_.end(), "protocol not deployed: " + from);
  // A live `to` (e.g. a substrate CF `from` deployed itself) must not be
  // handed `from`'s S element: refuse before anything is detached.
  MK_ENSURE(to == from || !is_deployed(to),
            "replace target already deployed: " + to);

  // Quiescence first: no in-flight dispatch may straddle the swap. drain()
  // flushes the executor and every dedicated protocol queue, so by the time
  // the old unit is detached the event graph is at rest (the OpenCom
  // discipline: reconfigure only quiescent compositions).
  manager_->drain();
  journal_reconfig(obs::ReconfigPhase::kBegin, from, to);

  ManetProtocolCf* old_proto = it->second.instance.get();
  old_proto->stop();
  std::unique_ptr<oc::Component> carried;
  if (carry_state && old_proto->state_component() != nullptr) {
    carried = old_proto->take_state();
  }
  manager_->deregister_unit(old_proto);
  deployed_.erase(it);
  deployment_ = next_version();

  ReplaceReport report;
  replace_attempts_.inc();
  try {
    report.instance = instantiate(to, carried);
    report.committed = true;
    journal_reconfig(obs::ReconfigPhase::kCommit, from, to);
    replace_commits_.inc();
    // Split by outcome so recovery rungs are individually countable: an
    // in-place restart (same protocol back) vs a switch to another one.
    (from == to ? replace_inplace_ : replace_switch_).inc();
    return report;
  } catch (const std::exception& e) {
    report.error = e.what();
  }

  // Failure: restore the prior binding graph. Redeploying `from` re-registers
  // the same unit tuple at the same layer, so rebind() derives the identical
  // event-flow topology the node had before the attempt; the carried S
  // element goes back in, so no protocol state is lost either.
  MK_WARN("manetkit", "replace ", from, " -> ", to, " failed (", report.error,
          "); rolling back");
  replace_rollbacks_.inc();
  report.instance = instantiate(from, carried);  // throws if `from` is gone
  journal_reconfig(obs::ReconfigPhase::kRollback, from, to);
  return report;
}

void Manetkit::set_journal(obs::Journal* journal) {
  journal_ = journal;
  manager_->set_journal(journal, self(), &scheduler());
  node_.kernel_table().set_journal(journal, self(), &scheduler());
}

int Manetkit::layer_of(const std::string& name) const {
  auto it = deployed_.find(name);
  return it == deployed_.end() ? -1 : it->second.layer;
}

std::string Manetkit::category_of(const std::string& name) const {
  auto it = specs_.find(name);
  return it == specs_.end() ? std::string{} : it->second.category;
}

}  // namespace mk::core
