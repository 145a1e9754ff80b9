#include "policy/policy_engine.hpp"

#include "protocols/olsr/power_aware.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::policy {

Engine::Engine(core::Manetkit& kit) : kit_(kit) {
  // Pushed context events feed the signal map (the concentrator facade).
  kit_.manager().subscribe(ev::types::POWER_STATUS, [this](const ev::Event& e) {
    signals_["battery"] = e.attr(ev::RealAttr::battery, 1.0);
  });
  kit_.manager().subscribe(ev::types::NHOOD_CHANGE, [this](const ev::Event& e) {
    signals_["last_nhood_up"] =
        e.attr(ev::IntAttr::up, 1) != 0 ? 1.0 : 0.0;
  });
}

Engine::~Engine() { stop(); }

void Engine::add_rule(Rule rule) {
  MK_ASSERT(rule.condition != nullptr && rule.action != nullptr);
  MK_ASSERT(rule.sustain >= 1);
  rules_.push_back(RuleState{std::move(rule), TimePoint{-1'000'000'000}, 0});
}

void Engine::start(Duration period) {
  if (timer_ != nullptr) return;
  timer_ = std::make_unique<PeriodicTimer>(
      kit_.scheduler(), period, [this] { evaluate(); },
      /*jitter=*/0.1, /*seed=*/kit_.self() + 17);
  timer_->start();
}

void Engine::stop() { timer_.reset(); }

ContextView Engine::snapshot() const {
  ContextView view;
  view.now = kit_.scheduler().now();
  view.battery = kit_.node().battery();
  view.neighbor_count =
      kit_.node().medium().neighbors_of(kit_.self()).size();
  view.kernel_routes = kit_.node().kernel_table().size();
  view.signals = signals_;
  for (const auto& name : kit_.deployed()) {
    view.deployed_protocols.insert(name);
  }
  view.power_aware = proto::is_power_aware(kit_);
  if (const core::ReplicationControl* repl = kit_.replication()) {
    view.replication = repl->strategy();
    view.replicas_held = repl->replicas_held();
    view.own_replica_age_us = repl->own_replica_age_us();
  }
  if (const core::HealthProvider* health = kit_.health_provider()) {
    for (auto& name : health->quarantined_units()) {
      view.quarantined_units.insert(std::move(name));
    }
    for (auto& name : health->failed_units()) {
      view.failed_units.insert(std::move(name));
    }
  }
  return view;
}

std::vector<std::string> Engine::evaluate() {
  ++evaluations_;
  ContextView view = snapshot();
  std::vector<std::string> fired;

  for (RuleState& rs : rules_) {
    bool holds = false;
    try {
      holds = rs.rule.condition(view);
    } catch (const std::exception& e) {
      MK_WARN("policy", "rule '", rs.rule.name, "' condition threw: ",
              e.what());
      continue;
    }
    if (!holds) {
      rs.held = 0;
      continue;
    }
    ++rs.held;
    if (rs.held < rs.rule.sustain) continue;
    if (view.now - rs.last_fired < rs.rule.cooldown) continue;

    MK_INFO("policy", "rule '", rs.rule.name, "' firing at ",
            to_string(view.now));
    try {
      rs.rule.action(kit_);
      rs.last_fired = view.now;
      rs.held = 0;
      ++firings_[rs.rule.name];
      fired.push_back(rs.rule.name);
      // Re-snapshot: an action may change what later rules should see.
      view = snapshot();
      view.signals = signals_;
    } catch (const std::exception& e) {
      MK_WARN("policy", "rule '", rs.rule.name, "' action failed: ", e.what());
    }
  }
  return fired;
}

std::vector<Rule> default_adaptive_rules(std::size_t reactive_threshold,
                                         double low_battery) {
  std::vector<Rule> rules;

  rules.push_back(Rule{
      "dense-network-switch-to-reactive",
      [reactive_threshold](const ContextView& c) {
        return c.deployed("olsr") && c.neighbor_count >= reactive_threshold;
      },
      [](core::Manetkit& kit) {
        kit.switch_protocol("olsr", "dymo", /*carry_state=*/false);
        if (kit.is_deployed("mpr")) kit.undeploy("mpr");
      },
      /*cooldown=*/sec(60), /*sustain=*/2});

  rules.push_back(Rule{
      "sparse-network-switch-to-proactive",
      [reactive_threshold](const ContextView& c) {
        return c.deployed("dymo") && !c.deployed("olsr") &&
               c.neighbor_count > 0 &&
               c.neighbor_count < reactive_threshold / 2;
      },
      [](core::Manetkit& kit) {
        kit.switch_protocol("dymo", "olsr", /*carry_state=*/false);
        // The Neighbour Detection CF was DYMO's substrate; OLSR's MPR CF
        // subsumes it.
        if (kit.is_deployed("neighbor") && !kit.is_deployed("aodv")) {
          kit.undeploy("neighbor");
        }
      },
      /*cooldown=*/sec(60), /*sustain=*/2});

  rules.push_back(Rule{
      "low-energy-apply-power-aware",
      [low_battery](const ContextView& c) {
        return c.deployed("olsr") && !c.power_aware &&
               c.battery < low_battery;
      },
      [](core::Manetkit& kit) { proto::apply_power_aware(kit); },
      /*cooldown=*/sec(30), /*sustain=*/1});

  rules.push_back(Rule{
      "energy-recovered-remove-power-aware",
      [low_battery](const ContextView& c) {
        return c.deployed("olsr") && c.power_aware &&
               c.battery > low_battery + 0.2;
      },
      [](core::Manetkit& kit) { proto::remove_power_aware(kit); },
      /*cooldown=*/sec(30), /*sustain=*/1});

  return rules;
}

Rule make_health_escalation_rule(std::string unit, std::string fallback) {
  std::string rule_name = "health-escalate-" + unit + "-to-" + fallback;
  return Rule{
      std::move(rule_name),
      [unit, fallback](const ContextView& c) {
        // No deployed(unit) precondition: a failed restart whose rollback
        // also failed leaves the unit destroyed but still flagged failed.
        return c.failed(unit) && !c.deployed(fallback);
      },
      [unit, fallback](core::Manetkit& kit) {
        // The failed unit's S element is suspect by definition — start the
        // fallback from protocol defaults rather than carrying state over.
        if (kit.is_deployed(unit)) {
          kit.switch_protocol(unit, fallback, /*carry_state=*/false);
        } else {
          kit.deploy(fallback);
        }
      },
      /*cooldown=*/sec(60), /*sustain=*/1};
}

std::vector<Rule> make_replication_adaptive_rules(Duration cooldown) {
  std::vector<Rule> rules;

  rules.push_back(Rule{
      "degraded-escalate-hot-standby",
      [](const ContextView& c) {
        return c.replication == core::ReplicationStrategy::kCheckpoint &&
               (!c.quarantined_units.empty() || !c.failed_units.empty());
      },
      [](core::Manetkit& kit) {
        if (core::ReplicationControl* repl = kit.replication()) {
          repl->set_strategy(core::ReplicationStrategy::kHotStandby);
        }
      },
      cooldown, /*sustain=*/1});

  rules.push_back(Rule{
      "healthy-relax-to-checkpoint",
      [](const ContextView& c) {
        return c.replication == core::ReplicationStrategy::kHotStandby &&
               c.quarantined_units.empty() && c.failed_units.empty();
      },
      [](core::Manetkit& kit) {
        if (core::ReplicationControl* repl = kit.replication()) {
          repl->set_strategy(core::ReplicationStrategy::kCheckpoint);
        }
      },
      cooldown, /*sustain=*/3});

  return rules;
}

}  // namespace mk::policy
