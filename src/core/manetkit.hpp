// The MANETKit facade: one instance per node, owning the Framework Manager,
// the System CF and every deployed ManetProtocol CF.
//
// Protocols are registered as named builders (with a layer and a category)
// and can then be dynamically deployed — serially and simultaneously — and
// undeployed or switched at runtime (§4.5). Deployment-level integrity rules
// (e.g. at most one reactive protocol) are enforced by the Framework
// Manager at registration time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "core/system_cf.hpp"
#include "net/node.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace mk::core {

/// Node-health surface published by the supervision layer (ISSUE 5). The
/// facade only *holds* the pointer: the policy engine reads it when building
/// a ContextView, so escalated component failures become an adaptation
/// trigger like battery level or neighbour churn.
class HealthProvider {
 public:
  virtual ~HealthProvider() = default;
  /// Units currently routed around by the circuit breaker.
  virtual std::vector<std::string> quarantined_units() const = 0;
  /// Units whose recovery ladder is exhausted (fallen back or escalated).
  virtual std::vector<std::string> failed_units() const = 0;
};

/// Replication strategy for a node's S elements (ISSUE 10). Runtime-
/// switchable through ReplicationControl (the policy engine flips it from
/// context rules, like any other adaptation).
enum class ReplicationStrategy {
  kNone,        ///< no checkpoints; a crash cold-starts
  kCheckpoint,  ///< periodic full snapshots piggybacked to 1-hop peers
  kHotStandby,  ///< continuous deltas at a faster cadence
};

inline const char* to_string(ReplicationStrategy s) {
  switch (s) {
    case ReplicationStrategy::kNone: return "none";
    case ReplicationStrategy::kCheckpoint: return "checkpoint";
    case ReplicationStrategy::kHotStandby: return "hot-standby";
  }
  return "?";
}

/// Control surface of the replication CF (ISSUE 10), published on the facade
/// the same way HealthProvider is: the facade only holds the pointer, so the
/// supervision and policy layers can consult peer replicas without linking
/// the replication library.
class ReplicationControl {
 public:
  virtual ~ReplicationControl() = default;

  virtual ReplicationStrategy strategy() const = 0;
  virtual void set_strategy(ReplicationStrategy s) = 0;

  /// Replicas this node holds on behalf of its peers.
  virtual std::size_t replicas_held() const = 0;

  /// Age (µs) of the freshest peer-held replica of this node's own state
  /// that this node knows was acknowledged-by-piggyback; -1 when none. The
  /// policy engine reads this as a context signal.
  virtual std::int64_t own_replica_age_us() const = 0;

  /// Broadcasts a solicit for `unit`'s state ("" = every unit) and applies
  /// the freshest offer when it arrives. Returns true if the solicit was
  /// sent (peers may still hold nothing).
  virtual bool request_rehydrate(const std::string& unit) = 0;
};

class Manetkit {
 public:
  explicit Manetkit(net::SimNode& node);
  ~Manetkit();

  Manetkit(const Manetkit&) = delete;
  Manetkit& operator=(const Manetkit&) = delete;

  FrameworkManager& manager() { return *manager_; }
  SystemCf& system() { return *system_; }
  net::SimNode& node() { return node_; }
  Scheduler& scheduler() { return node_.scheduler(); }
  net::Addr self() const { return node_.addr(); }

  // -- protocol registry -----------------------------------------------------
  /// A builder creates a fully-composed ManetProtocol CF instance (handlers,
  /// sources, S/F elements, event tuple) and performs any System CF setup it
  /// needs (message registration, NetLink, sensors). It may deploy() other
  /// protocols it depends on (e.g. OLSR deploys MPR).
  using Builder = std::function<std::unique_ptr<ManetProtocolCf>(Manetkit&)>;

  void register_protocol(const std::string& name, int layer, Builder builder,
                         std::string category = "");
  bool has_builder(const std::string& name) const;

  // -- dynamic deployment ------------------------------------------------------
  /// Deploys (builds, registers, starts) a protocol. Idempotent: returns the
  /// existing instance if already deployed — which is how co-deployed
  /// protocols share a common substrate CF such as MPR.
  ManetProtocolCf* deploy(const std::string& name);

  bool is_deployed(const std::string& name) const;
  ManetProtocolCf* protocol(const std::string& name) const;
  std::vector<std::string> deployed() const;

  /// Stamp (next_version()) that moves whenever a protocol instance is added
  /// or removed: a kept protocol(name) answer is stale once it moves.
  std::uint64_t deployment() const { return deployment_.load(); }

  /// Stops, deregisters and destroys a deployed protocol.
  void undeploy(const std::string& name);

  /// Serial redeployment with optional state carry-over (§4.5): stops and
  /// removes `from`, deploys `to`, and — if `carry_state` — moves `from`'s S
  /// element into the new instance before starting it. Implemented on top of
  /// replace_protocol; if deploying `to` fails the prior protocol is rolled
  /// back (state restored) and the failure is re-thrown as std::logic_error.
  ManetProtocolCf* switch_protocol(const std::string& from,
                                   const std::string& to, bool carry_state);

  // -- hardened replacement ----------------------------------------------------
  struct ReplaceReport {
    ManetProtocolCf* instance = nullptr;  // active protocol after the call
    bool committed = false;  // true: `to` is live; false: rolled back to `from`
    std::string error;       // the failure when not committed
  };

  /// Hardened protocol replacement: quiesces the Framework Manager (drains
  /// in-flight dispatches), detaches `from` carrying its S element if
  /// `carry_state`, then makes one attempt to deploy `to` with that S element
  /// installed before its first start. If the attempt fails, rolls back —
  /// redeploys `from` the same way, carried S element included — so the
  /// prior binding graph is reinstated and the node is never left
  /// protocol-less. Retrying is the caller's choice (the supervisor's
  /// recovery ladder backs off in simulated time). Every phase is journaled
  /// (kReconfig) and counted ("fm.replace_*" metrics). Throws
  /// std::logic_error only if `from` is not deployed, `to` is already
  /// deployed as another unit, or the rollback itself fails.
  ReplaceReport replace_protocol(const std::string& from, const std::string& to,
                                 bool carry_state = true);

  int layer_of(const std::string& name) const;
  /// Registered category for a protocol name ("" when unknown/uncategorised).
  std::string category_of(const std::string& name) const;

  // -- supervision (ISSUE 5) ---------------------------------------------------
  /// Publishes (or clears, with nullptr) the node's health surface. Owned by
  /// the caller (normally the node's Supervisor), read by the policy engine.
  void set_health_provider(HealthProvider* provider) { health_ = provider; }
  HealthProvider* health_provider() const { return health_; }

  // -- replication (ISSUE 10) ---------------------------------------------------
  /// Publishes (or clears) the node's replication control surface. Owned by
  /// the replication CF's S element; read by supervision (rehydrate before
  /// cold start) and the policy engine (strategy switching).
  void set_replication(ReplicationControl* control) { replication_ = control; }
  ReplicationControl* replication() const { return replication_; }

  // -- observability -----------------------------------------------------------
  /// This node's metrics registry: the Framework Manager, System CF and every
  /// protocol deployed through this facade record their counters here.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Attaches a trace journal to the whole node: event dispatches and CF
  /// (un)binds (Framework Manager), route changes (kernel table) and — when
  /// the journal is shared with the medium — frame traffic all land in one
  /// record stream. Null detaches.
  void set_journal(obs::Journal* journal);
  obs::Journal* journal() const { return journal_; }

 private:
  struct ProtoSpec {
    int layer = 0;
    Builder builder;
    std::string category;
  };
  struct DeployedProto {
    std::unique_ptr<ManetProtocolCf> instance;
    int layer = 0;
  };

  /// Builds, registers, installs `carried` (when non-null) and starts one
  /// instance of `name`. If start() throws, the S element is taken back into
  /// `carried` and the half-deployed unit is scrubbed before rethrowing.
  ManetProtocolCf* instantiate(const std::string& name,
                               std::unique_ptr<oc::Component>& carried);

  void journal_reconfig(obs::ReconfigPhase phase, const std::string& from,
                        const std::string& to);

  net::SimNode& node_;
  obs::MetricsRegistry metrics_;
  // replace_protocol's counters ("fm.replace_*"), resolved once per kit.
  obs::Counter& replace_attempts_ = metrics_.counter("fm.replace_attempts");
  obs::Counter& replace_commits_ = metrics_.counter("fm.replace_commits");
  obs::Counter& replace_inplace_ =
      metrics_.counter("fm.replace_commits_inplace");
  obs::Counter& replace_switch_ = metrics_.counter("fm.replace_commits_switch");
  obs::Counter& replace_rollbacks_ = metrics_.counter("fm.replace_rollbacks");
  obs::Journal* journal_ = nullptr;
  std::unique_ptr<FrameworkManager> manager_;
  std::unique_ptr<SystemCf> system_;
  std::map<std::string, ProtoSpec> specs_;
  std::map<std::string, DeployedProto> deployed_;
  std::atomic<std::uint64_t> deployment_{next_version()};
  HealthProvider* health_ = nullptr;
  ReplicationControl* replication_ = nullptr;
};

/// The S element of `kit`'s deployed CF `unit` as a T, kept between calls
/// and looked up again only when the kit's deployment or that CF's
/// composition moves, so a restarted CF or a replaced S element is seen.
/// get() is null while the CF is not deployed or its S element is no T.
/// For plug-ins that read a sibling CF's state on every message.
template <class T>
class StateRef {
 public:
  StateRef(Manetkit& kit, std::string unit)
      : kit_(kit), unit_(std::move(unit)) {}

  T* get() {
    if (deployment_ != kit_.deployment()) {
      deployment_ = kit_.deployment();
      cf_ = kit_.protocol(unit_);
      state_ = nullptr;
      composition_ = 0;
    }
    if (cf_ != nullptr &&
        (state_ == nullptr || composition_ != cf_->composition())) {
      composition_ = cf_->composition();
      state_ = dynamic_cast<T*>(cf_->state_component());
    }
    return state_;
  }

 private:
  Manetkit& kit_;
  std::string unit_;
  std::uint64_t deployment_ = 0, composition_ = 0;  // at the last lookup
  ManetProtocolCf* cf_ = nullptr;
  T* state_ = nullptr;
};

}  // namespace mk::core
